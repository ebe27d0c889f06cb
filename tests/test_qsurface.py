import itertools
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdclab import cli
from mdclab import oscgauss as og
from mdclab import qsurface as qs
from mdclab.errors import DegenerateCoeffs, DeltaConstraintError, MissingVertex, NearCaustic
from mdclab.oscgauss import compare, glue, marginalize_all

from conftest import coeff, engine_rows, float_bits, reversed_surface


@pytest.fixture(scope="module")
def co321():
    return qs.canonical_lattice_coeffs(3.0, 2.0, 1.0)


def test_flat_plaquette_kernel_is_its_own_lagrangian(co321):
    flat = qs.flat_patch(1, 1)
    k = qs.surface_kernel(flat, co321)
    assert k.pihbar_pow == 0 and k.vol_pow == 0 and k.amp == 1.0
    u, u1, u2 = "u0_0_0", "u1_0_0", "u0_1_0"
    s12 = 5.0
    assert coeff(k, u, u1) == 1.0
    assert coeff(k, u, u2) == -1.0
    assert coeff(k, u1, u1) == -s12 / 2
    assert coeff(k, u2, u2) == -s12 / 2
    assert coeff(k, u1, u2) == s12


def test_pop_up_action_matches_the_oriented_sum(co321, rng):
    flat = qs.flat_patch(1, 1)
    popped = qs.pop_up(flat, 0)
    values = {v: float(rng.normal()) for v in popped.vertices()}
    L = co321.lagrangian
    u = values[(0, 0, 0)]
    u1, u2, u3 = values[(1, 0, 0)], values[(0, 1, 0)], values[(0, 0, 1)]
    u12, u13, u23 = values[(1, 1, 0)], values[(1, 0, 1)], values[(0, 1, 1)]
    manual = (
        L(u1, u12, u13, 2, 3)
        + L(u2, u23, u12, 3, 1)
        + L(u3, u13, u23, 1, 2)
        - L(u, u2, u3, 2, 3)
        - L(u, u3, u1, 3, 1)
    )
    oriented = sum(p.sign * co321.lagrangian(*(values[v] for v in p.stencil), *p.plane) for p in popped.plaquettes)
    assert oriented == pytest.approx(manual, abs=1e-12)


def test_pop_up_kernel_reduces_to_the_flat_exponent(co321):
    flat = qs.flat_patch(1, 1)
    popped = qs.pop_up(flat, 0)
    k_pop = qs.surface_kernel(popped, co321)
    k_flat = qs.surface_kernel(flat, co321)
    diff = compare(k_pop, k_flat)
    assert diff.exponent_diff <= 1e-12
    # two volume factors (the unread far corner and the singular third pivot)
    # and a 2 pi hbar from the pair of Gaussian integrations
    assert k_pop.vol_pow == 2
    assert k_pop.pihbar_pow == 1
    # the scalar prefactor is 1/s23 at this parameter point
    assert k_pop.amp == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_pop_up_interior_block_is_the_singular_matrix(co321):
    # the quadratic form over (u3, u31, u23) must be the singular matrix
    # whose determinant the edge-coefficient identity kills
    popped = qs.pop_up(qs.flat_patch(1, 1), 0)
    kern = plaquette_kernel(co321, popped.plaquettes, {v: qs.vertex_label(v) for v in popped.vertices()})
    order = [kern.index(qs.vertex_label(v)) for v in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]]
    block = kern.A[np.ix_(order, order)]
    s12, s23, s31 = 5.0, 3.0, -2.0
    expected = np.array(
        [
            [s23 + s31, 1.0, -1.0],
            [1.0, -(s12 + s23), s12],
            [-1.0, s12, -(s12 + s31)],
        ]
    )
    assert np.max(np.abs(block - expected)) <= 1e-12
    assert abs(np.linalg.det(expected)) <= 1e-12


def test_two_by_two_patch_equals_glued_strips(co321):
    whole = qs.surface_kernel(qs.flat_patch(2, 2), co321)
    # the 2-by-1 strip one row up, spelled out
    row = tuple(qs.OrientedPlaquette(base=(a, 1, 0), plane=(1, 2)) for a in range(2))
    top = qs.Surface(row, interior=frozenset(), boundary=frozenset(v for p in row for v in p.corners()))
    bottom = qs.flat_patch(2, 1)
    glued = glue(
        qs.surface_kernel(bottom, co321), qs.surface_kernel(top, co321), shared=()
    )
    diff = compare(glued, whole)
    assert diff.exponent_diff <= 1e-12
    assert diff.amp_ratio == 1.0


@pytest.mark.parametrize("move", ["a", "b", "c"])
def test_elementary_moves_leave_the_exponent_invariant(move, co321):
    diff = qs.elementary_move_check(move, co321)
    assert diff.exponent_diff <= 1e-12
    if move in ("b", "c"):
        # these two moves match amplitudes as well
        assert diff.amp_ratio_error <= 1e-12
        assert diff.pihbar_diff == 0 and diff.vol_diff == 0


def test_move_a_power_bookkeeping(co321):
    one, two = qs.elementary_move_surfaces("a")
    k1 = qs.surface_kernel(one, co321)
    k2 = qs.surface_kernel(two, co321)
    # single volume factor versus two volumes and one 2 pi hbar
    assert (k1.vol_pow, k1.pihbar_pow) == (1, 0)
    assert (k2.vol_pow, k2.pihbar_pow) == (2, 1)


def test_perturbed_edge_weight_breaks_the_moves(co321):
    bumped = co321.perturbed("d", (1, 2), 1e-2)
    diff = qs.elementary_move_check("b", bumped)
    assert diff.exponent_diff > 1e-4


def test_random_deformations_preserve_the_boundary_kernel(co321, rng):
    patch = qs.flat_patch(3, 3)
    reference = qs.surface_kernel(patch, co321)
    for _ in range(20):
        deformed = qs.random_deformation(patch, rng, int(rng.integers(2, 8)))
        diff = compare(qs.surface_kernel(deformed, co321), reference)
        assert diff.exponent_diff <= 1e-10
    # deformations stack: popped faces of popped cubes are eligible sites
    tall = qs.pop_up(qs.pop_up(patch, 0), len(patch.plaquettes) - 1 + 2)
    diff = compare(qs.surface_kernel(tall, co321), reference)
    assert diff.exponent_diff <= 1e-10


def test_unpop_restores_the_surface(co321, rng):
    # the other plaquettes in their order with the removed one last, the same vertex sets, the records before the pop
    patch = qs.flat_patch(2, 2)
    surfaces = [patch] + [qs.random_deformation(qs.flat_patch(3, 3), rng, int(rng.integers(1, 12))) for _ in range(10)]
    for surface in surfaces:
        for index in qs.pop_up_sites(surface):
            restored = qs.unpop(qs.pop_up(surface, index))
            removed = surface.plaquettes[index]
            assert restored.plaquettes == surface.plaquettes[:index] + surface.plaquettes[index + 1:] + (removed,)
            assert (restored.interior, restored.boundary) == (surface.interior, surface.boundary)
            assert restored.records == surface.records
    restored = qs.unpop(qs.pop_up(patch, 1))
    assert restored.records == ()
    diff = compare(qs.surface_kernel(restored, co321), qs.surface_kernel(patch, co321))
    assert diff.exponent_diff == 0.0
    assert diff.amp_ratio == 1.0


def test_moves_build_what_the_validating_constructor_builds(rng):
    # pop_up skips the full re-check of Surface.__post_init__: its fields must pass it unchanged
    for _ in range(20):
        k = int(rng.integers(3, 7))
        surface = qs.flat_patch(k, k)
        for _ in range(int(rng.integers(1, 4 * k))):
            surface = qs.random_deformation(surface, rng, 1)
            rebuilt = qs.Surface(plaquettes=surface.plaquettes, interior=surface.interior, boundary=surface.boundary,
                                 records=surface.records)
            assert (type(surface.plaquettes), type(surface.interior), type(surface.boundary)) == (
                tuple, frozenset, frozenset)
            assert (rebuilt.plaquettes, rebuilt.interior, rebuilt.boundary, rebuilt.records) == (
                surface.plaquettes, surface.interior, surface.boundary, surface.records)


def _lone_plaquette():
    """One plaquette whose far corner (1, 1, 0) is not designated: its stencil does not read it."""
    plq = qs.OrientedPlaquette(base=(0, 0, 0), plane=(1, 2), sign=1)
    return qs.Surface(plaquettes=(plq,), interior=frozenset(), boundary=frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0)}))


def _with_faces_kept(popped):
    """popped with its last record claiming to have added no faces."""
    return replace(popped, records=(replace(popped.records[-1], added=()),))


@pytest.mark.parametrize("move, message", [
    # the flat plaquette next to a popped cell: its cell shares the cube's two top vertices
    (lambda: qs.pop_up(qs.pop_up(qs.flat_patch(2, 1), 0), 0), "pop target of plaquette 0 is occupied"),
    # a new face at (1, 0, 0) in the (2, 3) plane reads the far corner
    (lambda: qs.pop_up(_lone_plaquette(), 0), "referenced vertices not designated: [(1, 1, 0)]"),
    # hand-made records: one puts back a plaquette nothing designates, one takes the interior from the cube's faces
    (lambda: qs.unpop(replace(qs.flat_patch(1, 1), records=(qs.PopRecord(
        removed=qs.OrientedPlaquette(base=(5, 5, 5), plane=(1, 2)), added=(), new_interior=()),))),
     "referenced vertices not designated: [(5, 5, 5), (5, 6, 5), (6, 5, 5)]"),
    (lambda: qs.unpop(_with_faces_kept(qs.pop_up(qs.flat_patch(1, 1), 0))),
     "referenced vertices not designated: [(0, 0, 1), (0, 1, 1), (1, 0, 1)]"),
], ids=["occupied", "undesignated-corner", "unpop-foreign-plaquette", "unpop-kept-faces"])
def test_move_errors_name_what_is_wrong(move, message):
    with pytest.raises(MissingVertex) as info:
        move()
    assert str(info.value) == message


def test_interior_relabeling_cannot_change_the_kernel(co321):
    popped = qs.pop_up(qs.flat_patch(1, 1), 0)
    reference = qs.surface_kernel(popped, co321)
    label = {v: qs.vertex_label(v) for v in popped.boundary}
    label.update({v: f"w{k}" for k, v in enumerate(sorted(popped.interior))})
    kern = plaquette_kernel(co321, popped.plaquettes, label)
    reduced = marginalize_all(kern, [label[v] for v in popped.interior])
    assert compare(reduced, reference).exponent_diff <= 1e-13


def test_orientation_reversal_conjugates(co321):
    popped = qs.pop_up(qs.flat_patch(1, 1), 0)
    k = qs.surface_kernel(popped, co321)
    k_rev = qs.surface_kernel(reversed_surface(popped), co321)
    assert np.max(np.abs(k_rev.A + k.A)) <= 1e-13
    assert k_rev.amp == pytest.approx(np.conj(k.amp), abs=1e-13)


def test_uniqueness_scan_canonical_point(co321):
    res = qs.uniqueness_scan_2form(co321)
    assert res["critical"]
    assert res["on_critical_branch"]
    assert not res["delta_rejected"]
    assert res["exponent_diff"] <= 1e-12
    assert max(res["conditions"].values()) <= 1e-12


@pytest.mark.parametrize("gauge", [(0.3, -0.7, 0.2), (1.3, 0.3, 1.2)])
def test_uniqueness_scan_gauged_canonical_point_is_critical(gauge):
    # a gauge adds boundary terms only, so the move-a kernels still match;
    # the critical conditions must not read the gauge-dependent a and b + d
    res = qs.uniqueness_scan_2form(qs.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=gauge))
    assert res["exponent_diff"] <= 1e-12
    assert res["critical"]


@pytest.mark.parametrize(
    "table,pair",
    [("a", (1, 2)), ("a", (2, 3)), ("b", (1, 2)), ("b", (3, 1)), ("d", (1, 2)), ("d", (2, 3))],
)
def test_uniqueness_scan_perturbation_grid(co321, table, pair):
    res = qs.uniqueness_scan_2form(co321.perturbed(table, pair, 1e-2))
    assert not res["critical"]
    assert res["delta_rejected"] or res["exponent_diff"] > 1e-5


def test_uniqueness_scan_symmetric_c_detune(co321):
    bumped = co321.perturbed("c", (1, 2), 1e-2).perturbed("c", (2, 1), 1e-2)
    res = qs.uniqueness_scan_2form(bumped)
    assert not res["critical"]
    assert res["delta_rejected"]


def test_asymmetric_c_triggers_the_delta_rejection(co321):
    bumped = co321.perturbed("c", (1, 2), 1e-2)
    res = qs.uniqueness_scan_2form(bumped)
    assert res["delta_rejected"]
    with pytest.raises(DeltaConstraintError):
        qs.surface_kernel(qs.elementary_move_surfaces("a")[1], bumped)


def test_uniqueness_scan_of_a_non_finite_table_is_not_critical(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a non-finite table must build no kernel and take no determinant")

    monkeypatch.setattr(qs, "surface_kernel", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    res = qs.uniqueness_scan_2form(qs.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=(float("nan"), 0.0, 0.0)))
    assert not res["critical"]
    assert not res["delta_rejected"]
    assert np.isnan(res["exponent_diff"])


def test_generic_coefficients_are_off_the_critical_branch(rng):
    pairs = list(itertools.permutations((1, 2, 3), 2))
    a, b, c, d = {}, {}, {}, {}
    for i, j in pairs:
        if (j, i) in a:
            a[(i, j)] = -a[(j, i)]
            d[(i, j)] = -d[(j, i)]
        else:
            a[(i, j)] = float(rng.normal())
            d[(i, j)] = float(rng.normal()) + 1.5
        b[(i, j)] = float(rng.normal())
        c[(i, j)] = float(rng.normal()) + 2.0
    coeffs = qs.LatticeLagrangianCoeffs(a=a, b=b, c=c, d=d)
    res = qs.uniqueness_scan_2form(coeffs)
    assert not res["on_critical_branch"]
    assert not res["critical"]


def test_surface_description_round_trip(co321, rng):
    popped = qs.pop_up(qs.flat_patch(2, 1), 1)
    deformed = [qs.random_deformation(qs.flat_patch(3, 4), rng, int(rng.integers(1, 10))) for _ in range(10)]
    for surface in [popped, *deformed]:
        back = qs.surface_from_dict(qs.surface_to_dict(surface))
        assert back == surface and back.plaquettes == surface.plaquettes
    diff = compare(qs.surface_kernel(qs.surface_from_dict(qs.surface_to_dict(popped)), co321),
                   qs.surface_kernel(popped, co321))
    assert diff.exponent_diff == 0.0


def test_surface_description_rejects_garbage():
    with pytest.raises(MissingVertex):
        qs.surface_from_dict({"plaquettes": [{"base": [0, 0], "plane": [1, 2]}]})
    with pytest.raises(MissingVertex):
        qs.surface_from_dict({})


def _reference_surface_from_dict(data):
    """The reader that checks through the validating constructors: each
    plaquette through OrientedPlaquette's, then the surface through
    Surface's, which computes every stencil again."""
    try:
        plaqs = []
        for n, item in enumerate(data["plaquettes"]):
            base, plane, sign = qs._vertex(item["base"]), item["plane"], item.get("sign", 1)
            if base is None:
                raise MissingVertex(f"malformed surface description: plaquette {n} base {item['base']!r} "
                                    "is not 3 integers")
            if not ((type(plane) is list or type(plane) is tuple) and len(plane) == 2
                    and type(plane[0]) is int and type(plane[1]) is int):
                raise MissingVertex(f"malformed surface description: plaquette {n} plane {plane!r} "
                                    "is not 2 integers")
            if type(sign) is not int:
                raise MissingVertex(f"malformed surface description: plaquette {n} sign {sign!r} is not an integer")
            plaqs.append(qs.OrientedPlaquette(base=base, plane=(plane[0], plane[1]), sign=sign))
        interior, boundary = qs._vertex_set(data, "interior"), qs._vertex_set(data, "boundary")
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingVertex(f"malformed surface description: {exc}") from exc
    return qs.Surface(plaquettes=tuple(plaqs), interior=interior, boundary=boundary)


def _unit_description(**changes):
    """surface_to_dict(flat_patch(1, 1)) with its plaquette's fields and the
    vertex lists replaced as given."""
    data = qs.surface_to_dict(qs.flat_patch(1, 1))
    for key in ("base", "plane", "sign"):
        if key in changes:
            data["plaquettes"][0][key] = changes.pop(key)
    data.update(changes)
    return data


_REFUSED = {
    "plane-1-1": (_unit_description(plane=[1, 1]), "malformed surface description: bad plane (1, 1)"),
    "plane-1-4": (_unit_description(plane=[1, 4]), "malformed surface description: bad plane (1, 4)"),
    "sign-0": (_unit_description(sign=0), "malformed surface description: bad sign 0"),
    "sign-2": (_unit_description(sign=2), "malformed surface description: bad sign 2"),
    "interior-and-boundary": (_unit_description(interior=[[1, 1, 0]]),
                              "vertices listed as both interior and boundary: [(1, 1, 0)]"),
    # the stencil reads (0, 0, 0), (1, 0, 0) and (0, 1, 0); the far corner is not read
    "undesignated-stencil-vertex": (_unit_description(boundary=[[0, 0, 0], [0, 1, 0], [1, 1, 0]]),
                                    "referenced vertices not designated: [(1, 0, 0)]"),
}


@pytest.mark.parametrize("data, message", list(_REFUSED.values()), ids=list(_REFUSED))
def test_surface_description_refusals_keep_their_messages(tmp_path, capsys, data, message):
    for read in (qs.surface_from_dict, _reference_surface_from_dict):
        with pytest.raises(MissingVertex) as info:
            read(data)
        assert str(info.value) == message
    surf_path = tmp_path / "surface.json"
    surf_path.write_text(json.dumps(data))
    assert cli.main(["surface-kernel", "--surface", str(surf_path), "--params", "3", "2", "1"]) == 2
    assert capsys.readouterr() == ("", f"surface error: {message}\n")


@st.composite
def mutated_descriptions(draw):
    """surface_to_dict of a seeded deformed patch, then one to three
    mutations: a coordinate, plane entry or sign changed, or a vertex moved
    between the lists or dropped."""
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = qs.surface_to_dict(qs.random_deformation(qs.flat_patch(k, k), rng, draw(st.integers(0, 3 * k))))
    plaqs, lists = data["plaquettes"], {key: data[key] for key in ("interior", "boundary")}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["coordinate", "plane", "sign", "move", "drop"]))
        plq = plaqs[draw(st.integers(0, len(plaqs) - 1))]
        source = lists[draw(st.sampled_from(sorted(key for key, vs in lists.items() if vs)))]
        if kind == "coordinate":
            vertex = draw(st.sampled_from([plq["base"], *source]))
            vertex[draw(st.integers(0, 2))] = draw(st.integers(-1, k + 2))
        elif kind == "plane":
            plq["plane"][draw(st.integers(0, 1))] = draw(st.integers(0, 4))
        elif kind == "sign":
            plq["sign"] = draw(st.integers(-2, 2))
        else:
            vertex = source.pop(draw(st.integers(0, len(source) - 1)))
            if kind == "move":
                lists["interior" if source is lists["boundary"] else "boundary"].append(vertex)
    return data


@settings(max_examples=200, deadline=None)
@given(mutated_descriptions())
def test_surface_from_dict_reads_as_the_validating_constructors_do(data):
    outcomes = []
    for read in (qs.surface_from_dict, _reference_surface_from_dict):
        try:
            outcomes.append(read(data))
        except MissingVertex as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return
    assert got == want and got.records == want.records == ()
    assert (type(got.plaquettes), type(got.interior), type(got.boundary)) == (tuple, frozenset, frozenset)
    assert got.plaquettes == want.plaquettes
    assert [p.stencil for p in got.plaquettes] == [p.stencil for p in want.plaquettes] == [
        (p.base, qs.shift(p.base, p.plane[0]), qs.shift(p.base, p.plane[1])) for p in want.plaquettes]


def _plaquette_part(coeffs, plaquettes, label):
    """surface_kernel's engine part for plaquettes, vertex v named label[v]."""
    return qs._Plaquettes(tuple(sorted(label.values())), tuple(plaquettes), coeffs, label, 1.0 + 0.0j, Fraction(0))


def plaquette_kernel(coeffs, plaquettes, label):
    """The kernel of the plaquettes' Lagrangians with nothing integrated,
    built by the engine from surface_kernel's part."""
    return marginalize_all(_plaquette_part(coeffs, plaquettes, label), ())


def _reference_monomials(coeffs, plaquettes, label):
    """The monomial coefficients the plaquettes add to the action exponent,
    each key a sorted pair of names and each coefficient summed from 0.0 in
    plaquette order: a stencil of two shifts, the six coefficients per
    plaquette and one add call per term."""
    out = {}

    def add(x, y, val):
        key = (x, y) if x <= y else (y, x)
        out[key] = out.get(key, 0.0) + val

    for plq in plaquettes:
        i, j = plq.plane
        u, ui, uj = (label[v] for v in (plq.base, qs.shift(plq.base, i), qs.shift(plq.base, j)))
        s = float(plq.sign)
        add(u, u, 0.5 * s * coeffs.a[(i, j)])
        add(ui, ui, 0.5 * s * coeffs.b[(i, j)])
        add(uj, uj, -0.5 * s * coeffs.b[(j, i)])
        add(u, ui, s * coeffs.c[(i, j)])
        add(u, uj, -s * coeffs.c[(j, i)])
        add(ui, uj, s * coeffs.d[(i, j)])
    return out


def _reference_part(coeffs, plaquettes, label):
    """The reference monomials in the form from_terms takes, which the engine
    adds as _Terms._add_into does."""
    names = tuple(sorted(label.values()))
    return og._Terms(names, _reference_monomials(coeffs, plaquettes, label), 1.0 + 0.0j, Fraction(0))


def _labelled(surface):
    return {v: qs.vertex_label(v) for v in sorted(surface.vertices())}


def _monomial_tables():
    """Coefficient tables for the bit-for-bit check, by name."""
    canonical = qs.canonical_lattice_coeffs(2.7, 1.35, 0.55)
    odd = replace(canonical, a={**canonical.a, (1, 2): -0.0, (2, 1): 0.0}, b={**canonical.b, (3, 1): -0.0},
                  c={**canonical.c, (2, 3): float("nan")}, d={**canonical.d, (3, 1): -0.0, (1, 3): 0.0})
    return {
        "gauged": qs.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=(0.3, -1.1, 0.7)),
        "perturbed-b": canonical.perturbed("b", (2, 3), 1e-2),
        "perturbed-c": canonical.perturbed("c", (1, 2), 1e-2),
        "perturbed-d": canonical.perturbed("d", (3, 1), -3e-3),
        "signed-zero-and-nan": odd,
    }


@pytest.mark.parametrize("coeffs", list(_monomial_tables().values()), ids=list(_monomial_tables()))
def test_monomials_equal_the_per_term_assembly_bit_for_bit(coeffs, rng):
    # one plaquette per ordered plane and sign reads every coefficient in both orders; past 9 a
    # coordinate sorts before the smaller one ("u10_9_9" < "u9_9_9"), so each key is met in both orders
    planes = [qs.OrientedPlaquette(base=(n, 9, 9), plane=plane, sign=sign)
              for n, (plane, sign) in enumerate(itertools.product(itertools.permutations((1, 2, 3), 2), (1, -1)))]
    every_plane = qs.Surface(plaquettes=planes, interior=frozenset(),
                             boundary=frozenset(v for p in planes for v in p.stencil))
    deformed = [qs.random_deformation(qs.flat_patch(11, 3), rng, int(rng.integers(4, 12))) for _ in range(8)]
    met = {(p.plane, p.sign) for surface in deformed for p in surface.plaquettes}
    assert met == set(itertools.product(((1, 2), (2, 3), (3, 1)), (1, -1)))
    for surface in [every_plane, *deformed]:
        label = _labelled(surface)
        want = engine_rows(_reference_part(coeffs, surface.plaquettes, label))
        assert engine_rows(_plaquette_part(coeffs, surface.plaquettes, label)) == want


def _stacked(signs):
    """The one (1, 2) plaquette at the origin, once per sign, as a surface
    of boundary vertices only."""
    plaqs = tuple(qs.OrientedPlaquette(base=(0, 0, 0), plane=(1, 2), sign=s) for s in signs)
    return qs.Surface(plaquettes=plaqs, interior=frozenset(), boundary=frozenset(plaqs[0].stencil))


def test_plaquette_rows_land_a_negative_zero_cross_term_as_positive_zero(co321):
    # a zero lead coefficient c_12: the u u_1 term is 1.0 * -0.0, which lands as +0.0
    coeffs = replace(co321, c={**co321.c, (1, 2): -0.0})
    surface = _stacked((1,))
    label = _labelled(surface)
    rows = engine_rows(_plaquette_part(coeffs, surface.plaquettes, label))
    assert rows == engine_rows(_reference_part(coeffs, surface.plaquettes, label))
    assert rows["u0_0_0", "u1_0_0"] == rows["u1_0_0", "u0_0_0"] == float_bits(0.0)


def test_plaquette_rows_sum_a_square_before_doubling_it(co321):
    # u gets a_12 / 2 = 8.5e307 twice and then -8.5e307 twice: summed first they cancel to 0.0, where doubling
    # each first would pass through inf
    coeffs = replace(co321, a={**co321.a, (1, 2): 1.7e308, (2, 1): -1.7e308})
    surface = _stacked((1, 1, -1, -1))
    label = _labelled(surface)
    rows = engine_rows(_plaquette_part(coeffs, surface.plaquettes, label))
    assert rows == engine_rows(_reference_part(coeffs, surface.plaquettes, label))
    assert rows["u0_0_0", "u0_0_0"] == float_bits(0.0)


def test_a_nan_coefficient_fails_alike_on_both_feeds(co321):
    coeffs = replace(co321, c={**co321.c, (1, 2): float("nan")})
    popped = qs.pop_up(qs.flat_patch(2, 1), 1)
    label = _labelled(popped)
    interior = [label[v] for v in sorted(popped.interior)]
    errors = []
    for build in (lambda: qs.surface_kernel(popped, coeffs),
                  lambda: marginalize_all(_reference_part(coeffs, popped.plaquettes, label), interior)):
        with pytest.raises(NearCaustic) as info:
            build()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].endswith("is not finite")


@pytest.mark.parametrize("table", ["a", "d"])
def test_antisymmetry_is_enforced(table):
    tables = {
        "a": {(1, 2): 0.0, (2, 1): 0.0},
        "b": {(1, 2): 0.0, (2, 1): 0.0},
        "c": {(1, 2): 1.0, (2, 1): 1.0},
        "d": {(1, 2): 0.0, (2, 1): 0.0},
    }
    tables[table] = {(1, 2): 1.0, (2, 1): 1.0}
    with pytest.raises(DegenerateCoeffs):
        qs.LatticeLagrangianCoeffs(**tables)


def test_pop_up_requires_fresh_space(co321):
    patch = qs.flat_patch(1, 1)
    popped = qs.pop_up(patch, 0)
    # the replacement top plaquette pops freely, but a hand-built plaquette
    # aimed back into the occupied cell must be refused
    back = qs.OrientedPlaquette(base=(0, 0, 1), plane=(1, 2), sign=1)
    idx = popped.plaquettes.index(back)
    sideways = qs.pop_up(popped, idx)
    assert sideways.interior > popped.interior
    stale = qs.Surface(
        plaquettes=popped.plaquettes,
        interior=popped.interior,
        boundary=popped.boundary,
        records=popped.records,
    )
    with pytest.raises(MissingVertex):
        qs.pop_up(qs.pop_up(stale, idx), idx)


def test_pop_up_sites_match_the_five_face_definition(rng):
    # a site is fresh when no corner the five new faces add, those of the
    # removed plaquette aside, is a vertex of the surface already
    def five_face_sites(surface):
        occupied = surface.vertices()
        sites = []
        for idx, plq in enumerate(surface.plaquettes):
            added, _ = qs._pop_pieces(plq)
            if not ({v for face in added for v in face.corners()} - set(plq.corners())) & occupied:
                sites.append(idx)
        return sites

    for _ in range(50):
        k = int(rng.integers(3, 7))
        surface = qs.random_deformation(qs.flat_patch(k, k), rng, int(rng.integers(1, 4 * k)))
        assert qs.pop_up_sites(surface) == five_face_sites(surface)
