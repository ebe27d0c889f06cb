"""Quantum lattice 2-form: surface propagators and local moves.

A surface is a set of oriented unit plaquettes in Z^3.  A plaquette based at
vertex v in the (i, j) plane contributes sign * L_ij(u, u_i, u_j) to the
action, with the three-point Lagrangian

    L_ij(u, u_i, u_j) = u (u_i - u_j) - s_ij (u_i - u_j)^2 / 2,

or a general quadratic coefficient table when supplied.  The surface
propagator integrates the interior field variables out of exp(i S / hbar);
pivots that vanish by the edge-coefficient identity produce symbolic volume
factors, and a delta constraint that would tie two boundary variables
together rejects the Lagrangian.

The deformation moves implemented here are the pop-up (one flat plaquette
replaced by the five exposed faces of a unit cube) and the three standalone
elementary reconfigurations a, b, c; for the closed-form coefficients every
move leaves the exponent of the propagator untouched, which is the surface
independence property, and the coefficient scan shows the property pins the
coefficients uniquely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCoeffs, DeltaConstraintError, MissingVertex
from .oscgauss import AffineConstraint, KernelDiff, OscKernel, compare, marginalize_all
from .params import edge_coefficient

Vertex = tuple[int, int, int]

_UNIT = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
#: Tolerance of uniqueness_scan_2form's branch, condition and move-a tests, scaled by the table's size.
CRITICAL_TOL = 1e-9


def shift(v: Vertex, direction: int) -> Vertex:
    e = _UNIT[direction]
    return (v[0] + e[0], v[1] + e[1], v[2] + e[2])


#: For each plane (i, j), the offsets from a plaquette's base of the four vertices of its popped cell's top
#: square, k the third direction
_TOP = {
    (i, j): (ek, shift(ek, i), shift(ek, j), shift(shift(ek, i), j))
    for i, j, k in itertools.permutations((1, 2, 3))
    for ek in (_UNIT[k],)
}


def _stencil(v: Vertex, i: int, j: int) -> tuple[Vertex, Vertex, Vertex]:
    """The three vertices the Lagrangian of a plaquette at v in the (i, j)
    plane reads: v, v_i and v_j."""
    ei, ej = _UNIT[i], _UNIT[j]
    return v, (v[0] + ei[0], v[1] + ei[1], v[2] + ei[2]), (v[0] + ej[0], v[1] + ej[1], v[2] + ej[2])


def vertex_label(v: Vertex) -> str:
    return f"u{v[0]}_{v[1]}_{v[2]}"


@dataclass(frozen=True)
class OrientedPlaquette:
    """Unit plaquette at `base` spanning directions plane = (i, j).  Its
    stencil, the three vertices the Lagrangian reads (v, v_i, v_j), is
    computed once, when the plaquette is made."""

    base: Vertex
    plane: tuple[int, int]
    sign: int = 1
    stencil: tuple[Vertex, Vertex, Vertex] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        i, j = self.plane
        if i == j or i not in _UNIT or j not in _UNIT:
            raise ValueError(f"bad plane {self.plane!r}")
        if self.sign not in (-1, 1):
            raise ValueError(f"bad sign {self.sign!r}")
        base = self.base
        if type(base) is not tuple:
            base = tuple(base)
            object.__setattr__(self, "base", base)
        if len(base) != 3:
            raise ValueError(f"base must be a 3-vector, got {base!r}")
        object.__setattr__(self, "stencil", _stencil(base, i, j))

    @classmethod
    def _built(cls, base, plane, sign, stencil) -> "OrientedPlaquette":
        """A plaquette from fields checked by its maker, taken as they are:
        base a tuple of 3 ints, plane a tuple of two distinct directions in
        1..3, sign 1 or -1, and stencil _stencil(base, *plane).  On such
        fields __post_init__'s checks pass and its conversion changes
        nothing, so it is skipped."""
        plq = object.__new__(cls)
        plq.__dict__.update(base=base, plane=plane, sign=sign, stencil=stencil)
        return plq

    def corners(self) -> tuple[Vertex, ...]:
        i, j = self.plane
        return (self.base, shift(self.base, i), shift(self.base, j), shift(shift(self.base, i), j))


@dataclass(frozen=True)
class LatticeLagrangianCoeffs:
    """Coefficient tables of a general 3-point quadratic plaquette Lagrangian.

    L_ij = a_ij u^2/2 + b_ij u_i^2/2 - b_ji u_j^2/2
           + c_ij u u_i - c_ji u u_j + d_ij u_i u_j,

    indexed by ordered direction pairs; a and d must be antisymmetric (the
    2-form structure).  The classical classifier reads this type too.  A
    per-direction gauge g (a_ij += g_i - g_j, b_ij += g_j) adds the discrete
    curl of F_i(u) = g_i u^2/2 to L_ij, so it changes surface actions only by
    boundary terms and leaves c, d and e unchanged.
    """

    a: dict[tuple[int, int], float]
    b: dict[tuple[int, int], float]
    c: dict[tuple[int, int], float]
    d: dict[tuple[int, int], float]

    def __post_init__(self):
        for name, table in (("a", self.a), ("d", self.d)):
            for (i, j), v in table.items():
                w = table.get((j, i))
                if w is None or abs(v + w) > 1e-12 * max(1.0, abs(v)):
                    raise DegenerateCoeffs(f"{name} must be antisymmetric at {(i, j)}")

    @property
    def e(self) -> dict[tuple[int, int], float]:
        """e_ij = -(a_ij + b_ij - b_ji)/2, gauge-invariant, antisymmetric like d."""
        return {(i, j): -0.5 * (self.a[(i, j)] + self.b[(i, j)] - self.b[(j, i)]) for i, j in self.b}

    def perturbed(self, table: str, pair: tuple[int, int], eps: float) -> "LatticeLagrangianCoeffs":
        """One-coefficient perturbation; a and d keep their antisymmetry."""
        tables = {"a": dict(self.a), "b": dict(self.b), "c": dict(self.c), "d": dict(self.d)}
        tables[table][pair] = tables[table][pair] + eps
        if table in ("a", "d"):
            i, j = pair
            tables[table][(j, i)] = -tables[table][pair]
        return LatticeLagrangianCoeffs(**tables)

    def lagrangian(self, u: float, ui: float, uj: float, i: int, j: int) -> float:
        return (
            0.5 * self.a[(i, j)] * u * u
            + 0.5 * self.b[(i, j)] * ui * ui
            - 0.5 * self.b[(j, i)] * uj * uj
            + self.c[(i, j)] * u * ui
            - self.c[(j, i)] * u * uj
            + self.d[(i, j)] * ui * uj
        )


def canonical_lattice_coeffs(
    p1: float, p2: float, p3: float, gauge: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> LatticeLagrangianCoeffs:
    """The closed-form coefficient point: c = 1, d_ij = s_ij and, in the
    per-direction gauge g, a_ij = g_i - g_j and b_ij = g_j - s_ij (at the
    default, a = 0 and b = -d)."""
    ps = {1: p1, 2: p2, 3: p3}
    g = dict(zip((1, 2, 3), gauge))
    a, b, c, d = {}, {}, {}, {}
    for i, j in itertools.permutations((1, 2, 3), 2):
        sij = edge_coefficient(ps[i], ps[j])
        a[(i, j)] = g[i] - g[j]
        b[(i, j)] = -(sij - g[j])  # at g_j = 0 exactly -s_ij, signed zero included
        c[(i, j)] = 1.0
        d[(i, j)] = sij
    return LatticeLagrangianCoeffs(a=a, b=b, c=c, d=d)


@dataclass(frozen=True)
class Surface:
    """Oriented plaquettes plus an explicit interior/boundary designation."""

    plaquettes: tuple[OrientedPlaquette, ...]
    interior: frozenset[Vertex]
    boundary: frozenset[Vertex]
    records: tuple = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plaquettes", tuple(self.plaquettes))
        object.__setattr__(self, "interior", frozenset(self.interior))
        object.__setattr__(self, "boundary", frozenset(self.boundary))
        _check_designation(self.referenced(), self.interior, self.boundary)

    @classmethod
    def _built(cls, plaquettes, interior, boundary, records) -> "Surface":
        """A surface from fields that a move or surface_from_dict built and
        checked itself, taken as they are: a tuple of plaquettes whose
        stencils are all designated, and two disjoint frozensets.  On such
        fields __post_init__'s checks pass and its conversions change
        nothing, so it is skipped."""
        surface = object.__new__(cls)
        surface.__dict__.update(plaquettes=plaquettes, interior=interior, boundary=boundary, records=records)
        return surface

    def referenced(self) -> frozenset[Vertex]:
        out: set[Vertex] = set()
        for plq in self.plaquettes:
            out.update(plq.stencil)
        return frozenset(out)

    def vertices(self) -> frozenset[Vertex]:
        return self.interior | self.boundary


def _check_designation(referenced, interior: frozenset[Vertex], boundary: frozenset[Vertex]) -> None:
    """Raise MissingVertex unless interior and boundary are disjoint and
    together hold every referenced vertex."""
    overlap = interior & boundary
    if overlap:
        raise MissingVertex(f"vertices listed as both interior and boundary: {sorted(overlap)}")
    missing = referenced - interior - boundary
    if missing:
        raise MissingVertex(f"referenced vertices not designated: {sorted(missing)}")


def surface_to_dict(surface: Surface) -> dict:
    """JSON-ready description: plaquette list plus the two vertex sets."""
    return {
        "plaquettes": [
            {"base": list(p.base), "plane": list(p.plane), "sign": p.sign}
            for p in surface.plaquettes
        ],
        "interior": [list(v) for v in sorted(surface.interior)],
        "boundary": [list(v) for v in sorted(surface.boundary)],
    }


def _vertex(entry) -> Vertex | None:
    """entry as a vertex if it is a list or tuple of 3 JSON integers (a bool
    is not one), else None."""
    if (type(entry) is list or type(entry) is tuple) and len(entry) == 3:
        x, y, z = entry
        if type(x) is int and type(y) is int and type(z) is int:
            return x, y, z
    return None


def _vertex_set(data: dict, key: str) -> frozenset[Vertex]:
    """The vertices listed under data[key], none if the key is absent."""
    vertices = [_vertex(v) for v in data.get(key, [])]
    if None in vertices:
        bad = data[key][vertices.index(None)]
        raise MissingVertex(f"malformed surface description: {key} vertex {bad!r} is not 3 integers")
    return frozenset(vertices)


def surface_from_dict(data: dict) -> Surface:
    """The surface of a description in surface_to_dict's shape.  Every
    coordinate, plane entry and sign must be a JSON integer (a bool is not
    one), every base and vertex must have 3 entries and every plane 2;
    anything else raises MissingVertex naming the entry.

    One pass: the checks of OrientedPlaquette and Surface run here, in their
    order and with their messages.  Each plaquette's stencil is computed
    once, handed to OrientedPlaquette._built and read by the designation
    check, and the surface comes from Surface._built."""
    try:
        plaqs, referenced = [], set()
        for n, item in enumerate(data["plaquettes"]):
            base, plane, sign = _vertex(item["base"]), item["plane"], item.get("sign", 1)
            if base is None:
                raise MissingVertex(f"malformed surface description: plaquette {n} base {item['base']!r} "
                                    "is not 3 integers")
            if not ((type(plane) is list or type(plane) is tuple) and len(plane) == 2
                    and type(plane[0]) is int and type(plane[1]) is int):
                raise MissingVertex(f"malformed surface description: plaquette {n} plane {plane!r} "
                                    "is not 2 integers")
            if type(sign) is not int:
                raise MissingVertex(f"malformed surface description: plaquette {n} sign {sign!r} is not an integer")
            i, j = plane
            if i == j or i not in _UNIT or j not in _UNIT:
                raise MissingVertex(f"malformed surface description: bad plane {(i, j)!r}")
            if sign != 1 and sign != -1:
                raise MissingVertex(f"malformed surface description: bad sign {sign!r}")
            stencil = _stencil(base, i, j)
            referenced.update(stencil)
            plaqs.append(OrientedPlaquette._built(base, (i, j), sign, stencil))
        interior, boundary = _vertex_set(data, "interior"), _vertex_set(data, "boundary")
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingVertex(f"malformed surface description: {exc}") from exc
    _check_designation(referenced, interior, boundary)
    return Surface._built(tuple(plaqs), interior, boundary, ())


class _Plaquettes(NamedTuple):
    """The Lagrangians of a surface's plaquettes, vertex v named label[v],
    as an engine part: _add_into writes their monomials straight into the
    engine's rows."""

    vars: tuple[str, ...]
    plaquettes: tuple[OrientedPlaquette, ...]
    coeffs: LatticeLagrangianCoeffs
    label: dict[Vertex, str]
    amp: complex
    pihbar_pow: Fraction
    vol_pow: int = 0
    constraints: tuple[AffineConstraint, ...] = ()

    def _add_into(self, rows, at) -> list[int]:
        """Add the plaquettes' monomials into the engine's sparse rows, whose
        position of a name `at` gives, and return the positions of vars.

        Each plaquette adds its six terms in turn: u^2, u_i^2, u_j^2, u u_i,
        u u_j and u_i u_j.  A cross term adds onto its entry in both rows, so
        an entry sums its terms from 0.0 in plaquette order when the part
        comes first in the engine's rows, as the builders hand it.  A square
        sums its terms from 0.0 in plaquette order apart from the rows and
        is then doubled once onto the row: the sums of the monomials in
        plaquette order, bit for bit."""
        coeffs = self.coeffs
        at_vertex = {v: at[name] for v, name in self.label.items()}
        squares: dict[int, float] = {}
        square = squares.get
        # the six coefficients of each (plane, sign) met, in the order they are added
        six: dict[tuple[tuple[int, int], int], tuple[float, ...]] = {}
        for plq in self.plaquettes:
            v, vi, vj = plq.stencil
            u, ui, uj = at_vertex[v], at_vertex[vi], at_vertex[vj]
            plane, sign = plq.plane, plq.sign
            terms = six.get((plane, sign))
            if terms is None:
                (i, j), s = plane, float(sign)
                terms = six[plane, sign] = (
                    0.5 * s * coeffs.a[(i, j)],
                    0.5 * s * coeffs.b[(i, j)],
                    -0.5 * s * coeffs.b[(j, i)],
                    s * coeffs.c[(i, j)],
                    -s * coeffs.c[(j, i)],
                    s * coeffs.d[(i, j)],
                )
            ta, tb, tbr, tc, tcr, td = terms
            squares[u] = square(u, 0.0) + ta
            squares[ui] = square(ui, 0.0) + tb
            squares[uj] = square(uj, 0.0) + tbr
            row = rows[u]
            row[ui] = rows[ui][u] = row.get(ui, 0.0) + tc
            row[uj] = rows[uj][u] = row.get(uj, 0.0) + tcr
            row = rows[ui]
            row[uj] = rows[uj][ui] = row.get(uj, 0.0) + td
        for p, total in squares.items():
            row = rows[p]
            row[p] = row.get(p, 0.0) + 2.0 * total
        return [at[name] for name in self.vars]


def surface_kernel(surface: Surface, coeffs: LatticeLagrangianCoeffs) -> OscKernel:
    """Boundary kernel: interior vertices integrated out of exp(i S / hbar).

    Interior vertices no plaquette reads become symbolic volume factors.  A
    surviving delta constraint ties boundary variables together and raises
    DeltaConstraintError.
    """
    label = {v: vertex_label(v) for v in sorted(surface.vertices())}
    part = _Plaquettes(tuple(label.values()), surface.plaquettes, coeffs, label, 1.0 + 0.0j, Fraction(0))
    kernel = marginalize_all(part, [label[v] for v in sorted(surface.interior)])
    if kernel.constraints:
        raise DeltaConstraintError(
            f"delta constraint ties boundary variables: {kernel.constraints[0].variables()}"
        )
    return kernel


# -- Construction and deformation ------------------------------------------------

def flat_patch(nx: int, ny: int) -> Surface:
    """nx-by-ny flat patch of positively oriented plaquettes in the (1, 2)
    plane from the origin; everything is boundary data until a deformation
    creates interior vertices."""
    plaqs = []
    verts: set[Vertex] = set()
    for a in range(nx):
        for b in range(ny):
            plq = OrientedPlaquette(base=(a, b, 0), plane=(1, 2), sign=1)
            plaqs.append(plq)
            verts.update(plq.corners())
    return Surface(plaquettes=tuple(plaqs), interior=frozenset(), boundary=frozenset(verts))


@dataclass(frozen=True)
class PopRecord:
    """Bookkeeping for one applied pop-up, enough to undo it."""

    removed: OrientedPlaquette
    added: tuple[OrientedPlaquette, ...]
    new_interior: tuple[Vertex, ...]


def _pop_top(plq: OrientedPlaquette) -> tuple[Vertex, ...]:
    """The four vertices of the popped cell's top square, the plaquette
    shifted by one step along the third direction."""
    x, y, z = plq.base
    (a, b, c), (d, e, f), (g, h, i), (j, k, m) = _TOP[plq.plane]
    return (x + a, y + b, z + c), (x + d, y + e, z + f), (x + g, y + h, z + i), (x + j, y + k, z + m)


def _pop_pieces(plq: OrientedPlaquette) -> tuple[tuple[OrientedPlaquette, ...], tuple[Vertex, ...]]:
    i, j = plq.plane
    (k,) = {1, 2, 3} - {i, j}
    s = plq.sign
    v = plq.base
    added = (
        OrientedPlaquette(base=shift(v, i), plane=(j, k), sign=s),
        OrientedPlaquette(base=shift(v, j), plane=(k, i), sign=s),
        OrientedPlaquette(base=shift(v, k), plane=(i, j), sign=s),
        OrientedPlaquette(base=v, plane=(j, k), sign=-s),
        OrientedPlaquette(base=v, plane=(k, i), sign=-s),
    )
    return added, _pop_top(plq)


def pop_up_sites(surface: Surface) -> list[int]:
    """Indices of plaquettes whose popped cell is fresh space."""
    occupied = surface.vertices()
    return [idx for idx, plq in enumerate(surface.plaquettes) if occupied.isdisjoint(_pop_top(plq))]


def pop_up(surface: Surface, index: int) -> Surface:
    """Replace one plaquette by the five exposed faces of a unit cube.

    The four vertices of the new top square become interior; the popped cell
    must be fresh space.  The input is a valid surface, so only what the pop
    adds is checked: the fresh cell, and the stencils of the five new faces.
    """
    plq = surface.plaquettes[index]
    added, new_interior = _pop_pieces(plq)
    if not surface.vertices().isdisjoint(new_interior):
        raise MissingVertex(f"pop target of plaquette {index} is occupied")
    interior = surface.interior.union(new_interior)
    missing = {v for face in added for v in face.stencil} - interior - surface.boundary
    if missing:
        raise MissingVertex(f"referenced vertices not designated: {sorted(missing)}")
    plaqs = surface.plaquettes[:index] + surface.plaquettes[index + 1 :] + added
    rec = PopRecord(removed=plq, added=added, new_interior=new_interior)
    return Surface._built(plaqs, interior, surface.boundary, surface.records + (rec,))


def unpop(surface: Surface) -> Surface:
    """Undo the most recent pop-up.  The record may be hand-made, so the
    result is checked in full."""
    if not surface.records:
        raise MissingVertex("no pop-up to undo")
    rec = surface.records[-1]
    added = set(rec.added)
    plaqs = [p for p in surface.plaquettes if p not in added]
    plaqs.append(rec.removed)
    return Surface(
        plaquettes=tuple(plaqs),
        interior=surface.interior - set(rec.new_interior),
        boundary=surface.boundary,
        records=surface.records[:-1],
    )


def random_deformation(surface: Surface, rng: np.random.Generator, n_ops: int) -> Surface:
    """Apply a random sequence of pop-ups and undos at applicable sites."""
    for _ in range(n_ops):
        do_pop = not surface.records or rng.random() < 0.7
        if do_pop:
            sites = pop_up_sites(surface)
            if not sites:
                surface = unpop(surface)
                continue
            surface = pop_up(surface, int(sites[rng.integers(0, len(sites))]))
        else:
            surface = unpop(surface)
    return surface


# -- Elementary moves -------------------------------------------------------------

_O: Vertex = (0, 0, 0)


def elementary_move_surfaces(move: str) -> tuple[Surface, Surface]:
    """The two standalone configurations of elementary move a, b or c, in
    the orientation (i, j, k) = (1, 2, 3)."""
    i, j, k = 1, 2, 3
    ei, ej, ek = shift(_O, i), shift(_O, j), shift(_O, k)
    eij, eik, ejk = shift(ei, j), shift(ei, k), shift(ej, k)
    if move == "a":
        fan = Surface(
            plaquettes=(
                OrientedPlaquette(base=_O, plane=(i, j), sign=1),
                OrientedPlaquette(base=_O, plane=(j, k), sign=1),
                OrientedPlaquette(base=_O, plane=(k, i), sign=1),
            ),
            interior=frozenset({_O}),
            boundary=frozenset({ei, ej, ek}),
        )
        cap = Surface(
            plaquettes=(
                OrientedPlaquette(base=ek, plane=(i, j), sign=1),
                OrientedPlaquette(base=ei, plane=(j, k), sign=1),
                OrientedPlaquette(base=ej, plane=(k, i), sign=1),
            ),
            interior=frozenset({eij, ejk, eik, shift(eij, k)}),
            boundary=frozenset({ei, ej, ek}),
        )
        return fan, cap
    if move == "b":
        one = Surface(
            plaquettes=(
                OrientedPlaquette(base=_O, plane=(i, j), sign=1),
                OrientedPlaquette(base=_O, plane=(k, i), sign=1),
                OrientedPlaquette(base=ei, plane=(j, k), sign=-1),
            ),
            interior=frozenset({ei}),
            boundary=frozenset({_O, ej, ek, eij, eik}),
        )
        two = Surface(
            plaquettes=(
                OrientedPlaquette(base=ek, plane=(i, j), sign=1),
                OrientedPlaquette(base=ej, plane=(k, i), sign=1),
                OrientedPlaquette(base=_O, plane=(j, k), sign=-1),
            ),
            interior=frozenset({ejk}),
            boundary=frozenset({_O, ej, ek, eij, eik}),
        )
        return one, two
    if move == "c":
        one = Surface(
            plaquettes=(
                OrientedPlaquette(base=ek, plane=(i, j), sign=1),
                OrientedPlaquette(base=ej, plane=(k, i), sign=1),
            ),
            interior=frozenset({ejk, shift(ejk, i)}),
            boundary=frozenset({ej, ek, eij, eik}),
        )
        two = Surface(
            plaquettes=(
                OrientedPlaquette(base=_O, plane=(i, j), sign=1),
                OrientedPlaquette(base=_O, plane=(j, k), sign=1),
                OrientedPlaquette(base=_O, plane=(k, i), sign=1),
                OrientedPlaquette(base=ei, plane=(j, k), sign=-1),
            ),
            interior=frozenset({_O, ei}),
            boundary=frozenset({ej, ek, eij, eik}),
        )
        return one, two
    raise ValueError(f"unknown move {move!r}")


def elementary_move_check(move: str, coeffs: LatticeLagrangianCoeffs) -> KernelDiff:
    """Compare the boundary kernels of the two configurations of one move."""
    one, two = elementary_move_surfaces(move)
    k1 = surface_kernel(one, coeffs)
    k2 = surface_kernel(two, coeffs)
    return compare(k1, k2)


# -- Uniqueness of the surface-independent coefficients ---------------------------

def cyclic_a(coeffs: LatticeLagrangianCoeffs) -> float:
    return coeffs.a[(1, 2)] + coeffs.a[(2, 3)] + coeffs.a[(3, 1)]


def move_a_matrix(coeffs: LatticeLagrangianCoeffs) -> np.ndarray:
    """Quadratic form of the three cap integrations (order u_12, u_23, u_31)."""
    b, d = coeffs.b, coeffs.d
    return np.array(
        [
            [b[(2, 3)] - b[(1, 3)], d[(3, 1)], d[(2, 3)]],
            [d[(3, 1)], b[(3, 1)] - b[(2, 1)], d[(1, 2)]],
            [d[(2, 3)], d[(1, 2)], b[(1, 2)] - b[(3, 2)]],
        ]
    )


def e_minus_d(coeffs: LatticeLagrangianCoeffs) -> float:
    """max |e_ij - d_ij| over the ordered pairs (gauge-invariant); NaN if any entry is."""
    e = coeffs.e
    return float(np.max([abs(e[pair] - coeffs.d[pair]) for pair in e]))


def lambda_of(coeffs: LatticeLagrangianCoeffs) -> float:
    d = coeffs.d
    return d[(1, 2)] * d[(2, 3)] + d[(2, 3)] * d[(3, 1)] + d[(3, 1)] * d[(1, 2)] + 1.0


def uniqueness_scan_2form(coeffs: LatticeLagrangianCoeffs) -> dict:
    """Classify a coefficient point for surface independence under move a.

    Returns the branch data (cyclic a-sum and cap determinant), the critical
    point conditions, and the comparison of the two move-a kernels; a delta
    constraint in either configuration is reported as a rejection.  The
    conditions are gauge-invariant: e = d and a b_ij + d_ij that depends on j
    alone hold exactly when some gauge takes the table to a = 0, b = -d.
    A table with a non-finite entry is not critical: it builds no kernel and
    takes no determinant, and its det_cap and exponent_diff are NaN.
    """
    finite = all(np.isfinite(v) for table in (coeffs.a, coeffs.b, coeffs.c, coeffs.d) for v in table.values())
    ca = cyclic_a(coeffs)
    det = float(np.linalg.det(move_a_matrix(coeffs))) if finite else float("nan")
    c12 = coeffs.c[(1, 2)]
    conditions = {
        "cyclic_a": abs(ca),
        "det_cap": abs(det),
        "e_minus_d": e_minus_d(coeffs),
        "b_plus_d_spread": float(np.max([
            np.ptp([coeffs.b[(i, j)] + coeffs.d[(i, j)] for i in (1, 2, 3) if i != j]) for j in (1, 2, 3)
        ])),
        "c_symmetric": max(abs(coeffs.c[(i, j)] - coeffs.c[(j, i)]) for (i, j) in coeffs.c),
        "c_constant": max(abs(v - c12) for v in coeffs.c.values()),
        "lambda_vs_c": abs(lambda_of(coeffs) - (1.0 - c12 * c12)),
    }
    scale = max(1.0, max(abs(v) for t in (coeffs.b, coeffs.c, coeffs.d) for v in t.values()))
    on_critical_branch = (conditions["cyclic_a"] <= CRITICAL_TOL * scale
                          and conditions["det_cap"] <= CRITICAL_TOL * scale**3)

    delta_rejected = False
    exponent_diff = float("nan")
    if finite:
        try:
            exponent_diff = elementary_move_check("a", coeffs).exponent_diff
        except DeltaConstraintError:
            delta_rejected = True
            exponent_diff = float("inf")

    critical = (
        on_critical_branch
        and not delta_rejected
        and exponent_diff <= CRITICAL_TOL * scale
        and all(
            conditions[name] <= CRITICAL_TOL * scale
            for name in ("e_minus_d", "b_plus_d_spread", "c_symmetric", "c_constant", "lambda_vs_c")
        )
    )
    return {
        "critical": critical,
        "on_critical_branch": on_critical_branch,
        "delta_rejected": delta_rejected,
        "exponent_diff": exponent_diff,
        "conditions": conditions,
    }
