"""The sparse OscKernel against the dense routes it replaced.

A kernel holds A as its upper-triangle entries.  The dense compare,
canonical_dict and _add_into below, and the engine's dense read-out, are
the code before that change, kept as references: on every kernel the
sparse ones must agree with them bit for bit.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from mdclab import oscgauss as og
from mdclab import qprop1d, qsurface
from mdclab.errors import NearCaustic, VariableMismatch
from mdclab.params import LatticeParams, derive

from conftest import built, float_bits, from_dense, on_surface, same_bits


# -- the dense references ------------------------------------------------------------

def dense_canonical_dict(kernel):
    """canonical_dict over the dense A: the nonzero bits of A by sorted rank, upper triangle."""
    order = np.argsort(np.array(kernel.vars))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    A = kernel.A
    ii, jj = np.nonzero(A.view(np.int64))
    ri, rj = rank[ii], rank[jj]
    upper = ri <= rj
    ri, rj, x = ri[upper], rj[upper], A[ii[upper], jj[upper]]
    by = np.lexsort((rj, ri))
    return {**kernel.canonical_dict(),
            "vars": [kernel.vars[i] for i in order],
            "A": [[i, j, r] for i, j, v in zip(ri[by].tolist(), rj[by].tolist(), x[by].tolist())
                  if (r := v if abs(v) >= 8.0 or (v * 32768.0).is_integer() else round(v, 15))
                  or math.copysign(1.0, r) < 0.0]}


def dense_add_into(kernel, rows, at):
    """OscKernel._add_into over the dense A: each entry np.nonzero finds, row-major."""
    pos = [at[v] for v in kernel.vars]
    A = kernel.A
    ii, jj = np.nonzero(A)
    for i, j, v in zip(ii.tolist(), jj.tolist(), A[ii, jj].tolist()):
        row, j = rows[pos[i]], pos[j]
        row[j] = row.get(j, 0.0) + v
    return pos


def dense_compare(k1, k2):
    """compare over the dense A: delta kernels reduced by on_surface unless a normalized coefficient differs by
    NaN, then k2's A permuted with np.ix_, and the max of |A1 - A2| over every entry."""
    if k1.vars != k2.vars and set(k1.vars) != set(k2.vars):
        raise VariableMismatch(f"variable sets differ: {k1.vars} vs {k2.vars}")
    if len(k1.constraints) != len(k2.constraints):
        raise VariableMismatch("kernels carry different numbers of delta constraints")
    maxima = []
    if k1.constraints:
        cons1, cons2 = (sorted((con.normalized() for con in k.constraints), key=lambda con: con.coeffs)
                        for k in (k1, k2))
        for con1, con2 in zip(cons1, cons2):
            if con1.variables() != con2.variables():
                raise VariableMismatch("delta constraints tie different variables")
            maxima += [abs(a - b) for (_, a), (_, b) in zip(con1.coeffs, con2.coeffs)]
        if not any(map(math.isnan, maxima)):
            k1, k2 = on_surface(k1, k2)
    A1, A2 = k1.A, k2.A
    if k1.vars != k2.vars:
        at = {v: n for n, v in enumerate(k2.vars)}
        perm = [at[v] for v in k1.vars]
        A2 = A2[np.ix_(perm, perm)]
    if A1.size:
        maxima.append(abs(A1 - A2).max())
    exponent_diff = float(total if (total := sum(maxima)) != total else max(maxima) if maxima else 0.0)
    return og.KernelDiff(exponent_diff, k1.amp / k2.amp if k2.amp != 0 else complex("inf"),
                         k1.pihbar_pow - k2.pihbar_pow, k1.vol_pow - k2.vol_pow)


def dense_read_out(rows, at, kept):
    """The engine's read-out before the sparse form: every entry of each live row put into a zeroed m x m A."""
    live = [at[v] for v in kept]
    out, m = dict(zip(live, range(len(live)))), len(live)
    A = np.zeros((m, m))
    A.put([p * m + out[j] for p, i in enumerate(live) for j in rows[i]], [v for i in live for v in rows[i].values()])
    return A


class Spy:
    """An engine part that keeps the engine's rows: the first part of a step list hands on every field of the
    part it wraps, and records the rows and the name positions that its _add_into is given."""

    def __init__(self, part, seen):
        self._part, self._seen = part, seen

    def __getattr__(self, name):
        return getattr(self._part, name)

    def _add_into(self, rows, at):
        self._seen.append((rows, at))
        return self._part._add_into(rows, at)


# -- the kernels -----------------------------------------------------------------------

def random_quadratic(rng, names):
    """Monomials over names, some of them 0.0 or cancelling to an entry of 0.0."""
    quadratic = {}
    for _ in range(int(rng.integers(1, 3 * len(names) + 1))):
        u, w = (names[i] for i in rng.integers(0, len(names), size=2).tolist())
        quadratic[u, w] = float(rng.choice([0.0, rng.normal()]))
    if len(names) > 1:
        quadratic[names[0], names[1]], quadratic[names[1], names[0]] = 0.5, -0.5
    return quadratic


def engine_kernels(rng):
    """(route, build) for each engine route at seeded random input."""
    names = tuple(f"x{i}" for i in rng.permutation(int(rng.integers(2, 9))))
    quadratic, amp = random_quadratic(rng, names), complex(*rng.normal(size=2))
    yield "from_terms", lambda: og.from_terms(names, quadratic, amp)
    kernel = og.from_terms(names, quadratic)
    variables = [v for v in names if rng.random() < 0.5]
    yield "marginalize_all", lambda: og.marginalize_all(kernel, variables)
    other_names = tuple(rng.permutation([*names[:2], *(f"y{i}" for i in range(int(rng.integers(1, 5))))]).tolist())
    other = og.from_terms(other_names, random_quadratic(rng, other_names))
    shared = names[:int(rng.integers(0, 3))]
    yield "glue", lambda: og.glue(kernel, other, shared)
    # a linear variable: integrating it records a delta constraint
    delta = og.from_terms(("x1", "x3", "x5"), {("x1", "x3"): -rng.uniform(0.5, 2.0), ("x5", "x3"): rng.uniform(0.5, 2.0),
                                               ("x1", "x1"): rng.normal(), ("x5", "x5"): rng.normal()})
    yield "delta", lambda: og.marginalize_all(delta, ("x3",))


POINTS = [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (-2.367028322578623, 0.7746489092382554, 2.4986690620264893)]


def builder_kernels(rng):
    """(route, build) for path and surface kernels; the last point makes some paths delta kernels."""
    point = POINTS[int(rng.integers(len(POINTS)))]
    derived = derive(LatticeParams(*point))
    path = qprop1d.random_path(rng, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
    yield "path", lambda: qprop1d.path_kernel(path, derived)
    k = int(rng.integers(1, 6))
    surface = qsurface.random_deformation(qsurface.flat_patch(k, k), rng, 4 * k)
    yield "surface", lambda: qsurface.surface_kernel(surface, qsurface.canonical_lattice_coeffs(*POINTS[0]))


def spied(build):
    """build()'s kernel, and the rows and name positions of its one engine call."""
    seen, engine = [], og._eliminate

    def spy(steps):
        (part, variables), *rest = steps
        return engine(((Spy(part, seen), variables), *rest))

    with mock.patch.object(og, "_eliminate", spy):
        kernel = build()
    [(rows, at)] = seen
    return kernel, rows, at


def constructed_kernels(rng):
    """Kernels of from_dense whose A holds a -0.0 on and off
    the diagonal and +0.0 entries; the same permuted; the same with a delta
    constraint; and a kernel whose entries hold an explicit +0.0 and a -0.0."""
    n = int(rng.integers(2, 7))
    values = rng.choice([0.0, 1.0, -2.5, 1e-17, 7.999999999999999], size=(n, n)) * rng.normal(size=(n, n))
    values[0, 0] = values[0, 1] = -0.0
    A, upper = np.zeros((n, n)), np.triu_indices(n)
    # symmetric bit for bit, so from_dense keeps each entry as it is
    A[upper] = A.T[upper] = values[upper]
    names = tuple(f"v{i}" for i in rng.permutation(n))
    kernel = from_dense(names, A, complex(*rng.normal(size=2)))
    yield kernel
    shuffle = rng.permutation(n)
    yield from_dense(tuple(names[i] for i in shuffle), A[np.ix_(shuffle, shuffle)], kernel.amp)
    con = og.AffineConstraint(((names[0], 1.0), (names[-1], float(rng.choice([-2.0, 0.5])))))
    yield from_dense(names, A, kernel.amp, Fraction(1), 0, (con,))
    yield og.OscKernel._built(names, {(0, 0): 0.0, (0, n - 1): -0.0, (n - 1, n - 1): 1.5}, 1.0 + 0.0j, Fraction(0),
                              0, ())


def rows_bits(rows):
    return [{j: "nan" if x != x else float_bits(x) for j, x in row.items()} for row in rows]


def assert_sparse_equals_dense(kernel, partner):
    """canonical_dict, _add_into onto the partner's rows, and compare both ways against a nudged, permuted copy."""
    assert repr(kernel.canonical_dict()) == repr(dense_canonical_dict(kernel))
    names = sorted(set(kernel.vars) | set(partner.vars))
    at = dict(zip(names, range(len(names))))
    got, want = [{} for _ in names], [{} for _ in names]
    for rows, add in ((got, og.OscKernel._add_into), (want, dense_add_into)):
        partner._add_into(rows, at)
        assert add(kernel, rows, at) == [at[v] for v in kernel.vars]
    assert rows_bits(got) == rows_bits(want)
    shuffle = list(reversed(range(len(kernel.vars))))
    nudged = built(tuple(kernel.vars[i] for i in shuffle), (kernel.A + 1e-3)[np.ix_(shuffle, shuffle)],
                   1.5 * kernel.amp, kernel.pihbar_pow, kernel.vol_pow, kernel.constraints)
    for pair in ((kernel, kernel), (kernel, nudged), (nudged, kernel)):
        try:
            want = repr(dense_compare(*pair))
        except VariableMismatch as exc:
            want = str(exc)
        try:
            got = repr(og.compare(*pair))
        except VariableMismatch as exc:
            got = str(exc)
        assert got == want


@pytest.mark.parametrize("seed", range(40))
def test_the_sparse_routes_equal_the_dense_ones_on_engine_built_kernels(seed):
    # k.A is the matrix the dense read-out fills from the engine's rows
    rng = np.random.default_rng(seed)
    partner = og.from_terms(("x0", "z"), {("x0", "x0"): 0.25, ("x0", "z"): -1.0})
    for route, build in [*engine_kernels(rng), *builder_kernels(rng)]:
        try:
            kernel, rows, at = spied(build)
        except NearCaustic:
            continue
        assert same_bits(kernel.A, dense_read_out(rows, at, kernel.vars)), route
        assert all(i <= j for i, j in kernel.entries), route
        assert_sparse_equals_dense(kernel, partner)


@pytest.mark.parametrize("seed", range(40))
def test_the_sparse_routes_equal_the_dense_ones_on_constructed_kernels(seed):
    rng = np.random.default_rng(seed)
    kernels = list(constructed_kernels(rng))
    for kernel in kernels:
        assert_sparse_equals_dense(kernel, kernels[0])
    # from_dense keeps every upper-triangle entry but a +0.0: a -0.0 is kept
    first = kernels[0]
    assert all(i <= j for i, j in first.entries) and all(x or math.copysign(1.0, x) < 0.0 for x in first.entries.values())
    assert [math.copysign(1.0, first.entries[ij]) for ij in ((0, 0), (0, 1))] == [-1.0, -1.0]
    back = og.OscKernel.from_json(first.to_json())
    assert repr(back.canonical_dict()["A"]) == repr(first.canonical_dict()["A"])


def test_a_nan_reaches_compare_as_the_dense_route_gives_it():
    k1 = og.from_terms(("x", "y", "z"), {("x", "x"): 1.0, ("x", "y"): math.nan, ("z", "z"): 2.0})
    k2 = og.from_terms(("z", "y", "x"), {("x", "x"): 1.0, ("x", "y"): 0.5, ("z", "z"): 2.0})
    con = (og.AffineConstraint((("x", 1.0), ("z", -1.0))),)
    d1, d2 = (built(k.vars, k.A, k.amp, Fraction(1), 0, con) for k in (k1, k2))
    for pair in ((k1, k2), (k2, k1), (k1, k1), (d1, d2), (d2, d1)):
        got = og.compare(*pair)
        assert math.isnan(got.exponent_diff) and repr(got) == repr(dense_compare(*pair))


def test_a_is_a_new_dense_array_on_each_access():
    kernel = og.from_terms(("x", "y"), {("x", "x"): 0.5, ("x", "y"): 2.0})
    first, second = kernel.A, kernel.A
    assert first is not second and (first.dtype, first.shape) == (np.float64, (2, 2))
    first[0, 0] = 7.0
    assert kernel.A[0, 0] == 1.0 and kernel.entries == {(0, 0): 1.0, (0, 1): 2.0}
    assert not any(isinstance(value, np.ndarray) for value in vars(kernel).values())


def _stride_patch(k):
    """flat_patch(k, k) after 2k pop-ups at sites picked by a fixed stride, as kernel_digests.py builds it."""
    surface = qsurface.flat_patch(k, k)
    for n in range(2 * k):
        sites = qsurface.pop_up_sites(surface)
        surface = qsurface.pop_up(surface, sites[(7 * n + k) % len(sites)])
    return surface


def test_a_32_by_32_patch_is_built_compared_and_written_in_less_than_one_dense_a():
    # the boundary has 1089 variables: one dense A of them is 9.5 MB, which nothing on this route may make
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    surface = _stride_patch(32)
    flat = qsurface.surface_kernel(qsurface.flat_patch(32, 32), coeffs)
    tracemalloc.start()
    try:
        kernel = qsurface.surface_kernel(surface, coeffs)
        diff = og.compare(kernel, flat)
        text = kernel.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kernel.vars) == 1089 and diff.exponent_diff <= 1e-12 and text
    assert peak < 1089 * 1089 * 8
