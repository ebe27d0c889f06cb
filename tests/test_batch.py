"""The array call of each sweep and orbit check equals its per-point scalar
calls, bit for bit, and the grid checks evaluate each grid point once."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdclab import lattice, p3, reduction
from mdclab.harness import GUARD_GAP, GUARD_SUM, sample_triples
from mdclab.params import LatticeParams, bar_matrix, check_sij_identity, check_stt_identity, derive, hat_matrix

from conftest import p3_modes

param = st.floats(-5.0, 5.0)
value = st.floats(-10.0, 10.0)


def admissible(triple):
    # clear of the 1e-12 denominator guards, so no call raises
    pairs = ((triple[0], triple[1]), (triple[0], triple[2]), (triple[1], triple[2]))
    return all(abs(a - b) > 1e-9 and abs(a + b) > 1e-9 for a, b in pairs)


points = st.lists(
    st.tuples(st.tuples(param, param, param).filter(admissible), st.tuples(value, value, value, value)),
    min_size=1,
    max_size=30,
)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(points=points)
def test_batch_checks_equal_scalar_checks(points):
    triples = [t for t, _ in points]
    cubes = [u for _, u in points]
    p1, p2, p3 = np.array(triples).T
    u, u1, u2, u3 = np.array(cubes).T

    assert bits(check_stt_identity(p1, p2, p3)) == bits([check_stt_identity(*t) for t in triples])
    assert bits(check_sij_identity(p1, p2, p3)) == bits([check_sij_identity(*t) for t in triples])
    cube = lattice.complete_cube(u, u1, u2, u3, p1, p2, p3)
    scalar_cubes = [lattice.complete_cube(*c, *t) for t, c in points]
    assert bits(lattice.mdc_spread(cube, p1, p2, p3)) == bits(
        [lattice.mdc_spread(c, *t) for t, c in zip(triples, scalar_cubes)]
    )
    for f in fields(cube):
        assert bits(getattr(cube, f.name)) == bits([getattr(c, f.name) for c in scalar_cubes])
    for bump in (0.0, 0.1):
        batch = lattice.closure_residual(replace(cube, u12=cube.u12 + bump), p1, p2, p3)
        scalar = [
            lattice.closure_residual(replace(c, u12=c.u12 + bump), *t)
            for t, c in zip(triples, scalar_cubes)
        ]
        assert bits(batch) == bits(scalar)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(3, 40))
def test_orbit_residuals_equal_per_step_scalar_calls(seed, steps):
    rng = np.random.default_rng(seed)
    d = derive(LatticeParams(*sample_triples(rng, 1, 0.5, 3.0)[0]))
    x = reduction.orbit(hat_matrix(d.s), rng.normal(size=2), steps)[:, 0]
    xb = reduction.orbit(bar_matrix(d.t, d.tprime), rng.normal(size=2), steps)[:, 0]
    pairs = list(zip(x[:-1], x[1:], xb[:-1], xb[1:]))

    X = reduction.momentum(x[:-1], x[1:], d, "hat")
    assert bits(X) == bits([reduction.momentum(a, b, d, "hat") for a, b, _, _ in pairs])
    assert bits(reduction.momentum(xb[:-1], xb[1:], d, "bar")) == bits(
        [reduction.momentum(a, b, d, "bar") for _, _, a, b in pairs]
    )
    assert bits(reduction.invariant_eval(x[:-1], x[1:], d.b)) == bits(
        [reduction.invariant_eval(a, b, d.b) for a, b, _, _ in pairs]
    )
    assert bits(reduction.invariant_common(x[:-1], X, d.P)) == bits(
        [reduction.invariant_common(a, v, d.P) for a, v in zip(x[:-1], X)]
    )
    assert bits(reduction.corner_residuals(x[:-1], x[1:], xb[:-1], xb[1:], d)) == bits(
        np.transpose([reduction.corner_residuals(*pair, d) for pair in pairs])
    )

    z = rng.normal(size=4)
    for orb, residual, constants in (
        (reduction.orbit(p3.p3_hat_matrix(d.s), z, steps), p3.p3_hat_equation_residual, (d.s,)),
        (reduction.orbit(p3.p3_bar_matrix(d.t, d.tprime), z, steps), p3.p3_bar_equation_residual, (d.t, d.tprime)),
    ):
        assert bits(residual(orb[:-2].T, orb[1:-1].T, orb[2:].T, *constants)) == bits(
            [residual(*orb[k:k + 3], *constants) for k in range(steps - 1)]
        )
        assert bits(p3.p3_invariants(orb.T, d.s)) == bits(np.transpose([p3.p3_invariants(row, d.s) for row in orb]))


def test_grid_residuals_evaluate_each_grid_point_once(monkeypatch):
    d = derive(LatticeParams(3.0, 2.0, 1.0))
    points = {"explicit_solution": [], "p3_joint_solution": []}
    for module, name, each in ((reduction, "explicit_solution", lambda m, n: [(m, n)]),
                               (p3, "p3_joint_solution", lambda ms, ns: [(m, n) for m in ms for n in ns])):
        # explicit_solution takes one point, p3_joint_solution the axes of a grid
        def counted(m, n, *args, f=getattr(module, name), seen=points[name], each=each, **kwargs):
            seen.extend(each(m, n))
            return f(m, n, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    modes = p3_modes(d)
    reduction.solution_residuals(d, 0.3, -0.7)
    p3.p3_joint_solution_residual(modes, d, (1.0, 0.2, -0.4, 0.7))
    grid = [(m, n) for m in range(-1, 6) for n in range(-1, 6)]
    assert {name: sorted(seen) for name, seen in points.items()} == {name: grid for name in points}


def per_draw_triples(rng, count, low, high):
    """Reference sampler: one triple drawn and tested at a time."""
    out = []
    while len(out) < count:
        p, q, r = rng.uniform(low, high, size=3)
        pairs = ((p, q), (p, r), (q, r))
        if any(abs(a - b) < GUARD_GAP for a, b in pairs):
            continue
        if any(abs(a + b) < GUARD_SUM for a, b in pairs):
            continue
        out.append((float(p), float(q), float(r)))
    return out


# (-0.3, 0.3) passes only ~4% of draws, nearly all rejections by the sum guard
@pytest.mark.parametrize("low, high", [(0.5, 3.0), (-0.3, 0.3)])
@pytest.mark.parametrize("count", [1, 4, 1000])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_triples_equals_per_draw_sampling(seed, count, low, high):
    batch_rng = np.random.default_rng(seed)
    draw_rng = np.random.default_rng(seed)
    got = sample_triples(batch_rng, count, low, high)
    want = per_draw_triples(draw_rng, count, low, high)
    assert got.shape == (count, 3)
    assert repr(list(map(tuple, got.tolist()))) == repr(want)
    assert batch_rng.random() == draw_rng.random()
