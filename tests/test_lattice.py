from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdclab import lattice, qsurface
from mdclab.errors import DegenerateParams
from mdclab.params import edge_coefficient

from conftest import sample_triples

finite = st.floats(-10.0, 10.0)
param = st.floats(0.5, 3.0)


def three_route_oracle(u, u1, u2, u3, p1, p2, p3):
    """Brute-force: fill all faces and reach the far corner via each start."""
    s = edge_coefficient
    u12 = u - s(p1, p2) * (u1 - u2)
    u23 = u - s(p2, p3) * (u2 - u3)
    u31 = u - s(p3, p1) * (u3 - u1)
    r1 = u1 - s(p2, p3) * (u12 - u31)
    r2 = u2 - s(p3, p1) * (u23 - u12)
    r3 = u3 - s(p1, p2) * (u31 - u23)
    return r1, r2, r3


def test_quad_solve_symmetric_data_is_identity():
    assert lattice.quad_solve(1.3, 0.7, 0.7, 3.0, 2.0) == 1.3


def test_quad_solve_worked_example():
    assert lattice.quad_solve(0.0, 1.0, 0.0, 3.0, 2.0) == -5.0


def test_quad_solve_degenerate_parameters():
    with pytest.raises(DegenerateParams):
        lattice.quad_solve(0.0, 1.0, 0.0, 2.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(u=finite, ui=finite, uj=finite, pi=param, pj=param)
def test_quad_solve_inverts(u, ui, uj, pi, pj):
    if abs(pi - pj) < 0.1:
        return
    uij = lattice.quad_solve(u, ui, uj, pi, pj)
    # solving the same plaquette relation for the near corner returns u
    assert lattice.quad_solve(uij, uj, ui, pi, pj) == pytest.approx(u, abs=1e-9)


def test_routes_match_brute_force_oracle(rng):
    for p1, p2, p3 in sample_triples(rng, 20):
        data = rng.normal(size=4)
        cube = lattice.complete_cube(*data, p1, p2, p3)
        assert lattice.u123_routes(cube, p1, p2, p3) == three_route_oracle(*data, p1, p2, p3)


def test_consistency_spread(rng):
    worst = 0.0
    for p1, p2, p3 in sample_triples(rng, 100):
        for _ in range(10):
            u, u1, u2, u3 = rng.normal(size=4)
            cube = lattice.complete_cube(u, u1, u2, u3, p1, p2, p3)
            worst = max(worst, lattice.mdc_spread(cube, p1, p2, p3))
    assert worst <= 1e-12


@pytest.mark.parametrize("routes", [(float("nan"), 1.0, 2.0), (1.0, float("nan"), 2.0), (1.0, 2.0, float("nan"))])
def test_spread_lets_a_nan_route_through(monkeypatch, routes):
    # max(routes) - min(routes) dropped a NaN in the second or third route
    monkeypatch.setattr(lattice, "u123_routes", lambda *args: routes)
    assert np.isnan(lattice.mdc_spread(lattice.complete_cube(0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 1.0), 3.0, 2.0, 1.0))


def test_lagrangian_vanishes_on_equal_neighbours():
    assert lattice.lagrangian_2form(0.9, 1.4, 1.4, 3.0, 2.0) == 0.0


def test_lagrangian_worked_example():
    # 1*(1-0) - (5/2)*1 = -1.5
    assert lattice.lagrangian_2form(1.0, 1.0, 0.0, 3.0, 2.0) == -1.5


@settings(max_examples=100, deadline=None)
@given(u=finite, ui=finite, uj=finite, pi=param, pj=param)
def test_lagrangian_antisymmetry(u, ui, uj, pi, pj):
    if abs(pi - pj) < 0.1:
        return
    fwd = lattice.lagrangian_2form(u, ui, uj, pi, pj)
    bwd = lattice.lagrangian_2form(u, uj, ui, pj, pi)
    assert fwd + bwd == pytest.approx(0.0, abs=1e-9)


def test_closure_zero_field():
    cube = lattice.complete_cube(0.0, 0.0, 0.0, 0.0, 3.0, 2.0, 1.0)
    assert lattice.closure_residual(cube, 3.0, 2.0, 1.0) == 0.0


def test_closure_on_shell_and_off_shell(rng):
    onshell = 0.0
    offshell = []
    for p1, p2, p3 in sample_triples(rng, 100):
        u, u1, u2, u3 = rng.normal(size=4)
        cube = lattice.complete_cube(u, u1, u2, u3, p1, p2, p3)
        onshell = max(onshell, lattice.closure_residual(cube, p1, p2, p3))
        bumped = replace(cube, u12=cube.u12 + 0.1)
        offshell.append(lattice.closure_residual(bumped, p1, p2, p3))
    assert onshell <= 1e-10
    assert np.median(offshell) >= 1e-3


def test_el_corner_on_shell_and_zero_field(rng, d321):
    u, u1, u2 = rng.normal(size=3)
    u12 = lattice.quad_solve(u, u1, u2, 3.0, 2.0)
    assert lattice.el_corner_residual(u, u1, u2, u12, 3.0, 2.0) <= 1e-12
    assert lattice.el_corner_residual(0.0, 0.0, 0.0, 0.0, 3.0, 2.0) == 0.0


def test_el_corner_linear_in_perturbation(rng):
    u, u1, u2 = rng.normal(size=3)
    u12 = lattice.quad_solve(u, u1, u2, 3.0, 2.0)
    r1 = lattice.el_corner_residual(u, u1, u2, u12 + 0.01, 3.0, 2.0)
    r2 = lattice.el_corner_residual(u, u1, u2, u12 + 0.02, 3.0, 2.0)
    assert r1 > 1e-4
    assert r2 == pytest.approx(2.0 * r1, rel=1e-9)


def test_classify_canonical_coefficients():
    # every gauge of the canonical tables is admissible, including the shift
    # of all g_i by 1; a-tables of one gauge with b-tables of the shifted one
    # are the same tables up to rounding and must classify the same
    gauges = ((0.0, 0.0, 0.0), (0.3, -0.7, 0.2), (1.3, 0.3, 1.2), (0.4, -0.2, 1.0))
    tables = [qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=g) for g in gauges]
    tables.append(replace(tables[1], a=tables[2].a))
    for coeffs in tables:
        out = lattice.classify_general_quad_lagrangian(coeffs)
        assert out == {"symmetric_quad": True, "closure_ok": True}


def test_classify_rejects_mismatched_c():
    good = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    bad = replace(good, c={(i, j): 1.1 if i == 2 else 1.0 for i, j in good.c})
    out = lattice.classify_general_quad_lagrangian(bad)
    assert not out["symmetric_quad"]


def test_classify_rejects_broken_b_tables(rng):
    good = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0)
    b = dict(good.b)
    b[(1, 2)] += 0.3
    b[(2, 3)] -= 0.1
    out = lattice.classify_general_quad_lagrangian(replace(good, b=b))
    assert not out["closure_ok"]


def test_classify_fails_on_nan_coefficients():
    coeffs = qsurface.canonical_lattice_coeffs(3.0, 2.0, 1.0, gauge=(float("nan"), 0.0, 0.0))
    assert lattice.classify_general_quad_lagrangian(coeffs) == {"symmetric_quad": False, "closure_ok": False}
