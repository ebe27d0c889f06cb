import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdclab import reduction as red
from mdclab.errors import OutOfRegime
from mdclab.params import LatticeParams, bar_matrix, derive, hat_matrix

from conftest import map_matrices, p3_matrices, sample_triples, square_corners


def u_level_hat_oracle(u, s):
    """Advance the 3-point data one step by solving the implicit update."""
    lhs = np.array([[1.0, -s, s], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rhs = np.array([u[1] , u[2] + s * (u[0] - u[1]), u[0]])
    return np.linalg.solve(lhs, rhs)


def u_level_bar_oracle(u, t, tp):
    lhs = np.array([[1.0, -t, 0.0], [0.0, 1.0, -t], [-tp, 0.0, 1.0]])
    rhs = np.array([u[1] - t * u[0], u[2] - t * u[1], u[0] - tp * u[2]])
    return np.linalg.solve(lhs, rhs)


def test_hat_matrix_matches_u_level_oracle(rng):
    for p, q, r in sample_triples(rng, 25):
        d = derive(LatticeParams(p, q, r))
        u = rng.normal(size=3)
        uh = u_level_hat_oracle(u, d.s)
        want = np.array([uh[1] - uh[0], uh[2] - uh[1]])
        got = hat_matrix(d.s) @ np.array([u[1] - u[0], u[2] - u[1]])
        assert np.max(np.abs(want - got)) <= 1e-12
        ub = u_level_bar_oracle(u, d.t, d.tprime)
        want = np.array([ub[1] - ub[0], ub[2] - ub[1]])
        got = bar_matrix(d.t, d.tprime) @ np.array([u[1] - u[0], u[2] - u[1]])
        assert np.max(np.abs(want - got)) <= 1e-12


def test_hat_matrix_values():
    assert np.allclose(hat_matrix(0.0), [[0.0, 1.0], [-1.0, -1.0]], atol=1e-15)
    assert np.allclose(hat_matrix(0.2), [[-0.36, 0.8], [-0.8, -1.0]], atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(-0.8, 0.8))
def test_hat_matrix_is_area_preserving(s):
    assert np.linalg.det(hat_matrix(s)) == pytest.approx(1.0, abs=1e-12)


def test_bar_matrix_is_area_preserving(rng):
    for p, q, r in sample_triples(rng, 50):
        d = derive(LatticeParams(p, q, r))
        assert abs(np.linalg.det(bar_matrix(d.t, d.tprime)) - 1.0) <= 1e-12


def _second_iterate_residual(state, s):
    """|x_{m+2} + 2 b x_{m+1} + x_m| with b from the map spectrum: the
    second-order form of the hat map."""
    S = hat_matrix(s)
    b = -0.5 * float(np.trace(S))
    x = red.orbit(S, state, 2)[:, 0]
    return abs(x[2] + 2.0 * b * x[1] + x[0])


def test_second_iterate_recurrence(rng):
    for s in (-0.5, 0.0, 0.2, 0.7):
        for _ in range(5):
            assert _second_iterate_residual(rng.normal(size=2), s) <= 1e-13


def test_commutator(d321, rng):
    assert red.commutator_residual(*map_matrices(d321)) <= 1e-14
    # r = q keeps the identity alive (t' = 0, t = s)
    assert red.commutator_residual(*map_matrices(derive(LatticeParams(3.0, 2.0, 2.0)))) <= 1e-14
    # breaking the parameter identity breaks commutativity
    broken = replace(d321, tprime=d321.tprime + 0.01)
    assert red.commutator_residual(*map_matrices(broken)) > 1e-4


def test_corner_residuals_on_composed_data(d321, rng):
    S = hat_matrix(d321.s)
    T = bar_matrix(d321.t, d321.tprime)
    for _ in range(10):
        z = rng.normal(size=2)
        xh, xb, xhb = (S @ z)[0], (T @ z)[0], (T @ S @ z)[0]
        r1, r2 = red.corner_residuals(z[0], xh, xb, xhb, d321)
        assert max(r1, r2) <= 1e-10


def test_corner_residuals_zero_data(d321):
    assert red.corner_residuals(0.0, 0.0, 0.0, 0.0, d321) == (0.0, 0.0)


def test_corner_residual_linear_in_perturbation(d321, rng):
    z = rng.normal(size=2)
    S, T = hat_matrix(d321.s), bar_matrix(d321.t, d321.tprime)
    xh, xb, xhb = (S @ z)[0], (T @ z)[0], (T @ S @ z)[0]
    eps = 1e-3
    _, r2a = red.corner_residuals(z[0], xh, xb, xhb + eps, d321)
    _, r2b = red.corner_residuals(z[0], xh, xb, xhb + 2 * eps, d321)
    assert r2b == pytest.approx(2.0 * r2a, rel=1e-6)


def test_invariant_preserved_along_orbits(d321, rng):
    S = hat_matrix(d321.s)
    T = bar_matrix(d321.t, d321.tprime)
    z = rng.normal(size=2)
    for M, coeff in ((S, d321.b), (T, d321.a)):
        orb = red.orbit(M, z, 100)
        vals = [red.invariant_eval(orb[k, 0], orb[k + 1, 0], coeff) for k in range(100)]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-10
    # each invariant is preserved by the other map as well
    for coeff in (d321.b, d321.a):
        pair0 = (z[0], (S @ z)[0]) if coeff == d321.b else (z[0], (T @ z)[0])
        w = T @ z if coeff == d321.b else S @ z
        Sc = S if coeff == d321.b else T
        pair1 = (w[0], (Sc @ w)[0])
        assert red.invariant_eval(*pair1, coeff) == pytest.approx(
            red.invariant_eval(*pair0, coeff), abs=1e-9
        )


def _orbit_by_matmul(matrix, state, steps):
    """The orbit with one matrix @ z per step, as orbit stepped before."""
    z = np.asarray(state, dtype=float)
    out = np.empty((steps + 1, z.size))
    out[0] = z
    for k in range(steps):
        z = matrix @ z
        out[k + 1] = z
    return out


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (1.0, -0.6, 0.3)])
def test_orbit_is_the_matmul_loop_bit_for_bit(point, rng):
    # the suites' 2x2 maps and 4x4 period-3 maps; (1, -0.6, 0.3) is hyperbolic, and its 300-step orbits grow
    # past 1e200
    d = derive(LatticeParams(*point))
    for matrix in (*map_matrices(d), *p3_matrices(d)):
        z = rng.normal(size=len(matrix))
        got = red.orbit(matrix, z, 300)
        assert got.tobytes() == _orbit_by_matmul(matrix, z, 300).tobytes()
        if d.hyperbolic and len(matrix) == 2:
            assert 1e200 < np.abs(got).max() < math.inf


def test_invariant_zero_state():
    assert red.invariant_eval(0.0, 0.0, 0.33) == 0.0


def test_momenta_agree_and_match_common_invariant(d321, rng):
    S = hat_matrix(d321.s)
    T = bar_matrix(d321.t, d321.tprime)
    z = rng.normal(size=2)
    xh, xb = (S @ z)[0], (T @ z)[0]
    Xb = red.momentum(z[0], xh, d321, "hat")
    Xa = red.momentum(z[0], xb, d321, "bar")
    assert abs(Xa - Xb) <= 1e-10
    # match the proportionality constant at one point, assert elsewhere
    orb = red.orbit(S, z, 40)
    const = red.match_invariant_constant([(orb[0, 0], orb[1, 0])], d321)
    assert const == pytest.approx(2.0 * d321.q**2 / (d321.P + d321.Q) ** 2, rel=1e-12)
    for k in (5, 17, 31):
        X = red.momentum(orb[k, 0], orb[k + 1, 0], d321, "hat")
        lhs = red.invariant_eval(orb[k, 0], orb[k + 1, 0], d321.b)
        assert lhs == pytest.approx(const * red.invariant_common(orb[k, 0], X, d321.P), abs=1e-10)


def test_oneform_closure(d321, rng):
    co = red.closure_coeffs(d321)
    for _ in range(20):
        assert red.oneform_closure_residual(*square_corners(rng.normal(size=2), d321), co) <= 1e-10
    assert red.oneform_closure_residual(*square_corners((0.0, 0.0), d321), co) == 0.0


def test_oneform_closure_needs_the_special_coefficients(d321, rng):
    co = red.closure_coeffs(d321)
    z = rng.normal(size=2)
    bumped = replace(co, a0=co.a0 + 0.01)
    assert red.oneform_closure_residual(*square_corners(z, d321), bumped) > 1e-4


def test_explicit_solution_zero_amplitudes(d321):
    worst = red.solution_residuals(d321, 0.0, 0.0)
    assert all(v == 0.0 for v in worst.values())


def test_explicit_solution_grid(d321):
    worst = red.solution_residuals(d321, 1.0, 0.0)
    assert max(worst.values()) <= 1e-10


@pytest.mark.parametrize("point", [(3.0, 2.0, -1.0), (3.0, -1.0, 2.0), (-1.0, -2.0, -3.0), (2.5, 0.7, -1.3)])
def test_explicit_solution_grid_turns_with_the_signs_of_q_and_r(point):
    # sin(mu) has the sign of q and sin(nu) that of r; the corner equations fail on the unsigned angles
    worst = red.solution_residuals(derive(LatticeParams(*point)), 1.0, -0.4)
    assert max(worst.values()) <= 1e-10


def _hyperbolic_solution(m, A, B, b):
    """Growing/decaying solution A lam^m + B lam^-m with lam = -b + sqrt(b^2-1)."""
    if abs(b) <= 1.0:
        raise OutOfRegime(f"hyperbolic solution needs |b| > 1, got b={b!r}")
    lam = -b + math.copysign(math.sqrt(b * b - 1.0), -b)
    return A * lam**m + B * lam ** (-m)


def _hyperbolic_recurrence_residual(A, B, b, m_range):
    """Max |x_{m+1} + 2 b x_m + x_{m-1}| over m in m_range for the lambda-form solution."""
    lo = min(m_range) - 1
    x = np.array([_hyperbolic_solution(m, A, B, b) for m in range(lo, max(m_range) + 2)])
    i = np.array(m_range) - lo  # x[i] is x at m
    return float(np.max(abs(x[i + 1] + 2 * b * x[i] + x[i - 1])))


def test_hyperbolic_lambda_solution():
    assert _hyperbolic_recurrence_residual(0.4, -1.2, 1.7, range(-3, 6)) <= 1e-12
    with pytest.raises(OutOfRegime):
        _hyperbolic_solution(2, 1.0, 0.0, 0.5)


def test_continuous_flow_zero_mode(d321):
    assert red.continuous_flow_residual(d321.b, 0, 1.0, 2.0) == (0.0, 0.0, 0.0)


def test_continuous_flow_analytic_and_fd(d321):
    fwd, bwd, ode = red.continuous_flow_residual(d321.b, 3, 1.0, 0.0)
    assert max(fwd, bwd, ode) <= 1e-10
    # central differences converge at second order
    assert red.continuous_flow_fd_error(d321.b, 3, 1.0, 0.0, h=1e-5) <= 1e-8
    assert red.continuous_flow_fd_error(d321.b, 3, 1.0, 0.0, h=1e-4) <= 1e-6


def test_continuous_flow_in_the_other_parameter(d321):
    fwd, bwd, ode = red.continuous_flow_residual(d321.a, 2, 0.3, -1.1)
    assert max(fwd, bwd, ode) <= 1e-10


def test_continuous_flow_out_of_regime():
    with pytest.raises(OutOfRegime):
        red.continuous_flow_residual(1.2, 3, 1.0, 0.0)


def test_multiform_zero_solution(d321):
    assert red.continuous_multiform_residual(d321.a, d321.b, 2, 3, 0.0, 0.0) == (0.0, 0.0)


def _continuous_multiform_fd_residual(a, b, m, n, c1, c2):
    """continuous_multiform_residual's two relations with the parameter
    derivatives taken by central finite differences of step 1e-5."""
    h = 1e-5

    def xval(aa, bb):
        return red._joint_xa_xb(aa, bb, m, n, c1, c2)[0]

    xa = (xval(a + h, b) - xval(a - h, b)) / (2 * h)
    xb = (xval(a, b + h) - xval(a, b - h)) / (2 * h)
    r1 = abs(math.sqrt(1 - a * a) * xa / n - math.sqrt(1 - b * b) * xb / m)
    # dL_b/dx = -m x / sqrt(1-b^2) differenced in a, against dL_a/dx differenced in b
    dba = -m * xa / math.sqrt(1 - b * b)
    dab = -n * xb / math.sqrt(1 - a * a)
    return r1, abs(dba - dab)


def test_multiform_residuals_with_fd_cross_check(d321, rng):
    r1, r2 = red.continuous_multiform_residual(d321.a, d321.b, 2, 3, 1.0, 0.0)
    assert max(r1, r2) <= 1e-8
    f1, f2 = _continuous_multiform_fd_residual(d321.a, d321.b, 2, 3, 1.0, 0.0)
    assert max(f1, f2) <= 1e-7
    for _ in range(20):
        c1, c2 = rng.normal(size=2)
        r1, r2 = red.continuous_multiform_residual(d321.a, d321.b, 2, 3, c1, c2)
        assert max(r1, r2) <= 1e-8


def test_solution_residuals_keep_a_nan(d321):
    res = red.solution_residuals(d321, float("nan"), 0.0)
    assert sorted(res) == ["bar", "corner1", "corner2", "hat"]
    assert all(np.isnan(v) for v in res.values())


def test_hyperbolic_recurrence_residual_keeps_a_nan():
    assert np.isnan(_hyperbolic_recurrence_residual(float("nan"), 1.0, 1.7, range(4)))
