import math

import numpy as np
import pytest

from mdclab import p3, reduction
from mdclab.params import LatticeParams, derive

from conftest import p3_matrices, p3_modes, sample_triples


def test_phase_maps_have_unit_determinant(rng):
    for p, q, r in sample_triples(rng, 20):
        d = derive(LatticeParams(p, q, r))
        assert abs(np.linalg.det(p3.p3_hat_matrix(d.s)) - 1.0) <= 1e-12
        assert abs(np.linalg.det(p3.p3_bar_matrix(d.t, d.tprime)) - 1.0) <= 1e-12


def test_maps_commute(d321, rng):
    assert reduction.commutator_residual(*p3_matrices(d321)) <= 1e-12
    for p, q, r in sample_triples(rng, 10):
        assert reduction.commutator_residual(*p3_matrices(derive(LatticeParams(p, q, r)))) <= 1e-12


def test_zero_state_is_fixed(d321):
    z = np.zeros(4)
    assert np.all(p3.p3_hat_map(z, d321.s) == 0.0)
    assert np.all(p3.p3_bar_map(z, d321.t, d321.tprime) == 0.0)


def test_momenta_definition_is_consistent_with_the_map(d321, rng):
    z = rng.normal(size=4)
    zh = p3.p3_hat_map(z, d321.s)
    # X_i = -dL1/dx_i on the step (x, xh), with dPhi = (2 x1 + x2, x1 + 2 x2)
    X1 = -(zh[0] + zh[1] + 0.5 * d321.s * (2.0 * z[0] + z[1]))
    X2 = -(zh[1] + 0.5 * d321.s * (z[0] + 2.0 * z[1]))
    assert X1 == pytest.approx(z[2], abs=1e-12)
    assert X2 == pytest.approx(z[3], abs=1e-12)


def test_second_order_equations_along_orbits(d321, rng):
    H = p3.p3_hat_matrix(d321.s)
    B = p3.p3_bar_matrix(d321.t, d321.tprime)
    z = rng.normal(size=4)
    states_h = [z]
    states_b = [z]
    for _ in range(60):
        states_h.append(H @ states_h[-1])
        states_b.append(B @ states_b[-1])
    for k in range(1, 59):
        assert p3.p3_hat_equation_residual(
            states_h[k - 1][:2], states_h[k][:2], states_h[k + 1][:2], d321.s
        ) <= 1e-10
        assert p3.p3_bar_equation_residual(
            states_b[k - 1][:2], states_b[k][:2], states_b[k + 1][:2], d321.t, d321.tprime
        ) <= 1e-10


def test_invariants_preserved_by_both_maps(d321, rng):
    H = p3.p3_hat_matrix(d321.s)
    B = p3.p3_bar_matrix(d321.t, d321.tprime)
    z = rng.normal(size=4)
    i0 = p3.p3_invariants(z, d321.s)
    zh = z.copy()
    zb = z.copy()
    for _ in range(100):
        zh = H @ zh
        zb = B @ zb
    for zz in (zh, zb):
        ii = p3.p3_invariants(zz, d321.s)
        assert ii[0] == pytest.approx(i0[0], abs=1e-9)
        assert ii[1] == pytest.approx(i0[1], abs=1e-9)


def test_observables_match_direct_invariants(d321, rng):
    z = rng.normal(size=4)
    i1, i2 = p3.p3_invariants(z, d321.s)
    assert p3.QuadraticObservable.invariant_one()(z) == pytest.approx(i1, abs=1e-13)
    assert p3.QuadraticObservable.invariant_two(d321.s)(z) == pytest.approx(i2, abs=1e-13)


def test_invariants_in_involution_exactly(d321, rng):
    one = p3.QuadraticObservable.invariant_one()
    two = p3.QuadraticObservable.invariant_two(d321.s)
    assert p3.poisson_bracket(one, two) == 0.0
    for p, q, r in sample_triples(rng, 10):
        d = derive(LatticeParams(p, q, r))
        assert p3.poisson_bracket(one, p3.QuadraticObservable.invariant_two(d.s)) == 0.0


def test_bracket_antisymmetry_gives_zero_self_bracket(d321):
    one = p3.QuadraticObservable.invariant_one()
    assert p3.poisson_bracket(one, one) == 0.0


def test_joint_solution_zero_amplitudes(d321):
    assert p3.p3_joint_solution_residual(p3_modes(d321), d321, (0.0, 0.0, 0.0, 0.0)) == 0.0


def test_joint_solution_residual_on_grid(d321, rng):
    amps = tuple(rng.normal(size=4))
    assert p3.p3_joint_solution_residual(p3_modes(d321), d321, amps) <= 1e-8


def test_joint_solution_breaks_under_angle_mismatch(d321):
    # shift nu_plus so cos(nu_plus) moves by about 1e-3
    modes = p3_modes(d321)
    dnu = 1e-3 / abs(math.sin(modes[0].nu))
    res = p3.p3_joint_solution_residual(modes, d321, (1.0, 0.2, -0.4, 0.7), nu_shift=(dnu, 0.0))
    assert res > 1e-5


def _joint_solution_at(m, n, amplitudes, modes, nu_shift):
    """(x1, x2) of the joint field at one grid point, with two scalar np.exp
    calls: the evaluation p3_joint_solution made once per point."""
    x1 = 0.0
    x2 = 0.0
    for mode, re_w, im_w, dnu in (
        (modes[0], amplitudes[0], amplitudes[1], nu_shift[0]),
        (modes[1], amplitudes[2], amplitudes[3], nu_shift[1]),
    ):
        phase = np.exp(1j * (mode.mu * m + (mode.nu + dnu) * n))
        w = complex(re_w, im_w)
        x1 += (w * mode.v[0] * phase).real
        x2 += (w * mode.v[1] * phase).real
    return x1, x2


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (2.5, 0.7, -1.3)])
@pytest.mark.parametrize("nu_shift", [(0.0, 0.0), (1e-3, 0.0), (0.0, -2.5e-2)])
def test_joint_solution_grid_is_the_point_by_point_evaluation_bit_for_bit(point, nu_shift, rng):
    d = derive(LatticeParams(*point))
    modes = p3_modes(d)
    grid = range(-1, 6)
    for amplitudes in ((1.0, 0.2, -0.4, 0.7), tuple(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3, size=4))):
        want = np.array([[_joint_solution_at(m, n, amplitudes, modes, nu_shift) for n in grid] for m in grid])
        got = p3.p3_joint_solution(grid, grid, amplitudes, modes, nu_shift)
        assert got.tobytes() == want.transpose(2, 0, 1).tobytes()
        # the residual on that grid, as it was formed from the per-point values
        x = want.transpose(2, 0, 1)
        cur = x[:, 1:6, 1:6]
        hat = p3.p3_hat_equation_residual(x[:, :5, 1:6], cur, x[:, 2:, 1:6], d.s)
        bar = p3.p3_bar_equation_residual(x[:, 1:6, :5], cur, x[:, 1:6, 2:], d.t, d.tprime)
        residual = p3.p3_joint_solution_residual(modes, d, amplitudes, nu_shift=nu_shift)
        assert residual.hex() == float(np.max((hat, bar), initial=0.0)).hex()


def test_primary_angles_match_their_closed_form(d321, rng):
    for p, q, r in [(3.0, 2.0, 1.0)] + sample_triples(rng, 10):
        d = derive(LatticeParams(p, q, r))
        res = p3.printed_angle_residuals(p3_modes(d), d)
        assert res["cos_mu_plus"] <= 1e-12
        assert res["cos_mu_minus"] <= 1e-12
        # the elimination form reproduces the commuting-map spectrum
        assert res["cos_nu_plus_elimination"] <= 1e-10
        assert res["cos_nu_minus_elimination"] <= 1e-10


def test_quoted_commuting_angles_do_not_match_the_spectrum(d321):
    # documented discrepancy: the quoted closed form for cos(nu) disagrees
    # with the commuting-map eigenvalues; the elimination form is used instead
    res = p3.printed_angle_residuals(p3_modes(d321), d321)
    assert res["cos_nu_plus_quoted"] > 1e-3
    assert res["cos_nu_minus_quoted"] > 1e-3


def test_joint_solution_residual_keeps_a_nan(d321):
    assert math.isnan(p3.p3_joint_solution_residual(p3_modes(d321), d321, (float("nan"), 0.0, 0.0, 0.0)))


def test_equation_residuals_keep_a_nan_second_equation():
    # first equation exactly 0, second NaN: max(0.0, nan) would report 0.0
    assert math.isnan(p3.p3_hat_equation_residual((0.0, float("nan")), (0.0, 0.0), (0.0, 0.0), 0.5))
    # t t' = -1 zeroes (1 + t t'), and 0 * (1e308 + 1e308) is 0 * inf = NaN
    big = (0.0, 1e308)
    assert math.isnan(p3.p3_bar_equation_residual(big, (0.0, 0.0), big, 1.0, -1.0))
