import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdclab.errors import DegenerateParams
from mdclab.params import (
    LatticeParams,
    check_sij_identity,
    check_stt_identity,
    derive,
    edge_coefficient,
    edge_params,
    mu_identity_residual,
    printed_constant_residuals,
    reduction_coefficients,
)

from conftest import sample_triples


def test_reduction_coefficients_321():
    s, t, tp = reduction_coefficients(3.0, 2.0, 1.0)
    assert s == 0.2
    assert t == 0.5
    assert tp == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_stt_identity_321_both_sides_are_one_thirtieth():
    s, t, tp = reduction_coefficients(3.0, 2.0, 1.0)
    assert s * t * tp == pytest.approx(1.0 / 30.0, abs=1e-16)
    assert s - t + tp == pytest.approx(1.0 / 30.0, abs=1e-16)
    assert check_stt_identity(3.0, 2.0, 1.0) <= 1e-16


def test_stt_identity_degenerates_to_zero_when_r_equals_q():
    # r = q forces t = s and t' = 0, so both sides vanish identically
    s, t, tp = reduction_coefficients(3.0, 2.0, 2.0)
    assert tp == 0.0
    assert t == s
    assert check_stt_identity(3.0, 2.0, 2.0) == 0.0


def test_stt_identity_sweep(rng):
    worst = max(
        check_stt_identity(p, q, r)
        for p, q, r in sample_triples(rng, 1000)
    )
    assert worst <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(0.5, 3.0),
    q=st.floats(0.5, 3.0),
    r=st.floats(0.5, 3.0),
)
def test_stt_identity_property(p, q, r):
    assert check_stt_identity(p, q, r) <= 1e-12


def test_derived_constants_at_321(d321):
    assert d321.s == 0.2
    assert d321.b == pytest.approx(0.68, abs=1e-14)
    assert d321.a == pytest.approx(10.0 / 11.0, abs=1e-13)
    assert d321.Q == 4.0
    assert d321.P == pytest.approx(21.0, abs=1e-12)
    assert d321.R == pytest.approx(1.0, abs=1e-13)
    # angles from cos(mu) = -b, cos(nu) = -a
    assert d321.mu == pytest.approx(math.acos(-0.68), abs=1e-14)
    assert d321.nu == pytest.approx(math.acos(-10.0 / 11.0), abs=1e-13)
    assert not d321.hyperbolic


def test_derive_is_bitwise_deterministic():
    a = derive(LatticeParams(1.7, 0.9, 2.4))
    b = derive(LatticeParams(1.7, 0.9, 2.4))
    assert a == b


def test_degenerate_sum_raises():
    with pytest.raises(DegenerateParams):
        derive(LatticeParams(1.0, -1.0, 0.5))
    with pytest.raises(DegenerateParams):
        derive(LatticeParams(1.0, 0.5, -0.5))


def test_equal_parameters_allowed_in_derive_but_not_for_edges():
    # p = q only degenerates the edge coefficients; the reduction has s = 0
    # and the map spectrum still gives b = 1/2 (elliptic, mu = 2 pi / 3)
    d = derive(LatticeParams(2.0, 2.0, 1.0))
    assert d.s == 0.0
    assert d.b == pytest.approx(0.5, abs=1e-15)
    assert not d.hyperbolic
    with pytest.raises(DegenerateParams):
        edge_coefficient(2.0, 2.0)
    with pytest.raises(DegenerateParams):
        check_sij_identity(2.0, 2.0, 1.0)


@pytest.mark.parametrize("batch", [False, True])
def test_guard_errors_name_the_first_offending_value_on_one_line(batch):
    # one degenerate pair sits inside each array, at index 1
    def args(*values):
        return tuple(np.array([3.0 + k, v, 1.7 - k]) if batch else v for k, v in enumerate(values))

    with pytest.raises(DegenerateParams) as err:
        reduction_coefficients(*args(1.0, -1.0, 0.5))
    assert str(err.value) == "denominator p+q vanishes: 0.0"
    with pytest.raises(DegenerateParams) as err:
        check_sij_identity(*args(2.0, 2.0, 0.5))
    assert str(err.value) == "edge coefficient undefined for p_i = p_j = 2.0"


def test_hyperbolic_regime_is_flagged_not_fatal():
    d = derive(LatticeParams(1.0, -0.6, 0.3))
    assert d.hyperbolic
    assert abs(d.b) >= 1.0
    assert d.mu is None


def test_edge_coefficients_321_exact():
    ep = edge_params(3.0, 2.0, 1.0)
    assert ep.s[(1, 2)] == 5.0
    assert ep.s[(2, 3)] == 3.0
    assert ep.s[(3, 1)] == -2.0
    # 15 - 6 - 10 + 1 = 0, exactly
    assert ep.lambda_ijk == 0.0
    assert check_sij_identity(3.0, 2.0, 1.0) == 0.0


def test_edge_identity_is_relabeling_invariant():
    assert check_sij_identity(1.0, 2.0, 3.0) <= 1e-15


def test_edge_antisymmetry(rng):
    for p1, p2, p3 in sample_triples(rng, 50):
        ep = edge_params(p1, p2, p3)
        for i, j in ((1, 2), (2, 3), (3, 1)):
            assert ep.s[(i, j)] == -ep.s[(j, i)]


def test_edge_identity_sweep(rng):
    worst = max(check_sij_identity(*t) for t in sample_triples(rng, 1000))
    assert worst <= 1e-12


def test_sin_mu_identity(rng):
    # sin(mu) = 2 q sqrt(P) / (P + Q) holds because Q = q^2
    for p, q, r in sample_triples(rng, 100):
        d = derive(LatticeParams(p, q, r))
        if not d.hyperbolic:
            assert mu_identity_residual(d) <= 1e-12


def test_sin_mu_identity_holds_for_negative_q():
    # mu = acos(-b) lies in [0, pi], so sin(mu) = 2 |q| sqrt(P) / (P + Q) for either sign of q
    for triple in ((-3.0, -2.0, -1.0), (-0.24, -0.12, 0.01)):
        d = derive(LatticeParams(*triple))
        assert not d.hyperbolic
        assert mu_identity_residual(d) <= 1e-12


def test_printed_constant_residuals_flag_the_misprints(d321):
    res = printed_constant_residuals(d321)
    # corrected forms agree with the map spectrum
    assert res["b_halved"] <= 1e-13
    assert res["a_ratio"] <= 1e-13
    assert res["P_with_cross_term"] <= 1e-11
    # quoted one-liners are off by a factor 2 resp. a missing cross term
    assert res["b_unhalved"] == pytest.approx(0.68, abs=1e-12)
    assert res["P_no_cross_term"] == pytest.approx(6.0, abs=1e-11)


def test_bad_hbar_rejected():
    with pytest.raises(DegenerateParams):
        LatticeParams(3.0, 2.0, 1.0, hbar=0.0)
    with pytest.raises(DegenerateParams):
        LatticeParams(3.0, 2.0, float("nan"))
