import cmath
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdclab import oscgauss as og
from mdclab import qprop1d as qp
from mdclab.errors import CausticError, DegenerateCoeffs, NearCaustic, OutOfRegime
from mdclab.harness import DEFAULT_TOLERANCES
from mdclab.oscgauss import compare, glue
from mdclab.params import LatticeParams, derive
from mdclab.reduction import OscillatorCoeffs, closure_coeffs

from conftest import coeff, engine_rows, exponent, float_bits, sample_triples, with_fields


def test_one_step_kernel_exact_values(d321):
    k = qp.one_step_kernel("hat", d321)
    assert coeff(k, "xa", "xb") == pytest.approx(12.5, abs=1e-12)
    assert coeff(k, "xa", "xa") == pytest.approx(4.25, abs=1e-13)
    assert coeff(k, "xb", "xb") == pytest.approx(4.25, abs=1e-13)
    # amplitude modulus sqrt((P+Q)/(2 pi hbar q)) = sqrt(25 / 4 pi)
    modulus = abs(k.amp) * (2 * math.pi) ** float(k.pihbar_pow)
    assert modulus == pytest.approx(math.sqrt(25.0 / (4.0 * math.pi)), abs=1e-12)
    assert cmath.phase(k.amp) == pytest.approx(math.pi / 4, abs=1e-15)


def test_one_step_kernel_is_symmetric(d321):
    k = qp.one_step_kernel("hat", d321)
    assert k.A[0, 0] == k.A[1, 1]
    assert k.A[0, 1] == k.A[1, 0]


def test_one_step_kernel_requires_elliptic_regime():
    d = derive(LatticeParams(1.0, -0.6, 0.3))
    with pytest.raises(OutOfRegime):
        qp.one_step_kernel("hat", d)


def test_path_kernel_refuses_a_negative_step_prefactor_as_one_step_kernel_does():
    # (3, 2, -1) is elliptic, but (P + R)/r < 0 makes the bar step amplitude the root of a negative number
    d = derive(LatticeParams(3.0, 2.0, -1.0))
    with pytest.raises(OutOfRegime):
        qp.one_step_kernel("bar", d)
    with pytest.raises(OutOfRegime):
        qp.path_kernel(qp.TimePath(("+hat", "+bar")), d)
    assert compare(qp.path_kernel(qp.TimePath(("+hat",)), d), qp.one_step_kernel("hat", d)).exponent_diff == 0.0


def test_factorized_step_reproduces_one_step(d321):
    for direction in ("hat", "bar"):
        diff = compare(
            qp.momentum_factorized_kernel(d321, direction),
            qp.one_step_kernel(direction, d321),
        )
        assert diff.exponent_diff <= 1e-12
        assert diff.amp_ratio_error <= 1e-12
        assert diff.pihbar_diff == 0


def test_factorized_step_zero_potential_is_a_fourier_pair(d321):
    k = qp.momentum_factorized_kernel(d321, zero_potential=True)
    plus = d321.P + d321.Q
    assert coeff(k, "xa", "xa") == pytest.approx(-plus / (2 * d321.q), abs=1e-12)
    assert coeff(k, "xb", "xb") == pytest.approx(-plus / (2 * d321.q), abs=1e-12)
    assert coeff(k, "xa", "xb") == pytest.approx(plus / d321.q, abs=1e-12)


def test_factorized_step_parameter_sweep(rng):
    worst = 0.0
    for p, q, r in sample_triples(rng, 100):
        d = derive(LatticeParams(p, q, r))
        if d.hyperbolic:
            continue
        diff = compare(qp.momentum_factorized_kernel(d), qp.one_step_kernel("hat", d))
        worst = max(worst, diff.exponent_diff)
    assert worst <= 1e-11


def test_closed_form_reduces_to_one_step_at_n1(d321):
    diff = compare(qp.multi_time_closed_form(1, 0, d321), qp.one_step_kernel("hat", d321))
    assert diff.exponent_diff <= 1e-12
    assert diff.amp_ratio_error <= 1e-12


def test_iterated_kernel_matches_closed_form(d321):
    for n in range(1, 21):
        diff = compare(qp.n_step_kernel(n, d321), qp.multi_time_closed_form(n, 0, d321))
        assert diff.exponent_diff <= 1e-9
        assert diff.amp_ratio_error <= 1e-10
        assert diff.pihbar_diff == 0 and diff.vol_diff == 0


def test_tridiagonal_determinant_n2_value(d321):
    assert qp.tridiagonal_det(2, d321, 1.0) == pytest.approx(-8.5j, abs=1e-12)


def test_tridiagonal_recursion_matches_closed_form(d321):
    for n in range(1, 21):
        rec = qp.tridiagonal_det(n, d321, 1.0)
        closed = qp.tridiagonal_det_closed_form(n, d321, 1.0)
        assert abs(rec - closed) <= 1e-12 * abs(closed)


def test_tridiagonal_recursion_forms_no_square_it_does_not_use_at_a_tiny_hbar(d321):
    # b^2 overflows at hbar = 1e-300, where the n = 1 and n = 2 values are finite
    for n in (1, 2):
        rec = qp.tridiagonal_det(n, d321, 1e-300)
        closed = qp.tridiagonal_det_closed_form(n, d321, 1e-300)
        assert cmath.isfinite(closed) and abs(rec - closed) <= 1e-12 * abs(closed)


def test_tridiagonal_determinants_refuse_fewer_than_one_step(d321):
    # the recursion used to return the n = 2 value here, the closed form 0 or 0.0256
    for n in (0, -1):
        for det in (qp.tridiagonal_det, qp.tridiagonal_det_closed_form):
            with pytest.raises(ValueError, match="at least one step"):
                det(n, d321, 1.0)


def test_tridiagonal_parity_pattern(d321):
    # the base is purely imaginary, so the determinant alternates between
    # real and imaginary with the matrix size
    for n in range(2, 12):
        val = qp.tridiagonal_det(n, d321, 1.0)
        if (n - 1) % 2 == 0:
            assert abs(val.imag) <= 1e-12 * abs(val)
        else:
            assert abs(val.real) <= 1e-12 * abs(val)


def test_corner_swap(d321):
    k_lr = qp.path_kernel(qp.TimePath(("+hat", "+bar")), d321)
    k_ul = qp.path_kernel(qp.TimePath(("+bar", "+hat")), d321)
    diff = compare(k_lr, k_ul)
    assert diff.exponent_diff <= 1e-10
    assert diff.amp_ratio_error <= 1e-10


def test_three_sides_of_a_square_regain_the_single_step(d321):
    k_sq = qp.path_kernel(qp.TimePath(("+bar", "+hat", "-bar")), d321)
    diff = compare(k_sq, qp.one_step_kernel("hat", d321))
    assert diff.exponent_diff <= 1e-10
    assert diff.amp_ratio_error <= 1e-10
    assert diff.pihbar_diff == 0 and diff.vol_diff == 0


def _displacement(path):
    """Net (hat, bar) step counts of a time path."""
    return tuple(path.steps.count(f"+{d}") - path.steps.count(f"-{d}") for d in ("hat", "bar"))


def test_loop_insertion_leaves_the_kernel_unchanged(d321):
    base = qp.TimePath(("+hat", "+hat"))
    looped = base.with_loop(1)
    assert _displacement(looped) == _displacement(base)
    diff = compare(qp.path_kernel(looped, d321), qp.path_kernel(base, d321))
    assert diff.exponent_diff <= 1e-10
    assert diff.amp_ratio_error <= 1e-10


def test_forward_backward_pair_is_a_delta(d321):
    k = qp.path_kernel(qp.TimePath(("+hat", "-hat")), d321)
    assert len(k.constraints) == 1
    con = k.constraints[0].normalized()
    assert dict(con.coeffs) == pytest.approx({"xa": 1.0, "xb": -1.0})
    # net weight is exactly delta(xa - xb): amp carries the delta scaling
    assert k.pihbar_pow == 0
    assert k.amp == pytest.approx((d321.P + d321.Q) / d321.q, abs=1e-10)
    assert exponent(k, {"xa": 0.37, "xb": 0.37}) == pytest.approx(0.0, abs=1e-12)


def test_monotone_and_backtracking_paths_match_multi_time(d321, rng):
    target = qp.multi_time_closed_form(3, 2, d321)
    bars_first = qp.TimePath(("+bar", "+bar", "+hat", "+hat", "+hat"))
    for path in (qp.TimePath.monotone(3, 2), bars_first):
        diff = compare(qp.path_kernel(path, d321), target)
        assert diff.exponent_diff <= 1e-9
    two_back = qp.TimePath(("+hat", "-hat", "+hat", "+bar", "-bar", "+hat", "+bar", "+hat", "+bar"))
    assert _displacement(two_back) == (3, 2)
    diff = compare(qp.path_kernel(two_back, d321), target)
    assert diff.exponent_diff <= 1e-9
    assert diff.amp_ratio_error <= 1e-10


def test_random_paths_are_path_independent(d321, rng):
    target = qp.multi_time_closed_form(2, 2, d321)
    for _ in range(25):
        path = qp.random_path(rng, 2, 2)
        assert _displacement(path) == (2, 2)
        diff = compare(qp.path_kernel(path, d321), target)
        assert diff.exponent_diff <= 1e-9
        assert diff.amp_ratio_error <= 1e-10


def test_group_property(d321):
    k_hat = with_fields(qp.multi_time_closed_form(3, 0, d321), vars=("xa", "xm"))
    k_bar = with_fields(qp.multi_time_closed_form(0, 2, d321), vars=("xm", "xb"))
    diff = compare(glue(k_hat, k_bar, ("xm",)), qp.multi_time_closed_form(3, 2, d321))
    assert diff.exponent_diff <= 1e-12
    assert diff.amp_ratio_error <= 1e-12


def test_caustics_raise_consistently_and_pass_through():
    d = derive(LatticeParams(2.0, 2.0, 1.0))  # s = 0 so mu = 2 pi / 3
    assert d.mu == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    for n in (3, 6):
        with pytest.raises(CausticError):
            qp.n_step_kernel(n, d)
        with pytest.raises(CausticError):
            qp.multi_time_closed_form(n, 0, d)
    # away from the final caustic the iteration crosses the intermediate
    # delta kernel exactly
    for n in (4, 5, 7):
        diff = compare(qp.n_step_kernel(n, d), qp.multi_time_closed_form(n, 0, d))
        assert diff.exponent_diff <= 1e-9
        assert diff.amp_ratio_error <= 1e-10


def _glue_fold(n, derived, direction):
    """n one-step kernels glued in sequence, one glue call per link."""
    names = ("xa", *(f"s{k}" for k in range(1, n)), "xb")
    step = qp.one_step_kernel(direction, derived)
    acc = with_fields(step, vars=names[:2])
    for k in range(1, n):
        acc = glue(acc, with_fields(step, vars=names[k:k + 2]), shared=(names[k],))
    return acc


def _fields(k):
    return k.vars, k.A.tobytes(), repr((k.amp, k.constraints)), k.pihbar_pow, k.vol_pow


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (2.0, 2.0, 1.0)])
@pytest.mark.parametrize("direction", ["hat", "bar"])
def test_n_step_kernel_is_byte_equal_to_a_glue_fold(point, direction):
    # at (2, 2, 1) mu = 2 pi / 3, so the chain crosses exact intermediate caustics as delta steps
    d = derive(LatticeParams(*point))
    # n = 1 is one engine step with nothing to integrate, the step from_terms hands the engine for one_step_kernel
    assert qp.n_step_kernel(1, d, direction).to_json() == qp.one_step_kernel(direction, d).to_json()
    for n in range(1, 61):
        try:
            got = qp.n_step_kernel(n, d, direction)
        except CausticError:
            assert point == (2.0, 2.0, 1.0) and n % 3 == 0
            continue
        assert _fields(got) == _fields(_glue_fold(n, d, direction))


def test_n_step_kernel_makes_one_engine_call_and_builds_no_dense_step(d321, monkeypatch):
    engine, calls = og._eliminate, []

    def counted(steps):
        calls.append(len(steps))
        return engine(steps)

    def refused(*args, **kwargs):
        raise AssertionError("n_step_kernel built a dense kernel")

    for module in (og, qp):
        monkeypatch.setattr(module, "_eliminate", counted)
        monkeypatch.setattr(module, "from_terms", refused)
    qp.n_step_kernel(20, d321)
    assert calls == [20]


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (2.0, 2.0, 1.0)])
@pytest.mark.parametrize("direction", ["hat", "bar"])
def test_n_step_kernels_are_n_step_kernel_bit_for_bit(point, direction):
    # at (2, 2, 1) every third hat length is a caustic: the lengths skip those, and the chains between the kept
    # lengths cross them as exact delta steps
    d = derive(LatticeParams(*point))
    caustic = point == (2.0, 2.0, 1.0) and direction == "hat"
    for lengths in (range(1, 61), (1, 2, 5, 12, 20), (7,)):
        lengths = [n for n in lengths if not (caustic and n % 3 == 0)]
        got = qp.n_step_kernels(lengths, d, direction)
        assert [_fields(k) for k in got] == [_fields(qp.n_step_kernel(n, d, direction)) for n in lengths]


def test_n_step_kernels_start_each_chain_from_the_previous_kernel(d321, monkeypatch):
    engine, calls = og._eliminate, []

    def counted(steps):
        calls.append([type(part).__name__ for part, _ in steps])
        return engine(steps)

    monkeypatch.setattr(qp, "_eliminate", counted)
    qp.n_step_kernels((1, 2, 5, 12, 20), d321, "hat")
    # 20 one-step parts in all, each length after the first starting from the kernel before it
    assert calls == [["_Terms"], *(["OscKernel"] + ["_Terms"] * k for k in (1, 3, 7, 8))]


def test_n_step_kernels_refuse_bad_lengths_before_building_anything(monkeypatch):
    def refused(steps):
        raise AssertionError("n_step_kernels built a kernel")

    monkeypatch.setattr(qp, "_eliminate", refused)
    d = derive(LatticeParams(2.0, 2.0, 1.0))  # mu = 2 pi / 3: lengths 3 and 6 are caustics
    with pytest.raises(CausticError, match=f"caustic at total angle {3 * d.mu!r}"):
        qp.n_step_kernels((1, 2, 3, 6), d, "hat")
    for lengths in ((0, 1), (), (2, 2), (5, 4)):
        with pytest.raises(ValueError):
            qp.n_step_kernels(lengths, d, "hat")
    with pytest.raises(ValueError, match="need at least one step"):
        qp.n_step_kernel(0, d)


def test_with_loop_takes_a_visit_position_only():
    path = qp.TimePath(("+hat", "+bar", "+hat"))
    loop = ("+hat", "+bar", "-hat", "-bar")
    assert path.with_loop(0).steps == loop + path.steps
    assert path.with_loop(1).steps == path.steps[:1] + loop + path.steps[1:]
    assert path.with_loop(3).steps == path.steps + loop
    for position in (-1, 4):
        with pytest.raises(ValueError, match=f"loop position {position} outside 0..3"):
            path.with_loop(position)


def _step_terms_reference(steps, cf, names):
    """The exponent monomials of the one-step Lagrangians along a walk whose
    k-th step runs from names[k] to names[k + 1], keyed (early, late) and
    each summed from 0.0 in step order: every step evaluates its three
    coefficients and adds them through a helper."""
    quad = {}

    def add(pair, value):
        quad[pair] = quad.get(pair, 0.0) + value

    for k, step in enumerate(steps):
        cur, nxt = names[k], names[k + 1]
        forward = step.startswith("+")
        if step[1:] == "hat":
            lead, d_par, d0 = cf.beta, cf.b, cf.b0
        else:
            lead, d_par, d0 = cf.alpha, cf.a, cf.a0
        sign = 1.0 if forward else -1.0
        early, late = (cur, nxt) if forward else (nxt, cur)
        add((early, late), sign * lead)
        add((early, early), sign * lead * (d_par - d0))
        add((late, late), sign * lead * d0)
    return quad


@st.composite
def walks_and_coeffs(draw):
    """A walk that takes every step kind at least once, and OscillatorCoeffs
    of which at least one is -0.0."""
    steps = draw(st.permutations([*qp.STEPS, *draw(st.lists(st.sampled_from(qp.STEPS), max_size=60))]))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    values[draw(st.integers(0, 5))] = -0.0
    return tuple(steps), OscillatorCoeffs(*values)


def _path_part(steps, cf, names):
    """path_kernel's engine part for a walk, exponent only."""
    return qp._PathSteps(names, tuple(steps), cf, 1.0 + 0.0j, Fraction(0))


def _reference_part(steps, cf, names):
    """The reference monomials of a walk in the form from_terms takes, which
    the engine adds as _Terms._add_into does."""
    return og._Terms(names, _step_terms_reference(steps, cf, names), 1.0 + 0.0j, Fraction(0))


def _names(steps):
    return ("xa", *(f"t{k}" for k in range(1, len(steps))), "xb")


@settings(max_examples=200, deadline=None)
# a zero leading coefficient with each sign, and a one-step walk back and forth in each direction
@example((("+hat", "-hat", "+bar", "-bar"), OscillatorCoeffs(-0.0, 0.0, 0.5, -0.0, 1.25, -0.75)))
@given(walks_and_coeffs())
def test_step_terms_are_the_per_step_expressions_bit_for_bit(case):
    # the rows path_kernel's part writes are those of the per-step monomials, assembled as _Terms._add_into does
    steps, cf = case
    names = _names(steps)
    assert engine_rows(_path_part(steps, cf, names)) == engine_rows(_reference_part(steps, cf, names))


def test_path_rows_land_a_negative_zero_cross_term_as_positive_zero():
    # zero lead coefficients: a forward step's cross term is 1.0 * -0.0, which lands as +0.0, as 0.0 + (0.0 + -0.0)
    steps, cf = ("+hat", "+bar", "-hat"), OscillatorCoeffs(-0.0, -0.0, 0.5, 0.25, 1.25, -0.75)
    names = _names(steps)
    rows = engine_rows(_path_part(steps, cf, names))
    assert rows == engine_rows(_reference_part(steps, cf, names))
    assert rows["xa", "t1"] == rows["t1", "xa"] == rows["t1", "t2"] == float_bits(0.0)


def test_path_rows_sum_a_square_before_doubling_it():
    # t1 gets +1.5e308 from the step that arrives and -1.5e308 from the one that leaves: summed first they
    # cancel to 0.0, where doubling each first would give inf - inf
    steps, cf = ("+hat", "-hat"), OscillatorCoeffs(1.0, 1.0, 0.5, 1.5e308, 1.25, 1.5e308)
    names = _names(steps)
    rows = engine_rows(_path_part(steps, cf, names))
    assert rows == engine_rows(_reference_part(steps, cf, names))
    assert rows["t1", "t1"] == float_bits(0.0)


def test_a_nan_coefficient_fails_alike_on_both_feeds(d321):
    steps = ("+hat", "+bar", "-hat", "+hat", "+bar")
    names = _names(steps)
    cf = replace(qp.path_independent_coeffs(d321.a, d321.b), b0=float("nan"))
    errors = []
    for build in (lambda: qp.path_kernel(qp.TimePath(steps), d321, cf),
                  lambda: og.marginalize_all(_reference_part(steps, cf, names), names[1:-1])):
        with pytest.raises(NearCaustic) as info:
            build()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (NearCaustic, "pivot for 't1' is not finite")


def test_path_independence_uses_the_closure_coefficients(d321):
    co = closure_coeffs(d321)
    diff = qp.uniqueness_scan_1form(d321, co)
    assert diff.exponent_diff <= DEFAULT_TOLERANCES["uniq1d_pass"]
    assert abs(diff.amp_ratio - 1.0) <= 1e-12


def test_uniqueness_scan_canonical_family(d321):
    co = qp.path_independent_coeffs(d321.a, d321.b, gamma=1.0)
    assert qp.uniqueness_scan_1form(d321, co).exponent_diff <= DEFAULT_TOLERANCES["uniq1d_pass"]
    # the free constants gamma and f drop out of the corner swap
    co2 = qp.path_independent_coeffs(d321.a, d321.b, gamma=2.3, f=0.45)
    assert qp.uniqueness_scan_1form(d321, co2).exponent_diff <= DEFAULT_TOLERANCES["uniq1d_pass"]


def test_uniqueness_scan_requires_every_condition(d321):
    co = qp.path_independent_coeffs(d321.a, d321.b)
    for name in ("alpha", "beta", "a0", "b0"):
        bumped = replace(co, **{name: getattr(co, name) + 1e-3})
        mismatch = qp.uniqueness_scan_1form(d321, bumped).exponent_diff
        assert not mismatch <= DEFAULT_TOLERANCES["uniq1d_pass"]
        assert mismatch > 1e-5


def test_percent_level_detuning_mismatches_above_1e4(d321):
    # a 1e-2 coefficient perturbation moves the median corner-swap mismatch
    # well above 1e-4
    co = qp.path_independent_coeffs(d321.a, d321.b)
    mismatches = []
    for name in ("alpha", "beta", "a0", "b0"):
        bumped = replace(co, **{name: getattr(co, name) + 1e-2})
        mismatches.append(qp.uniqueness_scan_1form(d321, bumped).exponent_diff)
    assert float(np.median(mismatches)) > 1e-4


def test_uniqueness_scan_mixed_regimes_rejected():
    with pytest.raises(DegenerateCoeffs):
        qp.path_independent_coeffs(0.5, 1.5)


def test_closure_coeffs_sit_in_the_scan_family(d321):
    # the (P, Q, R) instantiation has the same coefficient ratios as the
    # free-parameter family
    co = closure_coeffs(d321)
    free = qp.path_independent_coeffs(d321.a, d321.b)
    assert co.alpha / co.beta == pytest.approx(free.alpha / free.beta, rel=1e-12)
    assert co.a0 == pytest.approx(free.a0, abs=1e-15)
    assert co.b0 == pytest.approx(free.b0, abs=1e-15)


def _op_poly_residual(n, derived, direction, hbar, relative):
    """The operator-invariant residual from the whole polynomials: the
    coefficients of (-hbar^2 d^2/dx^2 + 4 P x^2) K / K at each endpoint of
    the closed-form kernel, read from its A; their largest difference,
    divided by the largest coefficient at xa when relative."""
    kernel = qp.closed_form_kernel(n * qp._angle(derived, direction), derived)
    A, four_p = kernel.A, 4.0 * derived.P

    def op_poly(at, other):
        a_self, a_cross = A[at, at], A[at, other]
        return {
            "const": -1j * hbar * a_self,
            "x0^2": a_self**2 + four_p if at == 0 else a_cross**2,
            "x1^2": a_self**2 + four_p if at == 1 else a_cross**2,
            "x0*x1": 2.0 * a_self * a_cross,
        }

    lhs, rhs = op_poly(0, 1), op_poly(1, 0)
    worst = float(np.max([abs(lhs[k] - rhs[k]) for k in lhs]))
    if relative:
        worst /= max(abs(v) for v in lhs.values())
    return worst


def test_operator_invariant_identity(d321):
    for direction in ("hat", "bar"):
        for n in range(1, 11):
            assert qp.invariant_kernel_residual(n, d321, direction, 1.0) <= 1e-12
            # unscaled, on the kernel's A and B
            assert _op_poly_residual(n, d321, direction, 1.0, relative=False) <= 1e-12


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55)])
@pytest.mark.parametrize("hbar", [1.0, 0.37])
def test_invariant_kernel_residual_is_the_polynomial_route_bit_for_bit(point, hbar):
    # the two coefficients it reads stand for the whole polynomials of the closed-form kernel
    d = derive(LatticeParams(*point))
    for direction in ("hat", "bar"):
        for n in range(1, 11):
            got = qp.invariant_kernel_residual(n, d, direction, hbar)
            assert got.hex() == _op_poly_residual(n, d, direction, hbar, relative=True).hex()


def _invariant_residual_from_terms(n, derived, direction, hbar):
    """invariant_kernel_residual as it read its two coefficients from the
    closed form's monomials, with the closed form's own expressions."""
    theta = n * qp._angle(derived, direction)
    sin_t = math.sin(theta)
    if abs(sin_t) < qp.CAUSTIC_TOL:
        raise CausticError(f"caustic at total angle {theta!r}")
    root_p = math.sqrt(derived.P)
    alpha, gamma = 2.0 * (-root_p * math.cos(theta) / sin_t), 2.0 * root_p / sin_t
    at_self = alpha**2 + 4.0 * derived.P
    scale = max(abs(hbar * alpha), abs(at_self), abs(gamma**2), abs(2.0 * alpha * gamma))
    phase = math.pi / 4.0 + (math.pi / 2.0) * math.floor(theta / math.pi)
    return abs(at_self - gamma**2) / scale, math.sqrt(2.0 * root_p / abs(sin_t)) * cmath.exp(1j * phase)


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0), (2.7, 1.35, 0.55), (2.0, 2.0, 1.0)])
def test_invariant_kernel_residual_is_the_closed_form_route_bit_for_bit(point):
    # at (2, 2, 1) mu = 2 pi / 3, so hat lengths 3, 6, ... are caustics
    d = derive(LatticeParams(*point))
    caustics = 0
    for direction in ("hat", "bar"):
        for n in range(1, 41):
            try:
                want, amp = _invariant_residual_from_terms(n, d, direction, 1.0)
            except CausticError:
                caustics += 1
                with pytest.raises(CausticError):
                    qp.invariant_kernel_residual(n, d, direction, 1.0)
                continue
            assert qp.invariant_kernel_residual(n, d, direction, 1.0).hex() == want.hex()
            # the closed form's amplitude, its modulus now read off the coupling
            assert repr(qp._closed_form_terms(n * qp._angle(d, direction), d).amp) == repr(amp)
    assert caustics == (13 if point == (2.0, 2.0, 1.0) else 0)


def test_operator_invariant_identity_values(d321):
    # at one step the exponent coefficients are alpha = (P-Q)/q = 8.5 and
    # gamma = (P+Q)/q = 12.5, and gamma^2 - alpha^2 = 4P exactly
    k = qp.one_step_kernel("hat", d321)
    alpha = k.A[0, 0]
    gamma = k.A[0, 1]
    assert alpha == pytest.approx(8.5, abs=1e-12)
    assert gamma == pytest.approx(12.5, abs=1e-12)
    assert gamma**2 - alpha**2 == pytest.approx(4.0 * d321.P, abs=1e-11)


def test_time_path_validation(rng):
    with pytest.raises(ValueError):
        qp.TimePath(("sideways",))
    with pytest.raises(ValueError):
        qp.path_kernel(qp.TimePath(()), None)
    for n, m in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="negative step count"):
            qp.TimePath.monotone(n, m)
        with pytest.raises(ValueError, match="negative step count"):
            qp.random_path(rng, n, m)


def test_every_direction_taking_builder_refuses_an_unknown_direction(d321):
    builds = (
        lambda: qp.invariant_kernel_residual(3, d321, "hatt", 1.0),
        lambda: qp.n_step_kernel(3, d321, "hatt"),
        lambda: qp.one_step_kernel("hatt", d321),
        lambda: qp.momentum_factorized_kernel(d321, "hatt"),
    )
    for build in builds:
        with pytest.raises(ValueError, match="unknown direction 'hatt'"):
            build()


def test_one_step_kernel_canonical_form_is_stable(d321):
    data = qp.one_step_kernel("hat", d321).canonical_dict()
    assert data["vars"] == ["xa", "xb"]
    assert [[i, j] for i, j, _ in data["A"]] == [[0, 0], [0, 1], [1, 1]]
    assert [x for _, _, x in data["A"]] == pytest.approx([8.5, 12.5, 8.5], abs=1e-13)
    assert data["pihbar_pow"] == "-1/2"
    assert data["amp"]["modulus"] == pytest.approx(math.sqrt(12.5), abs=1e-13)
    assert data["amp"]["phase"] == pytest.approx(math.pi / 4, abs=1e-13)


def test_invariant_kernel_residual_keeps_a_nan(d321, monkeypatch):
    closed_form = qp._closed_form_coeffs

    def with_nan_coupling(*args):
        square, _ = closed_form(*args)
        return square, float("nan")

    monkeypatch.setattr(qp, "_closed_form_coeffs", with_nan_coupling)
    for direction in ("hat", "bar"):
        assert math.isnan(qp.invariant_kernel_residual(3, d321, direction, 1.0))


def test_uniqueness_scan_refuses_a_vanishing_corner_pivot(d321):
    co = qp.path_independent_coeffs(d321.a, d321.b)
    # this b0 zeroes the middle pivot of the hat-then-bar corner: a delta kernel
    b0 = -co.alpha * (co.a - co.a0) / co.beta
    # exactly, and inside the NearCaustic refusal band
    for bad in (b0, b0 * (1 + 1e-8)):
        with pytest.raises(DegenerateCoeffs):
            qp.uniqueness_scan_1form(d321, replace(co, b0=bad))


@pytest.mark.parametrize("n", [200, 800])
def test_long_path_kernel_matches_the_closed_form_at_50_digits(d321, n):
    # separates float64 roundoff growth along a long elimination from a defect
    mpmath = pytest.importorskip("mpmath")
    kernel = qp.path_kernel(qp.TimePath.monotone(n, 0), d321)
    assert kernel.vars == ("xa", "xb")
    with mpmath.workdps(50):
        theta = n * mpmath.mpf(d321.mu)
        root_p = mpmath.sqrt(mpmath.mpf(d321.P))
        off = 2 * root_p / mpmath.sin(theta)
        diag = -2 * root_p * mpmath.cos(theta) / mpmath.sin(theta)
        want = [[diag, off], [off, diag]]
        gap = max(abs(mpmath.mpf(float(kernel.A[i, j])) - want[i][j]) for i in range(2) for j in range(2))
    assert gap <= DEFAULT_TOLERANCES["path_exponent"]


def test_library_built_paths_equal_validated_paths():
    # monotone, with_loop and random_path build their paths without TimePath's check: each must be the path that
    # TimePath gives for the steps it is meant to hold
    for n, m in itertools.product(range(4), repeat=2):
        path = qp.TimePath.monotone(n, m)
        assert type(path.steps) is tuple and path == qp.TimePath(("+hat",) * n + ("+bar",) * m)
    loop = ("+hat", "+bar", "-hat", "-bar")
    base = qp.TimePath(("+hat", "-bar", "+bar"))
    for position in range(len(base.steps) + 1):
        looped = base.with_loop(position)
        assert type(looped.steps) is tuple
        assert looped == qp.TimePath(base.steps[:position] + loop + base.steps[position:])

    def validated_random_path(rng, n, m):
        """random_path's draws, each path through TimePath."""
        steps = ["+hat"] * n + ["+bar"] * m
        for _ in range(2):
            d = qp.STEPS[2 * rng.integers(0, 2)]
            steps += [d, "-" + d[1:]]
        order = rng.permutation(len(steps))
        path = qp.TimePath(tuple(steps[i] for i in order))
        if rng.random() < 0.5:
            position = int(rng.integers(0, len(path.steps) + 1))
            path = qp.TimePath(path.steps[:position] + loop + path.steps[position:])
        return path

    for seed in range(40):
        n, m = seed % 4, seed // 10
        path = qp.random_path(np.random.default_rng(seed), n, m)
        assert type(path.steps) is tuple and path == validated_random_path(np.random.default_rng(seed), n, m)
