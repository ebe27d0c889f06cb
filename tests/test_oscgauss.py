import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mdclab import oscgauss as og
from mdclab.errors import NearCaustic, VariableMismatch


def fresnel_quadrature_oracle(kernel, var, hbar=1.0, assignment=None):
    """Numerically integrate one variable out along a rotated contour.

    The integrand exp(i (a v^2/2 + beta v + c)/hbar) is evaluated on the line
    v = v0 + exp(i sgn(a) pi/4) t through the stationary point v0, where it
    decays like a real Gaussian; scipy handles the profile.  Works for one
    remaining variable at a fixed assignment of the others.
    """
    assignment = assignment or {}
    k = kernel.index(var)
    a = kernel.A[k, k]
    others = [v for v in kernel.vars if v != var]
    beta = kernel.B[k] + sum(
        kernel.A[k, kernel.index(w)] * assignment[w] for w in others
    )
    rest = kernel.c + sum(kernel.B[kernel.index(w)] * assignment[w] for w in others)
    for w1 in others:
        for w2 in others:
            rest += 0.5 * kernel.A[kernel.index(w1), kernel.index(w2)] * assignment[w1] * assignment[w2]
    v0 = -beta / a
    rot = cmath.exp(1j * math.copysign(math.pi / 4.0, a))

    def integrand(t):
        v = v0 + rot * t
        phase = 0.5 * a * v * v + beta * v + rest
        return rot * cmath.exp(1j * phase / hbar)

    span = 12.0 * math.sqrt(hbar / abs(a))
    re = quad(lambda t: integrand(t).real, -span, span, limit=200)[0]
    im = quad(lambda t: integrand(t).imag, -span, span, limit=200)[0]
    return complex(re, im) * kernel.amp * (2 * math.pi * hbar) ** float(kernel.pihbar_pow)


def test_single_variable_fresnel_integral():
    # int dv exp(i (a v^2/2 + b v)/hbar) = sqrt(2 pi hbar/|a|) e^{i pi/4 sgn a} e^{-i b^2/2a}
    k = og.from_terms(("v",), {("v", "v"): 1.5 / 2}, linear={"v": 0.7})
    # quadratic dict holds monomial coefficients: a/2 with a = 1.5
    out = og.marginalize(k, "v")
    assert out.vars == ()
    assert out.pihbar_pow == Fraction(1, 2)
    assert out.amp == pytest.approx(cmath.exp(1j * math.pi / 4) / math.sqrt(1.5), abs=1e-15)
    assert out.c == pytest.approx(-0.7**2 / (2 * 1.5), abs=1e-15)


@pytest.mark.parametrize("a,b0", [(1.5, 0.7), (-0.8, 0.3), (0.6, -1.2)])
def test_marginalize_matches_quadrature(a, b0):
    k = og.from_terms(("v",), {("v", "v"): a / 2}, linear={"v": b0})
    got = og.marginalize(k, "v")
    want = fresnel_quadrature_oracle(k, "v")
    have = got.amp * (2 * math.pi) ** float(got.pihbar_pow) * cmath.exp(1j * got.c)
    assert have == pytest.approx(want, rel=1e-6)


def test_two_variable_kernel_matches_iterated_quadrature():
    k = og.from_terms(
        ("u", "v"),
        {("u", "u"): 0.9, ("v", "v"): 0.7, ("u", "v"): 0.4},
        linear={"u": 0.2, "v": -0.5},
    )
    reduced = og.marginalize(k, "v")
    # evaluate both sides as functions of u at a few points
    for u in (-0.7, 0.0, 1.3):
        want = fresnel_quadrature_oracle(k, "v", assignment={"u": u})
        have = reduced.value({"u": u})
        assert have == pytest.approx(want, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginalization_order_independence(seed):
    rng = np.random.default_rng(seed)
    n = 4
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T) + n * np.eye(n) * np.sign(rng.normal())
    B = rng.normal(size=n)
    names = tuple(f"v{k}" for k in range(n))
    k = og.OscKernel(vars=names, A=A, B=B, c=0.3, amp=1.0)
    k1 = og.marginalize(og.marginalize(k, "v0"), "v2")
    k2 = og.marginalize(og.marginalize(k, "v2"), "v0")
    assert np.max(np.abs(k1.A - k2.A)) <= 1e-11
    assert np.max(np.abs(k1.B - k2.B)) <= 1e-11
    assert k1.c == pytest.approx(k2.c, abs=1e-11)
    assert abs(k1.amp - k2.amp) <= 1e-11 * abs(k1.amp)


def test_absent_variable_becomes_volume_factor():
    k = og.from_terms(("u", "w"), {("u", "u"): 0.5})
    out = og.marginalize(k, "w")
    assert out.vol_pow == 1
    assert out.pihbar_pow == 0
    assert out.vars == ("u",)


def test_linear_variable_yields_delta_constraint_then_substitution():
    # exponent kappa*(x5 - x1)*x3: integrating x3 deltas x5 onto x1
    kappa = 2.5
    k = og.from_terms(
        ("x1", "x3", "x5"),
        {("x1", "x3"): -kappa, ("x5", "x3"): kappa, ("x1", "x1"): 0.4, ("x5", "x5"): -0.4},
    )
    mid = og.marginalize(k, "x3", keep={"x1", "x5"})
    assert mid.pihbar_pow == 1
    assert len(mid.constraints) == 1
    con = mid.constraints[0].normalized()
    assert dict(con.coeffs) == pytest.approx({"x1": 1.0, "x5": -1.0})
    # consuming the delta substitutes x5 = x1 and divides by |kappa|
    out = og.marginalize(mid, "x5")
    assert out.vars == ("x1",)
    assert not out.constraints
    assert out.amp == pytest.approx(1.0 / kappa)
    # the x1^2 terms cancel on the constraint surface
    assert abs(out.A[0, 0]) <= 1e-15


def test_near_caustic_band_is_refused():
    bad = og.OscKernel(
        vars=("u", "w"),
        A=np.array([[1e-8, 1.0], [1.0, 2.0]]),
        B=np.zeros(2),
        c=0.0,
    )
    with pytest.raises(NearCaustic):
        og.marginalize(bad, "u")


def test_glue_with_empty_shared_set_is_a_product():
    k1 = og.from_terms(("u",), {("u", "u"): 0.5}, amp=2.0, pihbar_pow=Fraction(-1, 2))
    k2 = og.from_terms(("w",), {("w", "w"): 0.25}, amp=0.5j, const=1.0)
    out = og.glue(k1, k2, shared=())
    assert out.vars == ("u", "w")
    assert out.amp == 1.0j
    assert out.pihbar_pow == Fraction(-1, 2)
    assert out.coeff("u", "u") == 0.5
    assert out.coeff("w", "w") == 0.25
    assert out.c == 1.0


def test_glue_requires_shared_variables_to_exist():
    k1 = og.from_terms(("u",), {("u", "u"): 0.5})
    k2 = og.from_terms(("w",), {("w", "w"): 0.5})
    with pytest.raises(VariableMismatch):
        og.glue(k1, k2, shared=("z",))


def test_glue_rejects_mixed_hbar():
    k1 = og.from_terms(("u",), {("u", "u"): 0.5}, hbar=1.0)
    k2 = og.from_terms(("u",), {("u", "u"): 0.5}, hbar=2.0)
    with pytest.raises(VariableMismatch):
        og.glue(k1, k2, shared=("u",))


def test_compare_self_and_mismatch():
    k = og.from_terms(("u", "w"), {("u", "w"): 1.0})
    diff = og.compare(k, k)
    assert diff.exponent_diff == 0.0
    assert diff.amp_ratio == 1.0
    other = og.from_terms(("u", "z"), {("u", "z"): 1.0})
    with pytest.raises(VariableMismatch):
        og.compare(k, other)


def test_compare_aligns_variable_order():
    k1 = og.from_terms(("u", "w"), {("u", "u"): 0.3, ("u", "w"): 1.0})
    k2 = og.from_terms(("w", "u"), {("u", "u"): 0.3, ("u", "w"): 1.0})
    assert og.compare(k1, k2).exponent_diff == 0.0


def test_compare_equal_modulo_volume_uses_the_tolerance():
    k1 = og.from_terms(("u",), {("u", "u"): 0.3}, amp=2.0)
    k2 = og.from_terms(("u",), {("u", "u"): 0.3 + 1e-7}, amp=1.0)
    assert not og.compare(k1, k2).equal_modulo_volume
    loose = og.compare(k1, k2, tol=1e-3)
    assert loose.equal_modulo_volume
    assert loose.amp_ratio == 2.0


def test_rename_and_collision():
    k = og.from_terms(("u", "w"), {("u", "w"): 1.0})
    renamed = og.rename(k, {"u": "x"})
    assert renamed.vars == ("x", "w")
    with pytest.raises(VariableMismatch):
        og.rename(k, {"u": "w"})


def test_serialization_round_trip():
    k = og.from_terms(
        ("b", "a"),
        {("a", "a"): 0.5, ("a", "b"): 1.25},
        linear={"b": -0.3},
        const=0.7,
        amp=1.5 * cmath.exp(0.3j),
        pihbar_pow=Fraction(-1, 2),
    )
    back = og.OscKernel.from_json(k.to_json())
    assert back.canonical_dict() == k.canonical_dict()
    # canonical form sorts variables, so label order cannot matter
    k2 = og.from_terms(
        ("a", "b"),
        {("a", "a"): 0.5, ("a", "b"): 1.25},
        linear={"b": -0.3},
        const=0.7,
        amp=1.5 * cmath.exp(0.3j),
        pihbar_pow=Fraction(-1, 2),
    )
    assert k.to_json() == k2.to_json()


def test_value_respects_constraints():
    k = og.from_terms(("x1", "x3", "x5"), {("x1", "x3"): -1.0, ("x5", "x3"): 1.0})
    mid = og.marginalize(k, "x3", keep={"x1", "x5"})
    on = mid.value({"x1": 0.4, "x5": 0.4})
    off = mid.value({"x1": 0.4, "x5": 0.5})
    assert on != 0.0
    assert off == 0.0


def test_substitution_preserves_value_on_constraint_surface(rng):
    k = og.from_terms(
        ("x1", "x3", "x5"),
        {("x1", "x3"): -2.0, ("x5", "x3"): 2.0, ("x5", "x5"): 0.35, ("x1", "x5"): 0.2},
    )
    mid = og.marginalize(k, "x3", keep={"x1", "x5"})
    out = og.marginalize(mid, "x5")
    for _ in range(5):
        x = float(rng.normal())
        # on the surface x5 = x1 the reduced exponent agrees (amp differs by
        # the delta weight 1/|kappa|, accounted in amp)
        assert out.exponent({"x1": x}) == pytest.approx(
            mid.exponent({"x1": x, "x5": x}), abs=1e-12
        )


def test_marginalize_unknown_variable():
    k = og.from_terms(("u",), {("u", "u"): 0.5})
    with pytest.raises(VariableMismatch):
        og.marginalize(k, "nope")


def test_marginalize_all_survives_delta_consuming_a_pending_variable():
    # integrating v deltas w away immediately; the driver must notice that
    # the pending w is already gone
    k = og.OscKernel(
        vars=("v", "w", "u"),
        A=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.3]]),
        B=np.zeros(3),
        c=0.0,
    )
    out = og.marginalize_all(k, ["v", "w"], keep={"u"})
    assert out.vars == ("u",)
    assert not out.constraints
    assert out.pihbar_pow == 1


def test_delta_of_a_nonzero_constant_is_rejected():
    k = og.OscKernel(
        vars=("v",),
        A=np.zeros((1, 1)),
        B=np.array([0.7]),
        c=0.0,
    )
    with pytest.raises(NearCaustic):
        og.marginalize(k, "v")


def test_compare_sees_constraint_constants():
    base = og.from_terms(("x", "y"), {})
    k1, k2 = (
        replace(base, constraints=(og.AffineConstraint((("x", 1.0), ("y", -1.0)), const),))
        for const in (0.0, 5.0)
    )
    assert og.compare(k1, k2).exponent_diff == 5.0


def test_compare_rejects_an_hbar_mismatch():
    k1, k2 = (og.from_terms(("x",), {("x", "x"): 1.0}, hbar=hbar) for hbar in (1.0, 2.0))
    with pytest.raises(VariableMismatch):
        og.compare(k1, k2)


def test_compare_keeps_a_nan_in_either_order():
    k1, k2 = (og.from_terms(("x",), {("x", "x"): 1.0}, const=const) for const in (0.0, float("nan")))
    assert math.isnan(og.compare(k1, k2).exponent_diff)
    assert math.isnan(og.compare(k2, k1).exponent_diff)


def test_to_json_refuses_a_non_finite_kernel():
    # a NaN kernel can be built (compare needs one), but NaN is not JSON
    k = og.from_terms(("x",), {("x", "x"): 1.0}, const=float("nan"))
    with pytest.raises(ValueError):
        k.to_json()


def test_marginalize_all_rejects_an_unknown_variable():
    k = og.from_terms(("u", "w"), {("u", "u"): 0.5, ("w", "w"): 0.25})
    with pytest.raises(VariableMismatch):
        og.marginalize_all(k, ["nope", "w"])
    foreign = replace(k, constraints=(og.AffineConstraint((("z", 1.0),), 0.0),))
    with pytest.raises(VariableMismatch):
        og.marginalize_all(foreign, ["w"])


def _random_kernel(rng, shape):
    """A random symmetric kernel with the coupling graph of `shape`, the
    variables to integrate out and the `keep` set (None: all the others).

    chain and grid are generic; volume zeroes a pending row; delta zeroes the
    diagonal of every other interior variable of a chain and integrates those
    (exact caustics; when only the two ends are kept, each constraint
    substitutes an interior neighbour away); band puts one
    pending pivot inside the refusal band, away from every other pending
    variable.  Labels are a shuffle of the indices, so sorted-name order
    differs from storage order.
    """
    if shape == "grid":
        w, h = (int(x) for x in rng.integers(2, 5, size=2))
        n = w * h
        edges = [(i, i + 1) for i in range(n) if (i + 1) % w] + [(i, i + w) for i in range(n - w)]
    else:
        n = int(rng.integers(4, 13))
        edges = [(i, i + 1) for i in range(n - 1)]
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = rng.normal()
    A[np.diag_indices(n)] = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
    B = rng.normal(size=n)
    names = tuple(f"x{i}" for i in rng.permutation(n))
    interior = list(range(1, n - 1))
    pending = [i for i in interior if rng.random() < 0.7] or interior[:1]
    keep, constraints = None, ()
    if shape == "volume":
        v = pending[int(rng.integers(len(pending)))]
        A[v, :] = A[:, v] = B[v] = 0.0
    elif shape == "delta":
        zero = interior[::2]
        A[zero, zero] = 0.0
        pending = zero
        if rng.random() < 0.5:
            keep = frozenset((names[0], names[-1]))
    elif shape == "band":
        v = interior[int(rng.integers(len(interior)))]
        A[v, v] = 0.0
        A[v, v] = 1e-8 * max(np.abs(A[v]).max(), abs(B[v]))
        pending = [v] + [i for i in interior if abs(i - v) > 1 and rng.random() < 0.5]
    elif rng.random() < 0.5:
        # a delta constraint from an earlier step binds one pending variable
        v = pending[-1]
        w = int(rng.choice([i for i in range(n) if i != v]))
        constraints = (og.AffineConstraint(((names[v], rng.normal()), (names[w], rng.normal())), rng.normal()),)
    kernel = og.OscKernel(vars=names, A=A, B=B, c=rng.normal(), amp=complex(*rng.normal(size=2)),
                          constraints=constraints)
    return kernel, [names[i] for i in pending], keep


def _fold_marginalize(kernel, variables, keep):
    """Single-variable marginalize over the order of marginalize_all's rule:
    constraint-bound variables first by name, then the largest relative pivot,
    the first by name on a tie."""
    pending = set(variables)
    if keep is None:
        keep = frozenset(kernel.vars) - pending
    while pending & set(kernel.vars):
        pending &= set(kernel.vars)
        bound = sorted(v for v in pending if any(abs(con.coefficient(v)) > 0.0 for con in kernel.constraints))

        def ratio(v):
            k = kernel.index(v)
            return abs(kernel.A[k, k]) / max(np.abs(kernel.A[k]).max(), abs(kernel.B[k]), og._ABS_FLOOR)

        choice = bound[0] if bound else max(sorted(pending), key=ratio)
        kernel = og.marginalize(kernel, choice, keep=keep)
        pending.discard(choice)
    return kernel


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["chain", "grid", "volume", "delta", "band"]))
def test_marginalize_all_is_bit_equal_to_folding_marginalize(seed, shape):
    kernel, variables, keep = _random_kernel(np.random.default_rng(seed), shape)
    if shape == "band":
        with pytest.raises(NearCaustic):
            _fold_marginalize(kernel, variables, keep)
        with pytest.raises(NearCaustic):
            og.marginalize_all(kernel, variables, keep=keep)
        return
    want = _fold_marginalize(kernel, variables, keep)
    got = og.marginalize_all(kernel, variables, keep=keep)
    assert got.vars == want.vars
    assert got.A.tobytes() == want.A.tobytes()
    assert got.B.tobytes() == want.B.tobytes()
    assert repr((float(got.c), got.amp, got.constraints)) == repr((float(want.c), want.amp, want.constraints))
    assert (got.pihbar_pow, got.vol_pow) == (want.pihbar_pow, want.vol_pow)
