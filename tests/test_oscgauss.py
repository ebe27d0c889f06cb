import cmath
import itertools
import math
import struct
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mdclab import oscgauss as og
from mdclab import qprop1d
from mdclab import qsurface as qs
from mdclab.errors import NearCaustic, VariableMismatch
from mdclab.harness import SuiteConfig, run
from mdclab.params import LatticeParams, derive
from mdclab.reduction import closure_coeffs

from conftest import built, coeff, exponent, from_dense, on_surface, value, with_fields


def fresnel_quadrature_oracle(kernel, var, hbar=1.0, assignment=None):
    """Numerically integrate one variable out along a rotated contour.

    The integrand exp(i (a v^2/2 + beta v + rest)/hbar), with beta and rest
    from the couplings to and among the others at their assigned values, is
    evaluated on the line v = v0 + exp(i sgn(a) pi/4) t through the
    stationary point v0, where it decays like a real Gaussian; scipy handles
    the profile.  Works for one remaining variable at a fixed assignment of
    the others.
    """
    assignment = assignment or {}
    k = kernel.index(var)
    a = kernel.A[k, k]
    others = [v for v in kernel.vars if v != var]
    beta = sum(kernel.A[k, kernel.index(w)] * assignment[w] for w in others)
    rest = sum(0.5 * kernel.A[kernel.index(w1), kernel.index(w2)] * assignment[w1] * assignment[w2]
               for w1 in others for w2 in others)
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
    # int dv exp(i (a v^2/2 + b u v)/hbar) = sqrt(2 pi hbar/|a|) e^{i pi/4 sgn a} e^{-i b^2 u^2/2a}
    k = og.from_terms(("u", "v"), {("v", "v"): 1.5 / 2, ("u", "v"): 0.7})
    # quadratic dict holds monomial coefficients: a/2 with a = 1.5
    out = og.marginalize(k, "v")
    assert out.vars == ("u",)
    assert out.pihbar_pow == Fraction(1, 2)
    assert out.amp == pytest.approx(cmath.exp(1j * math.pi / 4) / math.sqrt(1.5), abs=1e-15)
    assert coeff(out, "u", "u") == pytest.approx(-0.7**2 / (2 * 1.5), abs=1e-15)


@pytest.mark.parametrize("a,b0", [(1.5, 0.7), (-0.8, 0.3), (0.6, -1.2)])
def test_marginalize_matches_quadrature(a, b0):
    # the coupling b0 u v at u = 1 is the linear term b0 v
    k = og.from_terms(("u", "v"), {("v", "v"): a / 2, ("u", "v"): b0})
    got = og.marginalize(k, "v")
    want = fresnel_quadrature_oracle(k, "v", assignment={"u": 1.0})
    assert value(got, {"u": 1.0}) == pytest.approx(want, rel=1e-6)


def test_two_variable_kernel_matches_iterated_quadrature():
    k = og.from_terms(("u", "v"), {("u", "u"): 0.9, ("v", "v"): 0.7, ("u", "v"): 0.4})
    reduced = og.marginalize(k, "v")
    # evaluate both sides as functions of u at a few points
    for u in (-0.7, 0.0, 1.3):
        want = fresnel_quadrature_oracle(k, "v", assignment={"u": u})
        have = value(reduced, {"u": u})
        assert have == pytest.approx(want, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginalization_order_independence(seed):
    rng = np.random.default_rng(seed)
    n = 4
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T) + n * np.eye(n) * np.sign(rng.normal())
    names = tuple(f"v{k}" for k in range(n))
    k = from_dense(vars=names, A=A, amp=1.0)
    k1 = og.marginalize(og.marginalize(k, "v0"), "v2")
    k2 = og.marginalize(og.marginalize(k, "v2"), "v0")
    assert np.max(np.abs(k1.A - k2.A)) <= 1e-11
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
    mid = og.marginalize(k, "x3")
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
    bad = from_dense(
        vars=("u", "w"),
        A=np.array([[1e-8, 1.0], [1.0, 2.0]]),
    )
    with pytest.raises(NearCaustic):
        og.marginalize(bad, "u")


def test_glue_with_empty_shared_set_is_a_product():
    k1 = og.from_terms(("u",), {("u", "u"): 0.5}, amp=2.0, pihbar_pow=Fraction(-1, 2))
    k2 = og.from_terms(("w",), {("w", "w"): 0.25}, amp=0.5j)
    out = og.glue(k1, k2, shared=())
    assert out.vars == ("u", "w")
    assert out.amp == 1.0j
    assert out.pihbar_pow == Fraction(-1, 2)
    assert coeff(out, "u", "u") == 0.5
    assert coeff(out, "w", "w") == 0.25


def test_glue_requires_shared_variables_to_exist():
    k1 = og.from_terms(("u",), {("u", "u"): 0.5})
    k2 = og.from_terms(("w",), {("w", "w"): 0.5})
    with pytest.raises(VariableMismatch):
        og.glue(k1, k2, shared=("z",))


def test_compare_self_and_mismatch():
    k = og.from_terms(("u", "w"), {("u", "w"): 1.0})
    diff = og.compare(k, k)
    assert diff.exponent_diff == 0.0
    assert diff.amp_ratio == 1.0
    other = og.from_terms(("u", "z"), {("u", "z"): 1.0})
    with pytest.raises(VariableMismatch):
        og.compare(k, other)


def test_compare_carries_the_scale_of_a_delta():
    # delta(2u) = delta(u) / 2, so the second kernel is half the first, though both have amp 1
    k1, k2 = (og.marginalize(og.from_terms(("x", "y", "z"), {("x", "y"): c, ("y", "z"): -c}), "y") for c in (1.0, 2.0))
    assert k1.amp == k2.amp == 1.0
    want = [(("x", 1.0), ("z", -1.0)), (("x", 2.0), ("z", -2.0))]
    assert [con.coeffs for con in k1.constraints + k2.constraints] == want
    for pair, ratio in (((k1, k2), 2.0), ((k2, k1), 0.5), ((k2, k2), 1.0)):
        diff = og.compare(*pair)
        assert diff.exponent_diff == 0.0 and diff.amp_ratio == ratio


def test_compare_aligns_variable_order():
    k1 = og.from_terms(("u", "w"), {("u", "u"): 0.3, ("u", "w"): 1.0}, amp=2.0)
    k2 = og.from_terms(("w", "u"), {("u", "u"): 0.3, ("u", "w"): 1.0})
    diff = og.compare(k1, k2)
    assert diff.exponent_diff == 0.0
    assert diff.amp_ratio == 2.0


def test_serialization_round_trip():
    k = og.from_terms(
        ("b", "a"),
        {("a", "a"): 0.5, ("a", "b"): 1.25},
        amp=1.5 * cmath.exp(0.3j),
        pihbar_pow=Fraction(-1, 2),
    )
    back = og.OscKernel.from_json(k.to_json())
    assert back.canonical_dict() == k.canonical_dict()
    # canonical form sorts variables, so label order cannot matter
    k2 = og.from_terms(
        ("a", "b"),
        {("a", "a"): 0.5, ("a", "b"): 1.25},
        amp=1.5 * cmath.exp(0.3j),
        pihbar_pow=Fraction(-1, 2),
    )
    assert k.to_json() == k2.to_json()


def test_value_respects_constraints():
    k = og.from_terms(("x1", "x3", "x5"), {("x1", "x3"): -1.0, ("x5", "x3"): 1.0})
    mid = og.marginalize(k, "x3")
    on = value(mid, {"x1": 0.4, "x5": 0.4})
    off = value(mid, {"x1": 0.4, "x5": 0.5})
    assert on != 0.0
    assert off == 0.0


def test_substitution_preserves_value_on_constraint_surface(rng):
    k = og.from_terms(
        ("x1", "x3", "x5"),
        {("x1", "x3"): -2.0, ("x5", "x3"): 2.0, ("x5", "x5"): 0.35, ("x1", "x5"): 0.2},
    )
    mid = og.marginalize(k, "x3")
    out = og.marginalize(mid, "x5")
    for _ in range(5):
        x = float(rng.normal())
        # on the surface x5 = x1 the reduced exponent agrees (amp differs by
        # the delta weight 1/|kappa|, accounted in amp)
        assert exponent(out, {"x1": x}) == pytest.approx(
            exponent(mid, {"x1": x, "x5": x}), abs=1e-12
        )


def test_marginalize_unknown_variable():
    k = og.from_terms(("u",), {("u", "u"): 0.5})
    with pytest.raises(VariableMismatch):
        og.marginalize(k, "nope")


def test_marginalize_all_survives_delta_consuming_a_pending_variable():
    # integrating v deltas w away immediately; the driver must notice that
    # the pending w is already gone
    k = from_dense(
        vars=("v", "w", "u"),
        A=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.3]]),
    )
    out = og.marginalize_all(k, ["v", "w"])
    assert out.vars == ("u",)
    assert not out.constraints
    assert out.pihbar_pow == 1


def test_a_delta_of_no_finite_coupling_is_refused():
    # v's only coupling is infinite, and no finite multiple of its row's infinite scale is below it, so the
    # delta of v ties nothing; the NaN rows of x and y keep v's row from counting as a volume factor
    A = np.array([[0.0, math.inf, 0.0, 0.0], [math.inf, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, math.nan], [0.0, 0.0, math.nan, 1.0]])
    k = built(("v", "w", "x", "y"), A, 1.0 + 0.0j, Fraction(0), 0, ())
    want = (NearCaustic, "integrating 'v' leaves a delta of no finite coupling")
    assert _outcome(lambda: og.marginalize(k, "v")) == want
    assert _outcome(lambda: _fold_marginalize(k, ["v"])) == want


def test_compare_keeps_a_nan_in_either_order():
    k1, k2 = (og.from_terms(("x",), {("x", "x"): a}) for a in (1.0, float("nan")))
    assert math.isnan(og.compare(k1, k2).exponent_diff)
    assert math.isnan(og.compare(k2, k1).exponent_diff)


def test_compare_keeps_a_nan_in_either_order_across_permuted_variables():
    quadratic = {("x", "x"): 1.0, ("x", "y"): 0.5, ("y", "y"): 2.0}
    k1 = og.from_terms(("x", "y"), quadratic | {("x", "y"): float("nan")})
    k2 = og.from_terms(("y", "x"), quadratic)
    assert math.isnan(og.compare(k1, k2).exponent_diff)
    assert math.isnan(og.compare(k2, k1).exponent_diff)


def test_compare_refuses_a_constraint_count_mismatch():
    k1 = og.from_terms(("x", "y"), {("x", "y"): 1.0})
    k2 = with_fields(k1, constraints=(og.AffineConstraint((("x", 1.0), ("y", -1.0))),))
    for pair in ((k1, k2), (k2, k1), (k1, with_fields(k2, vars=("y", "x")))):
        with pytest.raises(VariableMismatch, match="numbers of delta constraints"):
            og.compare(*pair)


def test_to_json_refuses_a_non_finite_kernel():
    # a NaN kernel can be built (compare needs one), but NaN is not JSON
    k = og.from_terms(("x",), {("x", "x"): float("nan")})
    with pytest.raises(ValueError):
        k.to_json()


def test_marginalize_all_rejects_an_unknown_variable():
    k = og.from_terms(("u", "w"), {("u", "u"): 0.5, ("w", "w"): 0.25})
    with pytest.raises(VariableMismatch):
        og.marginalize_all(k, ["nope", "w"])
    foreign = with_fields(k, constraints=(og.AffineConstraint((("z", 1.0),)),))
    with pytest.raises(VariableMismatch):
        og.marginalize_all(foreign, ["w"])


def _random_kernel(rng, shape):
    """A random symmetric kernel with the coupling graph of `shape`, and the
    variables to integrate out.

    chain and grid are generic; volume zeroes a pending row; delta zeroes the
    diagonal of every other interior variable of a chain and integrates those
    (exact caustics; half the time the second interior variable joins them, so
    a delta step ties a pending neighbour and substitutes it away); band puts one
    pending pivot inside the refusal band, away from every other pending
    variable; nonfinite puts a NaN or an infinity into one row.  ties is a
    grid with every entry from {-2, -1, 1, 2}, so pivots tie, keys repeat and
    a superseded heap entry can equal its row's current key; nan-volume puts
    a NaN on the diagonal of a row that is not pending, empties one pending
    row and shrinks another to about 1e-14 of the rest, so the volume rule
    meets a vanished row and a tiny one while a row scale is NaN; walk-volume
    puts 1e14 to 1e15 on the diagonal of the first variable, which is kept,
    and shrinks a pending row to between 1e-12 and 1 of its size, so that
    row's scale and most others lie in (_ABS_FLOOR, _ABS_FLOOR * top] and only
    the walk over the row scales tells which are volume factors.  Labels are
    a shuffle of the indices, so sorted-name order differs from storage order.
    """
    if shape in ("grid", "ties"):
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
    names = tuple(f"x{i}" for i in rng.permutation(n))
    interior = list(range(1, n - 1))
    pending = [i for i in interior if rng.random() < 0.7] or interior[:1]
    constraints = ()
    if shape == "volume":
        v = pending[int(rng.integers(len(pending)))]
        A[v, :] = A[:, v] = 0.0
    elif shape == "delta":
        zero = interior[::2] + (interior[1:2] if rng.random() < 0.5 else [])
        A[zero, zero] = 0.0
        pending = zero
    elif shape == "band":
        v = interior[int(rng.integers(len(interior)))]
        A[v, v] = 0.0
        A[v, v] = 1e-8 * np.abs(A[v]).max()
        pending = [v] + [i for i in interior if abs(i - v) > 1 and rng.random() < 0.5]
    elif shape == "nonfinite":
        v, w = (int(x) for x in rng.choice([i for i in range(n) if i != 0], size=2))
        A[v, w] = A[w, v] = rng.choice([np.nan, np.inf, -np.inf])
    elif shape == "ties":
        values = np.triu(rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n)))
        A = np.where(A != 0.0, values + np.triu(values, 1).T, 0.0)
    elif shape == "nan-volume":
        v, w = (int(x) for x in rng.choice(interior, size=2, replace=False))
        pending = sorted({*pending, v, w})
        A[w, :] *= 1e-14
        A[:, w] *= 1e-14
        A[w, w] *= 1e14
        A[v, :] = A[:, v] = 0.0
        nan_row = int(rng.choice([i for i in range(n) if i not in pending]))
        A[nan_row, nan_row] = np.nan
    elif shape == "walk-volume":
        A[0, 0] = 10.0 ** rng.uniform(14.0, 15.0)
        v, f = pending[int(rng.integers(len(pending)))], 10.0 ** rng.uniform(-12.0, 0.0)
        A[v, :] *= f
        A[:, v] *= f
        A[v, v] /= f
    elif rng.random() < 0.5:
        # a delta constraint from an earlier step binds one pending variable
        v = pending[-1]
        w = int(rng.choice([i for i in range(n) if i != v]))
        constraints = (og.AffineConstraint(((names[v], rng.normal()), (names[w], rng.normal()))),)
    # the validating constructor refuses a non-finite kernel; the library builds one through _built
    build = built if shape in ("nonfinite", "nan-volume") else from_dense
    kernel = build(names, A, complex(*rng.normal(size=2)), Fraction(0), 0, constraints)
    return kernel, [names[i] for i in pending]


def _replace(kernel, **changes):
    """dataclasses.replace through _built, since the reference routes below
    also carry the non-finite kernels the validating constructor refuses; an
    A that is not symmetric bit for bit is symmetrized, as from_dense does."""
    A = changes.get("A", kernel.A)
    if not np.array_equal(A.view(np.int64), A.T.view(np.int64)):
        changes["A"] = 0.5 * (A + A.T)
    return with_fields(kernel, **changes)


def _finite(kernel):
    """Whether every number of the kernel is finite, as the validating constructor requires."""
    numbers = [kernel.amp.real, kernel.amp.imag, *(cv for con in kernel.constraints for _, cv in con.coeffs)]
    return bool(np.isfinite(kernel.A).all() and all(map(math.isfinite, numbers)))


def _dense_marginalize(kernel, var, tol, pending):
    """Reference elimination of one variable on a dense copy of A in
    sorted-name order: numpy block updates over the pivot's nonzero couplings,
    and the row scales recomputed in full after each step.  A delta step
    substitutes away a constrained variable only if it is in `pending`."""
    names = sorted(kernel.vars)
    order = [kernel.vars.index(v) for v in names]
    A = kernel.A[np.ix_(order, order)]
    amp, pihbar, vol, cons = kernel.amp, kernel.pihbar_pow, kernel.vol_pow, list(kernel.constraints)
    k, gone = names.index(var), set()
    sub = next((m for m, con in enumerate(cons) if abs(con.coefficient(var)) > 0.0), None)
    while k is not None:
        scale = np.abs(A).max(axis=1)
        near = np.flatnonzero(A[k])
        near, step = near[near != k], None
        if sub is not None:
            con, var = cons.pop(sub), names[k]
            cv = con.coefficient(var)
            s_at = {names.index(w): -cw / cv for w, cw in con.coeffs if w != var}
            sub = None
            near = np.array(sorted(s_at.keys() | set(near.tolist())), dtype=int)
            s = np.array([s_at.get(i, 0.0) for i in near])
            a, akk = A[k, near], A[k, k]
            X = A[near[:, None], near] + np.outer(s, a) + np.outer(a, s) + akk * np.outer(s, s)
            A[near[:, None], near] = 0.5 * (X + X.T)
            amp = amp / abs(cv)
            for j, other in enumerate(cons):
                ocv = other.coefficient(var)
                if ocv != 0.0:
                    coeffs = {w: cw for w, cw in other.coeffs if w != var}
                    for w, cw in con.coeffs:
                        if w != var:
                            coeffs[w] = coeffs.get(w, 0.0) - ocv * cw / cv
                    items = tuple((w, cw) for w, cw in coeffs.items() if cw != 0.0)
                    cons[j] = og.AffineConstraint(items) if items else None
            cons = [other for other in cons if other is not None]
        else:
            akk, row_scale = float(A[k, k]), float(scale[k])
            if math.isnan(abs(akk) / max(row_scale, og._ABS_FLOOR)):
                raise NearCaustic(f"pivot for {names[k]!r} is not finite")
            # a row that vanished exactly is a volume factor even while a NaN scale makes scale.max() NaN
            if row_scale == 0.0 or row_scale <= og._ABS_FLOOR * max(float(scale.max()), 1.0):
                vol += 1
            elif (rel := abs(akk) / row_scale) >= og._NEAR_BAND * tol:
                r = A[k, near]
                A[near[:, None], near] -= np.outer(r, r) / akk
                amp = amp * cmath.exp(1j * math.copysign(math.pi / 4.0, akk)) / math.sqrt(abs(akk))
                pihbar += Fraction(1, 2)
            elif rel > tol:
                raise NearCaustic(f"pivot for {names[k]!r} sits at relative size {rel:.3e}; refusing to classify")
            else:
                tied = sorted(near[np.abs(A[k, near]) > og._ABS_FLOOR * row_scale], key=order.__getitem__)
                if not tied:
                    raise NearCaustic(f"integrating {names[k]!r} leaves a delta of no finite coupling")
                con = og.AffineConstraint(tuple((names[i], float(A[k, i])) for i in tied))
                cons.append(con)
                pihbar += 1
                candidates = [w for w in con.variables() if w in pending]
                if candidates:
                    sub, step = len(cons) - 1, names.index(max(candidates, key=lambda w: abs(con.coefficient(w))))
        A[k], A[:, k] = 0.0, 0.0
        gone.add(k)
        k = step
    idx = np.array([names.index(v) for v in kernel.vars if names.index(v) not in gone], dtype=int)
    return _replace(kernel, vars=tuple(names[i] for i in idx), A=A[idx[:, None], idx], amp=amp,
                    pihbar_pow=pihbar, vol_pow=vol, constraints=tuple(cons))


def _fold_marginalize(kernel, variables, tol=og.PIVOT_TOL):
    """_dense_marginalize over the order of marginalize_all's rule:
    constraint-bound variables first by name, then the largest relative pivot,
    the first by name on a tie or a NaN (np.argmax)."""
    pending = set(variables)
    while pending & set(kernel.vars):
        pending &= set(kernel.vars)
        bound = sorted(v for v in pending if any(abs(con.coefficient(v)) > 0.0 for con in kernel.constraints))
        names = sorted(pending)
        rows = [kernel.index(v) for v in names]
        scale = np.maximum(np.abs(kernel.A[rows]).max(axis=1), og._ABS_FLOOR)
        choice = bound[0] if bound else names[int(np.argmax(np.abs(kernel.A[rows, rows]) / scale))]
        kernel = _dense_marginalize(kernel, choice, tol, pending)
        pending.discard(choice)
    return kernel


def _dense_glue(k1, k2, shared):
    """The product kernel as a dense sum over the variable union, then folded."""
    union = list(k1.vars) + [v for v in k2.vars if v not in k1.vars]
    A = np.zeros((len(union), len(union)))
    for k in (k1, k2):
        sel = [union.index(v) for v in k.vars]
        A[np.ix_(sel, sel)] += k.A
    merged = _replace(k1, vars=tuple(union), A=A, amp=k1.amp * k2.amp,
                      pihbar_pow=k1.pihbar_pow + k2.pihbar_pow, vol_pow=k1.vol_pow + k2.vol_pow,
                      constraints=k1.constraints + k2.constraints)
    return _fold_marginalize(merged, shared)


def _outcome(f):
    """f()'s kernel as bytes and reprs, or the exception it raised.  Every NaN
    of A maps to one NaN first, as two NaNs that differ in payload alone are
    the same result."""
    try:
        with np.errstate(all="ignore"):
            k = f()
    except NearCaustic as exc:
        return type(exc), str(exc)
    A = np.where(np.isnan(k.A), np.nan, k.A)
    return k.vars, A.tobytes(), repr((k.amp, k.constraints)), k.pihbar_pow, k.vol_pow


def _glue_partner(rng, kernel):
    """A second chain kernel that shares two to four labels with `kernel`,
    and only those, and the shared labels to glue over."""
    other, _ = _random_kernel(rng, "chain")
    common = [v for v in other.vars if v in kernel.vars][: int(rng.integers(2, 5))]
    label = {v: v if v in common else "y" + v[1:] for v in other.vars}
    cons = tuple(og.AffineConstraint(tuple((label[v], cv) for v, cv in con.coeffs)) for con in other.constraints)
    other = _replace(other, vars=tuple(map(label.get, other.vars)), constraints=cons)
    return other, [v for v in common if rng.random() < 0.7]


SHAPES = ["chain", "grid", "volume", "delta", "band", "nonfinite", "glue"]


@settings(max_examples=200, deadline=None)
# a pivot that is its row's largest entry has ratio exactly 1, and the first by name must win the tie
@example(0, "chain")
# a NaN coupling makes two pending rows NaN; the first by name is the one refused
@example(8, "nonfinite")
# a row's key returns to a value it held before, so a superseded heap entry equals its current key
@example(1, "ties")
# the tiny pending row is a Gaussian pivot, not a volume factor, while the vanished one is a volume factor
@example(0, "nan-volume")
# the kept row's 1e14 scale puts the pending rows in (_ABS_FLOOR, _ABS_FLOOR * top]: only the walk decides
@example(0, "walk-volume")
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES + ["ties", "nan-volume", "walk-volume"]))
def test_marginalize_all_is_bit_equal_to_folding_marginalize(seed, shape):
    # the fold runs the dense reference; the glue shape checks glue against the dense product kernel
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        kernel, variables = _random_kernel(rng, "chain" if shape == "glue" else shape)
    if shape == "glue":
        other, shared = _glue_partner(rng, kernel)
        want = _outcome(lambda: _dense_glue(kernel, other, shared))
        got = _outcome(lambda: og.glue(kernel, other, shared))
    else:
        want = _outcome(lambda: _fold_marginalize(kernel, variables))
        got = _outcome(lambda: og.marginalize_all(kernel, variables))
    if shape == "band":
        assert want[0] is NearCaustic
    assert got == want



def _rows_of(*parts):
    """The engine's sparse rows after each part's _add_into, over the sorted union of the parts' names."""
    names = sorted({v for part in parts for v in part.vars})
    at = dict(zip(names, range(len(names))))
    rows = [{} for _ in names]
    for part in parts:
        part._add_into(rows, at)
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_part_writes_a_symmetric_key_pattern(seed):
    # a pivot on k deletes k from row i for each key i of row k: row i must hold key k whenever row k holds
    # key i, zero-valued entries included
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        kernel, _ = _random_kernel(rng, str(rng.choice(SHAPES[:-1] + ["ties", "nan-volume"])))
        other, _ = _glue_partner(rng, kernel)
    names = [f"u{i}" for i in range(int(rng.integers(2, 8)))]
    quadratic = {(str(u), str(w)): float(rng.choice([0.0, rng.normal()]))
                 for u, w in rng.choice(names, size=(int(rng.integers(1, 15)), 2))}
    # u*w and then w*u cancel to an entry of 0.0
    quadratic["u0", "u1"], quadratic["u1", "u0"] = 0.5, -0.5
    terms = og._Terms(tuple(names), quadratic, 1.0 + 0.0j, Fraction(0))
    path = qprop1d.random_path(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
    visits = ("xa", *(f"t{k}" for k in range(1, len(path.steps))), "xb")
    walk = qprop1d._PathSteps(visits, path.steps, closure_coeffs(derive(LatticeParams(3.0, 2.0, 1.0))), 1.0 + 0.0j,
                              Fraction(0))
    k = int(rng.integers(2, 6))
    surface = qs.random_deformation(qs.flat_patch(k, k), rng, 4 * k)
    label = {v: qs.vertex_label(v) for v in sorted(surface.vertices())}
    coeffs = qs.canonical_lattice_coeffs(*rng.uniform(0.5, 3.0, size=3))
    plaquettes = qs._Plaquettes(tuple(label.values()), surface.plaquettes, coeffs, label, 1.0 + 0.0j, Fraction(0))
    for parts in ((kernel,), (kernel, other), (terms,), (walk,), (plaquettes,)):
        rows = _rows_of(*parts)
        assert all(i in rows[j] for i, row in enumerate(rows) for j in row), parts
    rows = _rows_of(terms)
    assert rows[0][1] == 0.0 and 0 in rows[1]

def _random_chain(rng):
    """Engine steps over 2-10 parts of _random_kernel's shapes.  The first
    part integrates its own variables; each later part shares one or two of
    its pending variables with variables still open, and integrates each
    shared one with probability 0.7.  Every other label is fresh."""
    steps, open_vars = [], []
    for k in range(int(rng.integers(2, 11))):
        kernel, pending = _random_kernel(rng, str(rng.choice(SHAPES[:-1])))
        label = {v: f"p{k}{v}" for v in kernel.vars}
        if k:
            common = rng.permutation(pending)[: int(rng.integers(1, 3))].tolist()
            label.update(zip(common, rng.choice(open_vars, size=len(common), replace=False).tolist()))
            variables = [label[v] for v in common if rng.random() < 0.7]
        else:
            variables = [label[v] for v in pending]
        cons = tuple(og.AffineConstraint(tuple((label[v], cv) for v, cv in con.coeffs)) for con in kernel.constraints)
        kernel = _replace(kernel, vars=tuple(map(label.get, kernel.vars)), constraints=cons)
        open_vars = [v for v in dict.fromkeys(open_vars + list(kernel.vars)) if v not in variables]
        steps.append((kernel, variables))
    return steps


def _glue_fold(steps):
    """marginalize_all of the first part, then one glue call per later part."""
    (first, variables), *rest = steps
    acc = og.marginalize_all(first, variables)
    for part, shared in rest:
        acc = og.glue(acc, part, shared)
    return acc


@settings(max_examples=200, deadline=None)
# both sides hold a NaN in two entries of A, with different payloads
@example(526076612)
@given(st.integers(0, 2**32 - 1))
def test_one_engine_pass_over_a_chain_is_bit_equal_to_the_glue_fold(seed):
    # the fold rebuilds an OscKernel after every link; the one pass keeps its sparse rows and caches
    with np.errstate(all="ignore"):
        steps = _random_chain(np.random.default_rng(seed))
    assert _outcome(lambda: og._eliminate(steps)) == _outcome(lambda: _glue_fold(steps))


def _kernel(names, entries, constraints=()):
    """The kernel over `names` whose A has A_uw = A_wu = x for each (u, w): x of `entries`, with the given
    delta constraints."""
    A = np.zeros((len(names), len(names)))
    for (u, w), x in entries.items():
        A[names.index(u), names.index(w)] = A[names.index(w), names.index(u)] = x
    return built(tuple(names), A, 1.0 + 0.0j, Fraction(0), 0, tuple(constraints))


# Kernels whose pivot order needs the heap to follow a pending row's changing key: (names, entries, constraints,
# pending).  z is never integrated, so its couplings enter each row's scale and update as a linear term would.
PIVOT_CASES = {
    # b (ratio 1) goes first; its elimination lowers a's ratio from 0.9 to 0.53, below c's 0.7, so a's
    # superseded entry pops before c's, and c's elimination lowers a's ratio again (0.42)
    "falling": (("c", "b", "a", "z"), {("a", "a"): 0.9, ("a", "b"): 1.0, ("b", "b"): 10.0, ("a", "c"): 0.2,
                                       ("c", "c"): 0.7, ("a", "z"): 0.5, ("b", "z"): -10.0, ("c", "z"): -1.0},
                (), ("a", "b", "c")),
    # the constraint consumes b first, and its substitution carries b's NaN coupling to a into c's row: c's
    # ratio turns from 0 to NaN, and c must be refused before d, whose ratio 5e-8 lies in the refusal band.
    # (The reverse cannot happen: a NaN in a row survives every update of that row.)
    "turns-nan": (("d", "c", "b", "a", "z"), {("a", "b"): math.nan, ("b", "b"): 1.0, ("b", "c"): 0.5, ("d", "d"): 5e-8,
                                              ("d", "z"): 1.0},
                  (og.AffineConstraint((("b", 1.0), ("a", 0.5), ("z", 0.1))),), ("b", "c", "d")),
    # b and d start at ratio exactly 1, and b, the first by name, goes first; its elimination raises a's ratio
    # from 0.65 to exactly 1, and a, now first by name among the ties, must go before d
    "tied-at-1": (("d", "c", "a", "b", "z"), {("a", "a"): -1.3, ("a", "b"): 2.0, ("b", "b"): 4.1, ("a", "d"): 0.7,
                                              ("d", "d"): 0.9, ("c", "d"): 0.5, ("a", "z"): 0.3, ("b", "z"): 0.2,
                                              ("d", "z"): -0.4},
                  (), ("a", "b", "d")),
}


@pytest.mark.parametrize("case", list(PIVOT_CASES))
def test_the_pivot_order_follows_each_rows_current_ratio(case):
    names, entries, constraints, pending = PIVOT_CASES[case]
    kernel = _kernel(names, entries, constraints)
    want = _outcome(lambda: _fold_marginalize(kernel, pending))
    assert _outcome(lambda: og.marginalize_all(kernel, pending)) == want
    if case == "turns-nan":
        assert want == (NearCaustic, "pivot for 'c' is not finite")
    # the same exponent in two parts, b's entries and the constraints first: the chain equals the dense
    # product and the glue fold
    first = {pair: x for pair, x in entries.items() if "b" in pair}
    steps = [(_kernel(names, first, constraints), ()),
             (_kernel(names, {pair: x for pair, x in entries.items() if pair not in first}), pending)]
    got = _outcome(lambda: og._eliminate(steps))
    assert got == _outcome(lambda: _glue_fold(steps))
    assert got == _outcome(lambda: _dense_glue(steps[0][0], steps[1][0], pending))


def test_the_engine_refuses_a_name_integrated_twice_or_unknown():
    k1 = og.from_terms(("u", "w"), {("u", "u"): 0.5, ("u", "w"): 1.0, ("w", "w"): 0.25})
    k2 = og.from_terms(("w", "z"), {("w", "w"): 0.5, ("w", "z"): 1.0})
    assert og._eliminate(((k1, ("u",)), (k2, ("w",)))).vars == ("z",)
    for steps in (((k1, ("u",)), (k2, ("u",))), ((k1, ("w",)), (k2, ("z",)))):
        with pytest.raises(VariableMismatch, match="integrated by an earlier step"):
            og._eliminate(steps)
    with pytest.raises(VariableMismatch, match="no variable 'nope'"):
        og._eliminate(((k1, ()), (k2, ("nope",))))


def _compare_by_reindexing(k1, k2):
    """compare as it was before its aligned case: k2 always re-indexed with
    np.ix_ and the constraints always normalized; delta kernels whose
    normalized coefficients differ by no NaN are first reduced on their
    constraint surface by on_surface, which divides each amp by |det C_L|."""

    def normalized(k):
        return sorted((con.normalized() for con in k.constraints), key=lambda con: con.coeffs)

    diffs = []
    for con1, con2 in zip(normalized(k1), normalized(k2)):
        if con1.variables() != con2.variables():
            raise VariableMismatch("delta constraints tie different variables")
        diffs.append([abs(a - b) for (_, a), (_, b) in zip(con1.coeffs, con2.coeffs)])
    if not any(math.isnan(d) for row in diffs for d in row):
        k1, k2 = on_surface(k1, k2)
    perm = [k2.index(v) for v in k1.vars]
    diffs.append(np.abs(k1.A - k2.A[np.ix_(perm, perm)]).ravel())
    return og.KernelDiff(exponent_diff=float(np.max(np.concatenate(diffs), initial=0.0)),
                         amp_ratio=k1.amp / k2.amp if k2.amp != 0 else complex("inf"),
                         pihbar_diff=k1.pihbar_pow - k2.pihbar_pow, vol_diff=k1.vol_pow - k2.vol_pow)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES[:-1]))
def test_compare_equals_the_reindexing_route_on_aligned_and_shuffled_variables(seed, shape):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        k1, _ = _random_kernel(rng, shape)
        noise = rng.normal(size=k1.A.shape) * 1e-3
        k2 = _replace(k1, A=k1.A + noise + noise.T, amp=1.5j * k1.amp)
        shuffle = rng.permutation(len(k1.vars))
        k3 = _replace(k2, vars=tuple(k2.vars[i] for i in shuffle), A=k2.A[np.ix_(shuffle, shuffle)])
        for pair in ((k1, k1), (k1, k2), (k1, k3), (k3, k1)):
            assert repr(og.compare(*pair)) == repr(_compare_by_reindexing(*pair))


@pytest.mark.parametrize("n", [1, 2, 9, 400])
@pytest.mark.parametrize("delta", [False, True])
def test_compare_aligns_permuted_variables_as_the_index_route_does(rng, n, delta):
    # compare builds its permutation from one name-to-position dict; here the same kernel, aligned first
    # through k2.index per name, one linear scan each, must give the same KernelDiff bit for bit
    names = tuple(f"v{k}" for k in rng.permutation(n))
    A = rng.normal(size=(n, n))
    A = A + A.T
    cons = (og.AffineConstraint(((names[0], 1.5), (names[-1], -0.5))),) if delta and n > 1 else ()
    k1 = built(names, A, 1.0 + 0.5j, Fraction(1, 2), 0, cons)
    shuffle = rng.permutation(n)
    noise = 1e-3 * rng.normal(size=(n, n))
    k2 = built(tuple(names[i] for i in shuffle), (A + noise + noise.T)[np.ix_(shuffle, shuffle)], 2.0 - 1.0j,
               Fraction(1), 1, cons)
    perm = [k2.index(v) for v in k1.vars]
    aligned = built(k1.vars, k2.A[np.ix_(perm, perm)], k2.amp, k2.pihbar_pow, k2.vol_pow, cons)
    assert (k2.vars == k1.vars) == (n == 1)
    assert repr(og.compare(k1, k2)) == repr(og.compare(k1, aligned))
    assert repr(og.compare(k2, k1)) == repr(og.compare(aligned, k1))


def _compare_pair():
    """Two kernels over x, y, z with one delta constraint each, the second's variables in another order."""
    A = np.array([[0.5, 0.25, 0.0], [0.25, -1.5, 0.75], [0.0, 0.75, 2.0]])
    con = og.AffineConstraint((("x", 1.0), ("z", -0.5)))
    k1 = built(("x", "y", "z"), A, 1.0 + 0.5j, Fraction(1, 2), 0, (con,))
    order = [2, 0, 1]
    k2 = built(("z", "x", "y"), (A + 1e-3)[np.ix_(order, order)], 2.0 + 0.0j, Fraction(1), 1,
               (og.AffineConstraint((("x", 1.0 + 1e-4), ("z", -0.5))),))
    return k1, k2


def _with_nan(kernel, part):
    """kernel with a NaN in one part: an entry of A, or a coefficient of its constraint."""
    A, (con,) = kernel.A.copy(), kernel.constraints
    if part == "A":
        A[0, 2] = A[2, 0] = math.nan
    elif part == "coefficient":
        con = og.AffineConstraint((con.coeffs[0], (con.coeffs[1][0], math.nan)))
    else:
        # the largest magnitude that normalized() meets first is NaN: the lead is the largest finite coefficient
        con = og.AffineConstraint(((con.coeffs[0][0], math.nan), con.coeffs[1]))
    return built(kernel.vars, A, kernel.amp, kernel.pihbar_pow, kernel.vol_pow, (con,))


@pytest.mark.parametrize("nan", [None, "A", "coefficient", "first coefficient"])
def test_compare_equals_the_reindexing_route_with_a_nan_in_each_part(nan):
    # aligned and permuted pairs, in both orders; a NaN on either side makes exponent_diff NaN
    k1, k2 = _compare_pair()
    kernels = [(k1, False), (k2, False)]
    if nan is not None:
        kernels += [(_with_nan(k1, nan), True), (_with_nan(k2, nan), True)]
    for (one, bad_one), (other, bad_other) in itertools.product(kernels, repeat=2):
        got = og.compare(one, other)
        assert repr(got) == repr(_compare_by_reindexing(one, other))
        assert math.isnan(got.exponent_diff) == (bad_one or bad_other)


def test_normalized_carries_a_nan_in_any_position():
    nan = math.nan
    cases = {
        (("x", nan), ("z", -0.5)): (("x", nan), ("z", 1.0)),
        (("x", 1.0), ("z", nan)): (("x", 1.0), ("z", nan)),
        (("z", nan), ("x", nan)): (("x", nan), ("z", nan)),
    }
    for coeffs, want in cases.items():
        assert repr(og.AffineConstraint(coeffs).normalized().coeffs) == repr(want)
    # a delta kernel whose constraint leads with a NaN compares as NaN, and its JSON refuses the NaN
    k1, _ = _compare_pair()
    bad = _with_nan(k1, "first coefficient")
    assert math.isnan(og.compare(bad, bad).exponent_diff)
    assert math.isnan(og.compare(k1, bad).exponent_diff)
    with pytest.raises(ValueError):
        bad.to_json()


@pytest.mark.parametrize("powers", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))])
def test_compare_result_is_the_kernel_diff_its_constructor_builds(powers):
    # equal powers and powers half a step apart; compare builds its result without the keyword __init__
    k1, k2 = (_replace(k, pihbar_pow=power) for k, power in zip(_compare_pair(), powers))
    for pair in ((k1, k2), (k2, k1), (k1, k1)):
        got, want = og.compare(*pair), _compare_by_reindexing(*pair)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert type(got.pihbar_diff) is Fraction and got.pihbar_diff == pair[0].pihbar_pow - pair[1].pihbar_pow
        assert got.amp_ratio_error == want.amp_ratio_error
        with pytest.raises(FrozenInstanceError):
            got.exponent_diff = 0.0
        with pytest.raises(FrozenInstanceError):
            got.pihbar_diff = Fraction(0)


def test_compare_of_kernels_with_no_variables_left():
    done = [og.marginalize_all(og.from_terms(("x",), {("x", "x"): a}), ["x"]) for a in (0.5, -2.0)]
    assert done[0].vars == done[1].vars == ()
    for pair in itertools.product(done, repeat=2):
        assert repr(og.compare(*pair)) == repr(_compare_by_reindexing(*pair))
    # nothing is left of the exponent; the amplitudes still differ
    diff = og.compare(*done)
    assert diff.exponent_diff == 0.0 and diff.amp_ratio_error > 0.0


def test_a_vanished_row_is_a_volume_factor_while_another_row_scale_is_nan():
    # A = [[1, nan, 0], [nan, 1, 0], [0, 0, 0]]
    kernel = og.from_terms(("a", "b", "c"), {("a", "a"): 0.5, ("a", "b"): math.nan, ("b", "b"): 0.5})
    out = og.marginalize_all(kernel, ["c"])
    assert (out.vars, out.vol_pow, out.pihbar_pow) == (("a", "b"), 1, 0)
    assert _outcome(lambda: out) == _outcome(lambda: _fold_marginalize(kernel, ["c"]))


def test_a_nan_in_a_first_step_row_keeps_a_later_tiny_pivot_row_from_being_a_volume_factor():
    # the first step integrates nothing, so its rows' scales are first read when the second step's are;
    # with the NaN counted, the row of "c", whose scale 1e-20 is below _ABS_FLOOR, is a Gaussian pivot
    # A = [[1, nan], [nan, 1]]
    k1 = og.from_terms(("a", "b"), {("a", "a"): 0.5, ("a", "b"): math.nan, ("b", "b"): 0.5})
    k2 = from_dense(vars=("c", "d"), A=[[1e-20, 0.0], [0.0, 1.0]])
    got = _outcome(lambda: og._eliminate(((k1, ()), (k2, ("c",)))))
    assert got == _outcome(lambda: _dense_glue(k1, k2, ["c"]))
    assert (got[0], got[-1], got[-2]) == (("a", "b", "d"), 0, Fraction(1, 2))


def test_the_volume_factors_of_a_deformed_patch_read_no_row_scales(monkeypatch):
    # the pop-ups leave interior rows that vanish up to round-off; with no NaN scale set, a row at or below
    # _ABS_FLOOR is a volume factor at once.  The scale list is the one list the engine hands _max_abs (a row
    # scale reads dict values), and surface_kernel runs no compare
    walks, max_abs = [], og._max_abs

    def recording(values):
        if type(values) is list:
            walks.append(len(values))
        return max_abs(values)

    monkeypatch.setattr(og, "_max_abs", recording)
    surface = qs.random_deformation(qs.flat_patch(8, 8), np.random.default_rng(1), 32)
    kernel = qs.surface_kernel(surface, qs.canonical_lattice_coeffs(3.0, 2.0, 1.0))
    assert kernel.vol_pow == 28 and len(kernel.vars) == 81
    assert walks == []


def _max_abs_through_sum(values):
    """max |x| as the engine read a row scale before _max_abs: the magnitudes'
    sum, which is NaN exactly when one is and 0.0 on an empty row, then, when
    it is positive, their max."""
    mags = list(map(abs, values))
    s = sum(mags, 0.0)
    return max(mags) if s > 0.0 else s


def _bits(x):
    """x's float64 bits, one value for every NaN."""
    return None if x != x else struct.pack("<d", x)


def _max_abs_rows():
    """5000 seeded rows of 0-40 floats from normals, ±0.0, ±inf and NaNs of
    either sign: first one row of each length 1-40 with one NaN at each
    position, the rest drawn at random."""
    rng = np.random.default_rng(20261021)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    rows = []
    for n in range(1, 41):
        for at in range(n):
            row = rng.normal(size=n).tolist()
            row[at] = math.nan
            rows.append(row)
    while len(rows) < 5000:
        n = int(rng.integers(0, 41))
        rows.append([specials[int(rng.integers(len(specials)))] if rng.random() < 0.1 else float(x)
                     for x in rng.normal(scale=10.0 ** rng.integers(-8, 9), size=n)])
    return rows


def test_max_abs_is_the_sum_then_max_idiom_bit_for_bit():
    rows = _max_abs_rows()
    assert len(rows) == 5000 and {len(row) for row in rows} == set(range(41))
    assert sum(any(x != x for x in row) for row in rows) > 1000
    for row in rows:
        got, want = og._max_abs(row), _max_abs_through_sum(row)
        assert type(got) is float and _bits(got) == _bits(want), row
        # the engine hands it a row's values, and the volume test the list of scales
        assert _bits(og._max_abs(dict(enumerate(row)).values())) == _bits(want)
        assert _bits(og._max_abs(iter(row))) == _bits(want)


@pytest.mark.parametrize("row, want", [
    ([], 0.0), ([0.0], 0.0), ([-0.0], 0.0), ([-0.0, -0.0, 0.0], 0.0), ([-3.0, 2.0], 3.0), ([2.0, -3.0], 3.0),
    ([1.0, -math.inf, 2.0], math.inf), ([math.nan], math.nan), ([math.inf, math.nan, -math.inf], math.nan),
    ([math.nan, 5.0, math.inf], math.nan), ([5.0, -math.nan], math.nan), ([np.float64(-2.5), 1.0], 2.5),
])
def test_max_abs_keeps_an_infinity_and_a_nan_anywhere(row, want):
    assert _bits(og._max_abs(row)) == _bits(want)
    assert _bits(og._max_abs(row)) == _bits(float(np.max(np.abs(row), initial=0.0)))


def test_max_abs_of_fraction_rows_is_the_exact_maximum():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        row = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-10**6, 10**6, size=n), rng.integers(1, 10**6, size=n))]
        got = og._max_abs(row)
        assert got == max(map(abs, row))
        assert type(got) is Fraction or got == 0
    # ties keep the first, as max does; an all-zero row reads 0.0
    assert og._max_abs([Fraction(1, 3), Fraction(-1, 3)]) == Fraction(1, 3)
    assert og._max_abs([Fraction(-1, 10**30), Fraction(1, 10**30 + 1)]) == Fraction(1, 10**30)
    assert og._max_abs([Fraction(0), Fraction(0)]) == 0.0


def _random_terms(rng):
    """Names and a quadratic dict (diagonal keys and both orders of a pair
    among them) for from_terms, of ordinary magnitudes."""
    n = int(rng.integers(1, 9))
    names = tuple(f"x{i}" for i in rng.permutation(n))
    quadratic = {}
    for _ in range(int(rng.integers(0, 3 * n))):
        u, w = (names[i] for i in rng.integers(0, n, size=2).tolist())
        quadratic[(u, w)] = float(rng.normal())
    return names, quadratic


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES + ["terms"]))
def test_library_built_kernels_pass_the_validating_constructor_unchanged(seed, shape):
    # from_terms and the engine build their kernels through _built, which runs no check: the validating
    # constructor's checks must pass on their fields, and its copies and conversions change nothing
    rng = np.random.default_rng(seed)
    if shape == "terms":
        names, quadratic = _random_terms(rng)
        variables = [v for v in names if rng.random() < 0.5]
        amp, pihbar = complex(*rng.normal(size=2)), Fraction(int(rng.integers(-4, 4)), 2)
        builds = [lambda: og.from_terms(names, quadratic, amp, pihbar),
                  lambda: og.marginalize_all(og._Terms(names, quadratic, amp, pihbar), variables)]
    else:
        with np.errstate(all="ignore"):
            kernel, variables = _random_kernel(rng, "chain" if shape == "glue" else shape)
        if shape == "glue":
            other, shared = _glue_partner(rng, kernel)
            builds = [lambda: og.glue(kernel, other, shared)]
        else:
            builds = [lambda: og.marginalize_all(kernel, variables)]
    for build in builds:
        try:
            with np.errstate(all="ignore"):
                k = build()
        except NearCaustic:
            continue
        fields = (k.vars, k.entries, k.amp, k.pihbar_pow, k.vol_pow, k.constraints)
        if not _finite(k):
            with pytest.raises(ValueError, match="not finite"):
                og.OscKernel(*fields)
            continue
        rebuilt = og.OscKernel(*fields)
        assert (type(k.vars), type(k.amp), type(k.pihbar_pow), type(k.constraints)) == (tuple, complex, Fraction, tuple)
        assert rebuilt.entries == k.entries and rebuilt.entries is not k.entries
        assert (k.A.dtype, k.A.shape) == (rebuilt.A.dtype, rebuilt.A.shape)
        assert _outcome(lambda: rebuilt) == _outcome(lambda: k)


@pytest.mark.parametrize("build", [
    lambda: og.OscKernel(("x", "x"), {}),
    lambda: og.from_terms(("x", "x"), {("x", "x"): 1.0}),
    # the builders' monomial form: the second "x" once merged into the first, giving A = [[3.0]] over ('x',)
    lambda: og.marginalize_all(og._Terms(("x", "x", "y"), {("x", "y"): 1.0, ("y", "y"): 0.5, ("x", "x"): 2.0},
                                         1 + 0j, Fraction(0)), ["y"]),
], ids=["OscKernel", "from_terms", "_Terms"])
def test_repeated_variable_names_are_refused(build):
    # the engine maps names to positions, so a second copy of a name would vanish into the first
    with pytest.raises(VariableMismatch):
        build()


@pytest.mark.parametrize("quadratic, missing", [
    ({("x", "y"): 1.0}, "y"),
    ({("w", "x"): 1.0, ("x", "v"): 1.0}, "w"),
])
def test_from_terms_refuses_a_name_outside_vars(quadratic, missing):
    # the first name, in dict order, that vars does not hold
    with pytest.raises(VariableMismatch, match=f"no variable '{missing}'"):
        og.from_terms(("x",), quadratic)


@pytest.mark.parametrize("name, value", [
    ("A", [[math.nan]]), ("A", [[-math.inf]]), ("A", [[math.inf]]), ("amp", complex(-math.inf, 0.0)),
    ("amp", complex(math.nan, 0.0)), ("amp", complex(1.0, math.inf)),
    ("constraints", (og.AffineConstraint((("x", math.nan),)),)),
    ("constraints", (og.AffineConstraint((("x", -math.inf),)),)),
])
def test_the_constructor_refuses_a_non_finite_entry(name, value):
    # as from_json and to_json do; a NaN kernel is built only inside the library, or by _built
    # from_dense hands A's entries to the constructor, whose check this is
    fields = {"vars": ("x",), "A": [[1.0]], "amp": 1.0}
    with pytest.raises(ValueError, match="not finite"):
        from_dense(**{**fields, name: value})


def _corner_kernels():
    """The kernels of the paths +hat +bar and +bar +hat at a point where mu + nu = pi: both are
    delta(xa + xb), and their exponents, +-0.862 (xa^2 - xb^2), agree only where it holds."""
    d = derive(LatticeParams(-2.367028322578623, 0.7746489092382554, 2.4986690620264893))
    return tuple(qprop1d.path_kernel(qprop1d.TimePath(steps), d) for steps in (("+hat", "+bar"), ("+bar", "+hat")))


def test_compare_sees_the_corner_kernels_equal_on_their_constraint_surface():
    k1, k2 = _corner_kernels()
    assert [con.normalized().variables() for con in k1.constraints + k2.constraints] == [("xa", "xb")] * 2
    assert abs(k1.A - k2.A).max() > 3.4  # entry by entry they differ
    for pair in ((k1, k2), (k2, k1)):
        assert og.compare(*pair).exponent_diff <= 1e-13
    # the prop1d suite's corner record at that point passes with them
    report = run(SuiteConfig(params=((-2.367028322578623, 0.7746489092382554, 2.4986690620264893),),
                             suites=("prop1d",), trials=10))
    (corner,) = [rec for rec in report.records if rec.name == "corner-square-loop"]
    assert corner.passed and corner.residual <= 1e-13


def test_compare_still_fails_a_pair_that_differs_on_the_constraint_surface():
    k1, k2 = _corner_kernels()
    # 0.1 xa^2 is 0.1 xb^2 where xa = -xb
    bumped = _replace(k2, A=k2.A + np.diag([0.1, 0.0]))
    for pair in ((k1, bumped), (bumped, k1)):
        assert og.compare(*pair).exponent_diff == pytest.approx(0.1, abs=1e-12)
    # delta(x - y): x^2 - y^2 vanishes on the surface, x^2 + y^2 does not
    con = (og.AffineConstraint((("x", 1.0), ("y", -1.0))),)
    zero, odd, even = (built(("x", "y"), np.diag(a), 1.0 + 0.0j, Fraction(1), 0, con)
                       for a in ([0.0, 0.0], [1.0, -1.0], [1.0, 1.0]))
    assert og.compare(zero, odd).exponent_diff == 0.0
    assert og.compare(zero, even).exponent_diff == 2.0


def test_compare_still_refuses_or_fails_different_constraints():
    k1, _ = _corner_kernels()
    # a constraint over other variables raises, one over the same variables fails by its coefficients
    other = _replace(k1, constraints=(og.AffineConstraint((("xa", 1.0),)),))
    for pair in ((k1, other), (other, k1)):
        with pytest.raises(VariableMismatch, match="tie different variables"):
            og.compare(*pair)
    tilted = _replace(k1, constraints=(og.AffineConstraint((("xa", 1.0), ("xb", -0.5))),))
    assert og.compare(k1, tilted).exponent_diff >= 1.5


def _delta_kernel(vars, A, rows):
    """The kernel of A over vars with one delta constraint per row of coefficients."""
    return from_dense(vars, A, constraints=tuple(og.AffineConstraint(tuple(zip(vars, row))) for row in rows))


def test_the_amp_ratio_of_delta_kernels_is_the_determinant_that_relates_their_constraints():
    # delta(M C v) = delta(C v) / |det M|: the same form under C and M C, and the same amp, differ by |det M|
    vars = ("w", "x", "y", "z")
    A = np.array([[1.0, 0.5, 0.0, -2.0], [0.5, -1.0, 0.25, 0.0], [0.0, 0.25, 3.0, 1.0], [-2.0, 0.0, 1.0, 0.5]])
    C = np.array([[1.0, 2.0, -1.0, 0.5], [0.5, -1.0, 1.0, 2.0]])
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    k1, k2 = (_delta_kernel(vars, A, rows.tolist()) for rows in (C, M @ C))
    det = abs(np.linalg.det(M))
    assert og.compare(k1, k2).amp_ratio == pytest.approx(det, rel=1e-12)
    assert og.compare(k2, k1).amp_ratio == pytest.approx(1.0 / det, rel=1e-12)
    assert og.compare(k1, k1).amp_ratio == 1.0


def test_compare_refuses_a_lead_to_which_the_second_kernel_gives_a_zero_coefficient():
    # k1's constraint x + y/2 leads with x, which k2's y ties with a 0.0 coefficient
    A = np.array([[1.0, 0.5], [0.5, -2.0]])
    k1, k2 = (_delta_kernel(("x", "y"), A, [row]) for row in ([1.0, 0.5], [0.0, 1.0]))
    with pytest.raises(VariableMismatch, match="give 'x' no coefficient"):
        og.compare(k1, k2)


def test_compare_puts_a_long_delta_chain_on_its_surface_with_no_dense_matrix(monkeypatch):
    # v0 = v2999 moves v0's couplings only, so a bump of A_56 is the whole difference on the surface
    names = tuple(f"v{i}" for i in range(3000))
    quadratic = {(u, u): 1.0 for u in names} | {pair: 0.5 for pair in zip(names, names[1:])}
    chain = og.from_terms(names, quadratic)
    bumped = {**chain.entries, (5, 6): 0.5 + 1e-3}
    con = (og.AffineConstraint(((names[0], 1.0), (names[-1], -1.0))),)
    k1, k2 = (og.OscKernel._built(names, entries, chain.amp, chain.pihbar_pow, 0, con)
              for entries in (chain.entries, bumped))

    def dense(self):
        raise AssertionError("compare builds no dense matrix")

    monkeypatch.setattr(og.OscKernel, "A", property(dense))
    diff = og.compare(k1, k2)
    assert (diff.exponent_diff, diff.amp_ratio, diff.vol_diff) == (abs(0.5 - (0.5 + 1e-3)), 1.0, 0)


def _restricted(A, vars, cons, leads):
    """The oracle of compare's reduction: A over vars on the solutions of the constraints, v = T w over the
    variables other than `leads`, whose values numpy.linalg.solve gives; T^T A T."""
    n = len(vars)
    C = np.array([[con.coefficient(v) for v in vars] for con in cons])
    at = [vars.index(v) for v in leads]
    free = [i for i in range(n) if i not in at]
    T = np.zeros((n, len(free)))
    T[free, range(len(free))] = 1.0
    T[at] = -np.linalg.solve(C[:, at], C[:, free])
    return T.T @ A @ T


@pytest.mark.parametrize("cons, leads", [
    # y leads x + 2y - z, the largest coefficient
    ([(("x", 1.0), ("y", 2.0), ("z", -1.0))], ("y",)),
    # w + x + z sorts first and w leads it; x + y is untouched by w's substitution, and x leads it
    ([(("x", 1.0), ("y", 1.0)), (("x", 1.0), ("z", 1.0), ("w", 1.0))], ("w", "x")),
    # x - y + z/2 sorts first and x leads it; substituting x = y - z/2 makes x + y into 2y - z/2, and y leads it
    ([(("x", 1.0), ("y", 1.0)), (("x", 1.0), ("y", -1.0), ("z", 0.5))], ("x", "y")),
    # x + y sorts first and x leads it; substituting x = -y makes x + y + z into z, and z leads it
    ([(("x", 1.0), ("y", 1.0)), (("x", 1.0), ("y", 1.0), ("z", 1.0))], ("x", "z")),
])
def test_the_constraint_surface_form_is_the_restricted_quadratic_form(cons, leads, rng):
    # the engine's delta steps leave the restricted form over the other variables, and divide amp by |det C_L|
    vars = ("z", "x", "w", "y")
    cons = tuple(og.AffineConstraint(con) for con in cons)
    C_L = np.array([[con.coefficient(v) for v in leads] for con in cons])
    for M in rng.normal(size=(10, 4, 4)):
        A = 0.5 * (M + M.T)
        got, _ = on_surface(*[from_dense(vars, A, amp=2.0, constraints=cons)] * 2)
        assert got.vars == tuple(v for v in vars if v not in leads) and not got.constraints
        np.testing.assert_allclose(got.A, _restricted(A, vars, cons, leads), rtol=1e-12, atol=1e-12)
        assert got.amp == pytest.approx(2.0 / abs(np.linalg.det(C_L)), rel=1e-12)


def test_a_constraint_that_the_others_imply_is_skipped(rng):
    # after x = -y, the second x + y reads 0 = 0, and the engine drops it
    vars, con = ("z", "x", "w", "y"), og.AffineConstraint((("x", 1.0), ("y", 1.0)))
    M = rng.normal(size=(4, 4))
    A = 0.5 * (M + M.T)
    once, twice = (on_surface(*[from_dense(vars, A, constraints=cons)] * 2)[0] for cons in ([con], [con, con]))
    assert once.vars == twice.vars == ("z", "w", "y") and not once.constraints and not twice.constraints
    assert (once.entries, once.amp) == (twice.entries, twice.amp)


def _nonzero_constraints(kernel):
    """The kernel's constraints as sorted tuples of their nonzero entries, an all-zero one left out."""
    return sorted(tuple(sorted((v, cv) for v, cv in con.coeffs if cv)) for con in kernel.constraints
                  if any(cv for _, cv in con.coeffs))


def test_a_zero_coefficient_on_an_integrated_variable_is_ignored():
    # x is consumed by its own delta first; substituting y away through the other constraint must not bring x,
    # which that constraint names with a zero coefficient, back into the rows: that ended in a KeyError
    A = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, 3.0]])
    cons = (og.AffineConstraint((("x", 0.0), ("y", 1.0), ("z", 1.0))), og.AffineConstraint((("x", 1.0),)))
    stripped = (og.AffineConstraint((("y", 1.0), ("z", 1.0))), cons[1])
    out, want = (og.marginalize_all(from_dense(("x", "y", "z"), A, constraints=table), ("x", "y"))
                 for table in (cons, stripped))
    assert out.vars == want.vars == ("z",)
    assert (out.A.tobytes(), out.amp, out.pihbar_pow, out.vol_pow) == (want.A.tobytes(), want.amp, want.pihbar_pow,
                                                                         want.vol_pow)
    assert out.constraints == want.constraints == ()


def test_zero_constraint_coefficients_change_no_elimination():
    # random kernels with delta constraints, integrated with and without a zero coefficient added to each
    # constraint on a random variable of the kernel: the same kernel, or the same error
    rng = np.random.default_rng(31)
    for _ in range(300):
        names = [f"v{i}" for i in rng.permutation(6)[:rng.integers(2, 7)]]
        n = len(names)
        A = rng.choice([0.0, 0.0, 1.0, -1.0, 2.0, 1e-12, 0.7], size=(n, n))
        A = np.triu(A) + np.triu(A, 1).T
        cons = [tuple((str(v), float(c)) for v, c in zip(rng.permutation(names)[:rng.integers(1, 3)],
                                                           rng.choice([1.0, -2.0, 0.5], size=2)))
                for _ in range(rng.integers(1, 3))]
        padded = [con + ((str(rng.choice(names)), 0.0),) for con in cons]
        padded = [tuple(dict(con[::-1]).items())[::-1] for con in padded]  # a name listed once, its first entry kept
        integrated = [str(v) for v in rng.permutation(names)[:rng.integers(1, n + 1)]]
        outcomes = []
        for table in (cons, padded):
            kernel = from_dense(tuple(names), A, constraints=tuple(og.AffineConstraint(c) for c in table))
            try:
                out = og.marginalize_all(kernel, integrated)
            except (NearCaustic, VariableMismatch) as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append((out.vars, out.A.tobytes(), out.amp, out.pihbar_pow, out.vol_pow,
                                 _nonzero_constraints(out)))
        assert outcomes[0] == outcomes[1]
