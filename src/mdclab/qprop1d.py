"""Quantum mappings of the 3-point reduction: exact discrete propagators.

The one-step propagator in the primary (hat) direction is

    K_b(x, xh) = sqrt(i (P+Q) / (2 pi hbar q))
                 * exp[(i/hbar q) ((P+Q) x xh + (P-Q)(x^2 + xh^2)/2)],

i.e. amplitude modulus sqrt((P+Q)/q), phase pi/4, one factor (2 pi hbar)^-1/2,
and the closed-form one-step Lagrangian in the exponent.  The bar direction
replaces (Q, q) by (R, r).  Composing N steps gives the closed form

    exponent = sqrt(P)/sin(mu N) * [2 x0 xN - (x0^2 + xN^2) cos(mu N)]

with amplitude modulus sqrt(2 sqrt(P)/|sin(mu N)|) and phase
pi/4 + (pi/2) floor(mu N / pi): every Gaussian pivot crossed past a caustic
advances the phase by pi/2, and the bookkeeping here reproduces that count.
Multi-time propagation replaces mu N by mu N + nu M.

A time path is a walk in the two discrete time directions; each visit gets a
fresh integration variable, backward steps contribute the negated Lagrangian
with a conjugated step amplitude, and the path kernel integrates all interior
visits.  For the closed-form Lagrangians the result depends only on the
endpoints; the coefficient scan shows that property pins the Lagrangians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CausticError,
    DegenerateCoeffs,
    NearCaustic,
    OutOfRegime,
)
from .oscgauss import OscKernel, compare, from_terms, glue, marginalize_terms, rename
from .reduction import OscillatorCoeffs, closure_coeffs

if TYPE_CHECKING:
    from .params import DerivedParams

CAUSTIC_TOL = 1e-6

STEPS = ("+hat", "-hat", "+bar", "-bar")


def _direction_constants(derived: "DerivedParams", direction: str) -> tuple[float, float, float]:
    """(P + W, P - W, w) with (W, w) = (Q, q) or (R, r)."""
    if direction == "hat":
        return derived.P + derived.Q, derived.P - derived.Q, derived.q
    if direction == "bar":
        return derived.P + derived.R, derived.P - derived.R, derived.r
    raise ValueError(f"unknown direction {direction!r}")


def one_step_kernel(
    direction: str,
    derived: "DerivedParams",
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """Exact one-step propagator kernel in the given direction."""
    derived.require_elliptic()
    plus, minus, w = _direction_constants(derived, direction)
    if plus / w <= 0:
        raise OutOfRegime(f"prefactor (P+{direction} constant)/{w} is not positive")
    x, xh = labels
    return from_terms(
        vars=labels,
        quadratic={(x, xh): plus / w, (x, x): 0.5 * minus / w, (xh, xh): 0.5 * minus / w},
        amp=math.sqrt(plus / w) * cmath.exp(1j * math.pi / 4.0),
        pihbar_pow=Fraction(-1, 2),
        hbar=derived.hbar,
    )


def momentum_factorized_kernel(
    derived: "DerivedParams",
    direction: str = "hat",
    labels: tuple[str, str] = ("xa", "xb"),
    zero_potential: bool = False,
) -> OscKernel:
    """<xh| exp(iV/2hbar) exp(iT/hbar) exp(iV/2hbar) |x> via a momentum insertion.

    V(x) = 2 P x^2 / q and T(X) = q X^2 / (2 (P+Q)); the two plane-wave
    overlaps supply exponent terms (xh - x) X and a (2 pi hbar)^-1 weight, and
    the momentum is integrated out exactly.  Must reproduce one_step_kernel.
    With zero_potential=True the V factors are dropped (a pure Fourier pair).
    """
    plus, _minus, w = _direction_constants(derived, direction)
    x, xh = labels
    mom = "Xmom"
    vterm = 0.0 if zero_potential else derived.P / w
    return marginalize_terms(
        vars=(x, mom, xh),
        quadratic={
            (x, x): vterm,
            (xh, xh): vterm,
            (mom, mom): 0.5 * w / plus,
            (xh, mom): 1.0,
            (x, mom): -1.0,
        },
        variables=[mom],
        keep={x, xh},
        amp=1.0,
        pihbar_pow=Fraction(-1),
        hbar=derived.hbar,
    )


def _angle(derived: "DerivedParams", direction: str) -> float:
    mu, nu = derived.require_elliptic()
    return mu if direction == "hat" else nu


def closed_form_kernel(
    theta: float,
    derived: "DerivedParams",
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """Harmonic-oscillator style kernel for a total rotation angle theta.

    Raises CausticError when sin(theta) is numerically on a caustic.
    """
    sin_t = math.sin(theta)
    if abs(sin_t) < CAUSTIC_TOL:
        raise CausticError(f"caustic at total angle {theta!r}")
    root_p = math.sqrt(derived.P)
    x, y = labels
    phase = math.pi / 4.0 + (math.pi / 2.0) * math.floor(theta / math.pi)
    return from_terms(
        vars=labels,
        quadratic={
            (x, y): 2.0 * root_p / sin_t,
            (x, x): -root_p * math.cos(theta) / sin_t,
            (y, y): -root_p * math.cos(theta) / sin_t,
        },
        amp=math.sqrt(2.0 * root_p / abs(sin_t)) * cmath.exp(1j * phase),
        pihbar_pow=Fraction(-1, 2),
        hbar=derived.hbar,
    )


def n_step_closed_form(
    n: int,
    derived: "DerivedParams",
    direction: str = "hat",
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """Closed form for n forward steps in one direction."""
    return closed_form_kernel(n * _angle(derived, direction), derived, labels)


def multi_time_closed_form(
    n: int,
    m: int,
    derived: "DerivedParams",
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """Closed form for a net displacement of n hat steps and m bar steps."""
    mu, nu = derived.require_elliptic()
    return closed_form_kernel(n * mu + m * nu, derived, labels)


def n_step_kernel(
    n: int,
    derived: "DerivedParams",
    direction: str = "hat",
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """n one-step kernels glued in sequence.

    The guard matches the closed form: CausticError iff sin(n * angle) is on
    a caustic.  Exact intermediate caustics are passed through as delta
    kernels by the marginalization engine.
    """
    if n < 1:
        raise ValueError("need at least one step")
    theta = n * _angle(derived, direction)
    if abs(math.sin(theta)) < CAUSTIC_TOL:
        raise CausticError(f"caustic at total angle {theta!r}")
    acc = one_step_kernel(direction, derived, (labels[0], "s1"))
    for k in range(1, n):
        nxt_label = labels[1] if k == n - 1 else f"s{k + 1}"
        step = one_step_kernel(direction, derived, (f"s{k}", nxt_label))
        acc = glue(acc, step, shared=(f"s{k}",))
    if n == 1:
        acc = rename(acc, {"s1": labels[1]})
    return acc


# -- Tridiagonal fluctuation determinant ---------------------------------------

def tridiagonal_det(n: int, derived: "DerivedParams") -> complex:
    """Fluctuation determinant of the (n-1)-point quadratic form, by the
    three-term recursion X_k = a X_{k-1} - b^2 X_{k-2} on the matrix size."""
    mu, _ = derived.require_elliptic()
    scale = 1j * (derived.P + derived.Q) / (derived.hbar * derived.q)
    a = scale * math.cos(mu)
    b2 = (scale * (-0.5)) ** 2
    x_prev: complex = 1.0 + 0.0j  # empty determinant
    x_cur: complex = a
    if n - 1 == 0:
        return x_prev
    for _ in range(n - 2):
        x_prev, x_cur = x_cur, a * x_cur - b2 * x_prev
    return x_cur


def tridiagonal_det_closed_form(n: int, derived: "DerivedParams") -> complex:
    """(i (P+Q) / (2 hbar q))^(n-1) * sin(n mu)/sin(mu)."""
    mu, _ = derived.require_elliptic()
    base = 1j * (derived.P + derived.Q) / (2.0 * derived.hbar * derived.q)
    return base ** (n - 1) * math.sin(n * mu) / math.sin(mu)


# -- Time paths -----------------------------------------------------------------

@dataclass(frozen=True)
class TimePath:
    """Oriented walk in the two discrete time directions."""

    steps: tuple[str, ...]

    def __post_init__(self):
        for s in self.steps:
            if s not in STEPS:
                raise ValueError(f"unknown step {s!r}")

    def displacement(self) -> tuple[int, int]:
        n = sum(1 for s in self.steps if s == "+hat") - sum(1 for s in self.steps if s == "-hat")
        m = sum(1 for s in self.steps if s == "+bar") - sum(1 for s in self.steps if s == "-bar")
        return n, m

    @staticmethod
    def monotone(n: int, m: int, hat_first: bool = True) -> "TimePath":
        hats, bars = ("+hat",) * n, ("+bar",) * m
        return TimePath(hats + bars if hat_first else bars + hats)

    def with_loop(self, position: int) -> "TimePath":
        """Insert a unit four-step loop at a visit position."""
        loop = ("+hat", "+bar", "-hat", "-bar")
        return TimePath(self.steps[:position] + loop + self.steps[position:])


def random_path(rng: np.random.Generator, n: int, m: int) -> TimePath:
    """Random path from (0,0) to (n,m): shuffled forward steps plus two
    cancelling backward/forward pairs, with a unit loop inserted half the time."""
    steps = ["+hat"] * n + ["+bar"] * m
    for _ in range(2):
        d = STEPS[2 * rng.integers(0, 2)]
        steps += [d, "-" + d[1:]]
    order = rng.permutation(len(steps))
    path = TimePath(tuple(steps[i] for i in order))
    if rng.random() < 0.5:
        path = path.with_loop(int(rng.integers(0, len(path.steps) + 1)))
    return path


def path_kernel(
    path: TimePath,
    derived: "DerivedParams",
    coeffs: OscillatorCoeffs | None = None,
    labels: tuple[str, str] = ("xa", "xb"),
) -> OscKernel:
    """Propagator along a time path, all interior visits integrated out.

    Every visit gets its own variable, revisits included.  With coeffs=None
    the closed-form Lagrangians and the full per-step normalization are used;
    with explicit coefficients the per-step normalization is left at one and
    only the exponent is meaningful.
    """
    if not path.steps:
        raise ValueError("empty path")
    if coeffs is None:
        derived.require_elliptic()
        cf = closure_coeffs(derived)
        plus_b = derived.P + derived.Q
        plus_a = derived.P + derived.R
        step_amp = {
            "hat": math.sqrt(plus_b / derived.q) * cmath.exp(1j * math.pi / 4.0),
            "bar": math.sqrt(plus_a / derived.r) * cmath.exp(1j * math.pi / 4.0),
        }
        pihbar = Fraction(-len(path.steps), 2)
    else:
        cf = coeffs
        step_amp = {"hat": 1.0 + 0.0j, "bar": 1.0 + 0.0j}
        pihbar = Fraction(0)

    names = tuple(f"t{k}" for k in range(len(path.steps) + 1))
    amp: complex = 1.0 + 0.0j
    for step in path.steps:
        a_step = step_amp[step[1:]]
        amp *= a_step if step.startswith("+") else a_step.conjugate()
    quad = _step_terms(path.steps, cf, names)
    kernel = marginalize_terms(
        names, quad, names[1:-1], keep={names[0], names[-1]}, amp=amp, pihbar_pow=pihbar, hbar=derived.hbar
    )
    return rename(kernel, {names[0]: labels[0], names[-1]: labels[1]})


def _step_terms(
    steps: tuple[str, ...], cf: OscillatorCoeffs, names: tuple[str, ...]
) -> dict[tuple[str, str], float]:
    """Exponent monomials of the one-step Lagrangians along a walk whose k-th
    step runs from names[k] to names[k + 1]."""
    quad: dict[tuple[str, str], float] = {}

    def add(pair: tuple[str, str], value: float) -> None:
        quad[pair] = quad.get(pair, 0.0) + value

    for k, step in enumerate(steps):
        cur, nxt = names[k], names[k + 1]
        forward = step.startswith("+")
        if step[1:] == "hat":
            lead, d_par, d0 = cf.beta, cf.b, cf.b0
        else:
            lead, d_par, d0 = cf.alpha, cf.a, cf.a0
        sign = 1.0 if forward else -1.0
        # backward steps use -L(destination, source)
        early, late = (cur, nxt) if forward else (nxt, cur)
        add((early, late), sign * lead)
        add((early, early), sign * lead * (d_par - d0))
        add((late, late), sign * lead * d0)
    return quad


# -- Uniqueness of the path-independent Lagrangians ----------------------------

def path_independent_coeffs(
    a: float, b: float, gamma: float = 1.0, f: float = 0.0
) -> OscillatorCoeffs:
    """The coefficient family that passes the corner swap, for free (a, b).

    alpha and beta are fixed up to one overall constant by
    alpha^2 (a^2 - 1) = beta^2 (b^2 - 1), and the quadratic weights sit at
    a0 = a/2 + f/(2 alpha), b0 = b/2 + f/(2 beta); f drops out of the swap.
    """
    da, db = a * a - 1.0, b * b - 1.0
    if da == 0.0 or db == 0.0 or (da > 0) != (db > 0):
        raise DegenerateCoeffs(
            f"no real coefficient ratio for a={a!r}, b={b!r}: mixed regimes"
        )
    alpha = gamma / math.sqrt(abs(da))
    beta = gamma / math.sqrt(abs(db))
    return OscillatorCoeffs(
        alpha=alpha, beta=beta, a0=0.5 * a + 0.5 * f / alpha, b0=0.5 * b + 0.5 * f / beta, a=a, b=b
    )


def uniqueness_scan_1form(derived: "DerivedParams", coeffs: OscillatorCoeffs, tol: float = 1e-9) -> dict:
    """Corner-swap test for one coefficient point.

    The two corner propagators (hat-then-bar and bar-then-hat) are path
    kernels with undetermined normalization, exponents only.  pass iff their
    exponents agree to tol; the amplitude ratio is reported alongside (the
    Gaussian pivots coincide whenever the exponents do).
    """
    try:
        k_lr = path_kernel(TimePath(("+hat", "+bar")), derived, coeffs)
        k_ul = path_kernel(TimePath(("+bar", "+hat")), derived, coeffs)
    except NearCaustic as exc:
        raise DegenerateCoeffs(f"corner pivot vanished: {exc}") from exc
    if k_lr.constraints or k_ul.constraints:
        raise DegenerateCoeffs("corner pivot vanished exactly: delta kernel")
    diff = compare(k_lr, k_ul)
    return {
        "pass": bool(diff.exponent_diff <= tol),
        "mismatch": diff.exponent_diff,
        "amp_ratio": diff.amp_ratio,
    }


# -- Operator invariant in kernel form -----------------------------------------

def invariant_kernel_residual(
    n: int, derived: "DerivedParams", direction: str = "hat", relative: bool = False
) -> float:
    """Coefficient residual of (-hbar^2 d^2/dx^2 + 4 P x^2) K sym-swapped.

    Applying the operator at either endpoint of the n-step kernel gives a
    polynomial times K; the residual is the max coefficient difference of the
    two polynomials.  It vanishes because the exponent coefficients satisfy
    gamma^2 = alpha^2 + 4P, the kernel image of the shared invariant.  With
    relative=True the residual is scaled by the largest coefficient, which
    keeps parameter sweeps comparable when the coefficients grow large.
    """
    kernel = n_step_closed_form(n, derived, direction)
    hbar = derived.hbar
    i0, i1 = 0, 1
    A, B = kernel.A, kernel.B
    four_p = 4.0 * derived.P

    def op_poly(at: int, other: int) -> dict[str, complex]:
        # (-hbar^2 d^2/d x_at^2 + 4P x_at^2) K / K as polynomial coefficients
        a_self = A[at, at]
        a_cross = A[at, other]
        b_lin = B[at]
        poly = {
            "const": -1j * hbar * a_self + b_lin * b_lin,
            "x0^2": a_self**2 + four_p if at == i0 else a_cross**2,
            "x1^2": a_self**2 + four_p if at == i1 else a_cross**2,
            "x0*x1": 2.0 * a_self * a_cross,
            "x0": 2.0 * (a_self if at == i0 else a_cross) * b_lin,
            "x1": 2.0 * (a_self if at == i1 else a_cross) * b_lin,
        }
        return poly

    lhs = op_poly(i0, i1)
    rhs = op_poly(i1, i0)
    worst = float(np.max([abs(lhs[k] - rhs[k]) for k in lhs]))
    if relative:
        worst /= max(abs(v) for v in lhs.values())
    return worst
