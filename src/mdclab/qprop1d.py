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
Multi-time propagation replaces mu N by mu N + nu M.  The composed kernels
at several lengths come from one chain of one-step kernels, each length
continuing from the kernel of the one before (n_step_kernels).

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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    CausticError,
    DegenerateCoeffs,
    NearCaustic,
    OutOfRegime,
)
from .oscgauss import AffineConstraint, KernelDiff, OscKernel, _eliminate, _Terms, compare, from_terms, marginalize_all
from .reduction import OscillatorCoeffs, closure_coeffs, direction_constants

if TYPE_CHECKING:
    from .params import DerivedParams

CAUSTIC_TOL = 1e-6

STEPS = ("+hat", "-hat", "+bar", "-bar")


def _step_amp(derived: "DerivedParams", direction: str) -> complex:
    """The one-step amplitude sqrt((P+W)/w) exp(i pi/4); OutOfRegime at an
    elliptic point where (P+W)/w is not positive."""
    derived.require_elliptic()
    plus, _, w = direction_constants(derived, direction)
    if plus / w <= 0:
        raise OutOfRegime(f"prefactor (P+{direction} constant)/{w} is not positive")
    return math.sqrt(plus / w) * cmath.exp(1j * math.pi / 4.0)


def _one_steps(direction: str, derived: "DerivedParams", names: tuple[str, ...]) -> list[_Terms]:
    """The monomials of the one-step propagators from names[k] to
    names[k + 1], in the form from_terms takes."""
    amp = _step_amp(derived, direction)
    plus, minus, w = direction_constants(derived, direction)
    cross, square, pihbar = plus / w, 0.5 * minus / w, Fraction(-1, 2)
    return [_Terms((x, xh), {(x, xh): cross, (x, x): square, (xh, xh): square}, amp, pihbar)
            for x, xh in zip(names, names[1:])]


def one_step_kernel(direction: str, derived: "DerivedParams") -> OscKernel:
    """Exact one-step propagator kernel in the given direction, from xa to xb."""
    (step,) = _one_steps(direction, derived, ("xa", "xb"))
    return from_terms(step.vars, step.quadratic, amp=step.amp, pihbar_pow=step.pihbar_pow)


def momentum_factorized_kernel(
    derived: "DerivedParams",
    direction: str = "hat",
    zero_potential: bool = False,
) -> OscKernel:
    """<xh| exp(iV/2hbar) exp(iT/hbar) exp(iV/2hbar) |x> via a momentum insertion.

    V(x) = 2 P x^2 / q and T(X) = q X^2 / (2 (P+Q)); the two plane-wave
    overlaps supply exponent terms (xh - x) X and a (2 pi hbar)^-1 weight, and
    the momentum is integrated out exactly.  Must reproduce one_step_kernel.
    With zero_potential=True the V factors are dropped (a pure Fourier pair).
    The endpoints are named xa and xb.
    """
    plus, _, w = direction_constants(derived, direction)
    x, xh = "xa", "xb"
    mom = "Xmom"
    vterm = 0.0 if zero_potential else derived.P / w
    quadratic = {(x, x): vterm, (xh, xh): vterm, (mom, mom): 0.5 * w / plus, (xh, mom): 1.0, (x, mom): -1.0}
    return marginalize_all(_Terms((x, mom, xh), quadratic, 1.0 + 0.0j, Fraction(-1)), [mom])


def _angle(derived: "DerivedParams", direction: str) -> float:
    mu, nu = derived.require_elliptic()
    direction_constants(derived, direction)  # ValueError on an unknown direction
    return mu if direction == "hat" else nu


def _off_caustic_sin(theta: float) -> float:
    """sin(theta); CausticError when it is numerically on a caustic."""
    sin_t = math.sin(theta)
    if abs(sin_t) < CAUSTIC_TOL:
        raise CausticError(f"caustic at total angle {theta!r}")
    return sin_t


def _closed_form_coeffs(theta: float, derived: "DerivedParams") -> tuple[float, float]:
    """The closed-form kernel's coefficients of xa^2 (and of xb^2) and of
    xa xb for a total rotation angle theta.

    Raises CausticError when sin(theta) is numerically on a caustic.
    """
    sin_t = _off_caustic_sin(theta)
    root_p = math.sqrt(derived.P)
    return -root_p * math.cos(theta) / sin_t, 2.0 * root_p / sin_t


def _closed_form_terms(theta: float, derived: "DerivedParams") -> _Terms:
    """The monomials of the closed-form kernel from xa to xb for a total
    rotation angle theta, in the form from_terms takes.

    Raises CausticError when sin(theta) is numerically on a caustic.
    """
    square, cross = _closed_form_coeffs(theta, derived)
    x, y = "xa", "xb"
    phase = math.pi / 4.0 + (math.pi / 2.0) * math.floor(theta / math.pi)
    # |2 sqrt(P) / sin(theta)| is 2 sqrt(P) / |sin(theta)| bit for bit: a quotient's rounding ignores its sign
    amp = math.sqrt(abs(cross)) * cmath.exp(1j * phase)
    return _Terms((x, y), {(x, y): cross, (x, x): square, (y, y): square}, amp, Fraction(-1, 2))


def closed_form_kernel(theta: float, derived: "DerivedParams") -> OscKernel:
    """Harmonic-oscillator style kernel from xa to xb for a total rotation
    angle theta.

    Raises CausticError when sin(theta) is numerically on a caustic.
    """
    terms = _closed_form_terms(theta, derived)
    return from_terms(terms.vars, terms.quadratic, amp=terms.amp, pihbar_pow=terms.pihbar_pow)


def multi_time_closed_form(n: int, m: int, derived: "DerivedParams") -> OscKernel:
    """Closed form for a net displacement of n hat steps and m bar steps;
    (n, 0) and (0, m) are the closed forms of n_step_kernel."""
    mu, nu = derived.require_elliptic()
    return closed_form_kernel(n * mu + m * nu, derived)


def _require_steps(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one step")


def n_step_kernel(n: int, derived: "DerivedParams", direction: str = "hat") -> OscKernel:
    """n one-step kernels glued in sequence, from xa to xb: the one-length
    case of n_step_kernels."""
    (kernel,) = n_step_kernels((n,), derived, direction)
    return kernel


def n_step_kernels(lengths, derived: "DerivedParams", direction: str) -> tuple[OscKernel, ...]:
    """n_step_kernel at each of several increasing lengths, from one chain.

    The engine takes the one-step monomial forms as one chain, integrating
    s_k once the (k+1)-th step is added: the kernel the fold of glue calls
    would build, bit for bit.  Each later length's chain starts from the
    previous length's kernel, its endpoint still named s_n,
    ((K, ()), (step, (s_n,)), ...), which is the same fold; the endpoint of
    each kernel handed out is renamed xb.  The guard matches the closed
    form: CausticError iff sin(n * angle) is on a caustic, for the first
    such length and before anything is built.  Exact intermediate caustics
    are passed through as delta kernels by the engine.
    """
    lengths = tuple(lengths)
    if not lengths or any(later <= n for n, later in zip(lengths, lengths[1:])):
        raise ValueError(f"lengths must be a nonempty increasing sequence, got {lengths}")
    _require_steps(lengths[0])
    angle = _angle(derived, direction)
    for n in lengths:
        _off_caustic_sin(n * angle)
    names = ("xa", *(f"s{k}" for k in range(1, lengths[-1] + 1)))
    steps = _one_steps(direction, derived, names)
    kernels, chain, done = [], None, 0
    for n in lengths:
        segment = [(step, step.vars[:1]) for step in steps[done:n]]
        if chain is None:
            segment[0] = (steps[0], ())
        else:
            segment.insert(0, (chain, ()))
        chain, done = _eliminate(segment), n
        kernels.append(_with_end_xb(chain))
    return tuple(kernels)


def _with_end_xb(kernel: OscKernel) -> OscKernel:
    """A chain's kernel over (xa, s_n) with s_n renamed xb."""
    end = kernel.vars[1]
    cons = tuple(AffineConstraint(tuple(("xb" if v == end else v, cv) for v, cv in con.coeffs))
                 for con in kernel.constraints)
    return OscKernel._built(("xa", "xb"), kernel.A, kernel.amp, kernel.pihbar_pow, kernel.vol_pow, cons)


# -- Tridiagonal fluctuation determinant ---------------------------------------

def tridiagonal_det(n: int, derived: "DerivedParams", hbar: float) -> complex:
    """Fluctuation determinant of the (n-1)-point quadratic form at the action
    scale hbar, by the recursion X_k = a X_{k-1} - b^2 X_{k-2} on the matrix size."""
    _require_steps(n)
    mu, _ = derived.require_elliptic()
    scale = 1j * (derived.P + derived.Q) / (hbar * derived.q)
    a = scale * math.cos(mu)
    x_prev: complex = 1.0 + 0.0j  # empty determinant
    x_cur: complex = a
    if n < 3:
        return x_prev if n == 1 else x_cur
    # b^2 only once the recursion runs: near hbar = 0 it overflows where a is finite
    b2 = (scale * (-0.5)) ** 2
    for _ in range(n - 2):
        x_prev, x_cur = x_cur, a * x_cur - b2 * x_prev
    return x_cur


def tridiagonal_det_closed_form(n: int, derived: "DerivedParams", hbar: float) -> complex:
    """(i (P+Q) / (2 hbar q))^(n-1) * sin(n mu)/sin(mu) at the action scale hbar."""
    _require_steps(n)
    mu, _ = derived.require_elliptic()
    base = 1j * (derived.P + derived.Q) / (2.0 * hbar * derived.q)
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

    @staticmethod
    def monotone(n: int, m: int) -> "TimePath":
        """n hat steps, then m bar steps."""
        if n < 0 or m < 0:
            raise ValueError(f"negative step count ({n}, {m})")
        return TimePath(("+hat",) * n + ("+bar",) * m)

    def with_loop(self, position: int) -> "TimePath":
        """Insert a unit four-step loop at a visit position, 0 to len(steps);
        ValueError outside."""
        if not 0 <= position <= len(self.steps):
            raise ValueError(f"loop position {position} outside 0..{len(self.steps)}")
        loop = ("+hat", "+bar", "-hat", "-bar")
        return TimePath(self.steps[:position] + loop + self.steps[position:])


def random_path(rng: np.random.Generator, n: int, m: int) -> TimePath:
    """Random path from (0,0) to (n,m): shuffled forward steps plus two
    cancelling backward/forward pairs, with a unit loop inserted half the time."""
    steps = list(TimePath.monotone(n, m).steps)
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
) -> OscKernel:
    """Propagator along a time path, all interior visits integrated out.

    Every visit gets its own variable, revisits included.  With coeffs=None
    the closed-form Lagrangians and the full per-step normalization are used;
    with explicit coefficients the per-step normalization is left at one and
    only the exponent is meaningful.  The endpoints are named xa and xb, the
    interior visits t1, t2, ....
    """
    if not path.steps:
        raise ValueError("empty path")
    names = ("xa", *(f"t{k}" for k in range(1, len(path.steps))), "xb")
    amp: complex = 1.0 + 0.0j
    if coeffs is None:
        # each step kind's amplitude, conjugated for a backward step
        step_amp = {}
        for direction in {step[1:] for step in path.steps}:
            a_step = _step_amp(derived, direction)
            step_amp["+" + direction], step_amp["-" + direction] = a_step, a_step.conjugate()
        for step in path.steps:
            amp *= step_amp[step]
        cf = closure_coeffs(derived)
        pihbar = Fraction(-len(path.steps), 2)
    else:
        cf = coeffs
        pihbar = Fraction(0)
    return marginalize_all(_PathSteps(names, path.steps, cf, amp, pihbar), names[1:-1])


class _PathSteps(NamedTuple):
    """The one-step Lagrangians along a walk whose k-th step runs from
    vars[k] to vars[k + 1], as an engine part: _add_into writes their
    monomials straight into the engine's rows."""

    vars: tuple[str, ...]
    steps: tuple[str, ...]
    cf: OscillatorCoeffs
    amp: complex
    pihbar_pow: Fraction
    vol_pow: int = 0
    constraints: tuple[AffineConstraint, ...] = ()

    def _add_into(self, rows, at) -> list[int]:
        """Add the steps' monomials into the engine's sparse rows, whose
        position of a name `at` gives, and return the positions of vars.

        Each step kind has coefficients of early * late, early^2 and late^2;
        a backward step uses -L(destination, source).  A step's cross term is
        an entry of its own, added onto the rows' value.  A visit's square
        sums from 0.0 its coefficient in the step that arrives, then in the
        one that leaves, and is doubled once: the sums of the monomials in
        step order, bit for bit."""
        cf, kinds = self.cf, {}
        for step in STEPS:
            lead, d_par, d0 = (cf.beta, cf.b, cf.b0) if step[1:] == "hat" else (cf.alpha, cf.a, cf.a0)
            forward = step[0] == "+"
            sign = 1.0 if forward else -1.0
            cross, early_square, late_square = sign * lead, sign * lead * (d_par - d0), sign * lead * d0
            # the coefficients of cur * nxt, cur^2 and nxt^2 for a step from cur to nxt
            kinds[step] = (cross, early_square, late_square) if forward else (cross, late_square, early_square)
        pos = [at[v] for v in self.vars]
        # square: 0.0 plus the current visit's coefficient in the step that arrived there, if any
        square, cur = 0.0, pos[0]
        for step, nxt in zip(self.steps, pos[1:]):
            cross, cur_square, nxt_square = kinds[step]
            row = rows[cur]
            row[cur] = row.get(cur, 0.0) + 2.0 * (square + cur_square)
            row[nxt] = rows[nxt][cur] = row.get(nxt, 0.0) + cross
            square, cur = 0.0 + nxt_square, nxt
        row = rows[cur]
        row[cur] = row.get(cur, 0.0) + 2.0 * square
        return pos


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


def uniqueness_scan_1form(derived: "DerivedParams", coeffs: OscillatorCoeffs) -> KernelDiff:
    """Corner-swap test for one coefficient point.

    The two corner propagators (hat-then-bar and bar-then-hat) are path
    kernels with undetermined normalization, exponents only; their
    comparison is returned, and the coefficients pass where its
    exponent_diff is within the harness's uniq1d_pass.  The amplitude ratio
    comes alongside (the Gaussian pivots coincide whenever the exponents do).
    """
    try:
        k_lr = path_kernel(TimePath(("+hat", "+bar")), derived, coeffs)
        k_ul = path_kernel(TimePath(("+bar", "+hat")), derived, coeffs)
    except NearCaustic as exc:
        raise DegenerateCoeffs(f"corner pivot vanished: {exc}") from exc
    if k_lr.constraints or k_ul.constraints:
        raise DegenerateCoeffs("corner pivot vanished exactly: delta kernel")
    return compare(k_lr, k_ul)


# -- Operator invariant in kernel form -----------------------------------------

def invariant_kernel_residual(n: int, derived: "DerivedParams", direction: str, hbar: float) -> float:
    """Relative coefficient residual of (-hbar^2 d^2/dx^2 + 4 P x^2) K sym-swapped.

    Applying the operator at either endpoint of the n-step closed-form kernel
    gives a polynomial times K.  With alpha the coefficient of each endpoint's
    square in the exponent matrix and gamma the coupling, the polynomial at
    xa has the coefficients -i hbar alpha, alpha^2 + 4P for xa^2, gamma^2 for
    xb^2 and 2 alpha gamma for xa xb, and the one at xb swaps the two squares.
    They differ by |alpha^2 + 4P - gamma^2|, which vanishes because
    gamma^2 = alpha^2 + 4P, the kernel image of the shared invariant.  The
    difference is scaled by the largest coefficient, which keeps parameter
    sweeps comparable when the coefficients grow large; a NaN stays NaN.
    """
    square, gamma = _closed_form_coeffs(n * _angle(derived, direction), derived)
    alpha = 2.0 * square
    at_self = alpha**2 + 4.0 * derived.P
    scale = max(abs(hbar * alpha), abs(at_self), abs(gamma**2), abs(2.0 * alpha * gamma))
    return abs(at_self - gamma**2) / scale
