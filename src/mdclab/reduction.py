"""The 3-point staircase reduction: commuting maps, invariants, 1-form closure.

Periodic initial data (u0, u1, u2) with the third value wrapping around turn
the lattice equation into a 2D map on x = u1 - u0, y = u2 - u1.  Eliminating
y gives a discrete harmonic oscillator

    x_{m+1} + 2 b x_m + x_{m-1} = 0,      cos(mu) = -b,

and the third lattice direction supplies a second, commuting map with
constant a and angle nu.  Both maps are area preserving.  The closed-form
Lagrangians

    L_b(x, xh) = [(P+Q) x xh + (P-Q)(x^2 + xh^2)/2] / q
    L_a(x, xb) = [(P+R) x xb + (P-R)(x^2 + xb^2)/2] / r

satisfy the oriented four-term closure relation box(L) = 0 on shell and make
the two conjugate momenta agree; that momentum equality is the corner
equation.

The roles of the discrete time m and the parameter b can be exchanged: the
explicit solution x_m(b) = c1 sin(m mu) + c2 cos(m mu) obeys first and second
order differential equations in b, and together with the a-flow a continuous
two-parameter compatibility.

The momenta, the corner residuals and both invariants take floats or
same-shape arrays; on arrays every expression acts elementwise in the scalar
order, so an array call returns bit for bit the scalar calls' values.  The
explicit-solution check evaluates each grid point once, with the scalar
explicit_solution, and forms each residual as one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import OutOfRegime

if TYPE_CHECKING:
    from .params import DerivedParams


def commutator_residual(S: np.ndarray, T: np.ndarray) -> float:
    """Max-norm of S T - T S for two map matrices."""
    return float(np.max(np.abs(S @ T - T @ S)))


# -- Momenta and corner equations ----------------------------------------------

def direction_constants(derived: "DerivedParams", direction: str) -> tuple[float, float, float]:
    """(P + W, P - W, w) of the one-step Lagrangian in a direction, with
    (W, w) = (Q, q) for "hat" and (R, r) for "bar"; ValueError otherwise."""
    if direction == "hat":
        return derived.P + derived.Q, derived.P - derived.Q, derived.q
    if direction == "bar":
        return derived.P + derived.R, derived.P - derived.R, derived.r
    raise ValueError(f"unknown direction {direction!r}")


def momentum(x: float, xnext: float, derived: "DerivedParams", direction: str) -> float:
    """-dL/dx at the earlier point of the one-step Lagrangian in a direction:
    X_b for "hat" (xnext = xh), X_a for "bar" (xnext = xb)."""
    plus, minus, w = direction_constants(derived, direction)
    return -plus / w * xnext - minus / w * x


def corner_residuals(
    x: float, xh: float, xb: float, xhb: float, derived: "DerivedParams"
) -> tuple[float, float]:
    """Residuals of the two corner equations linking the two time directions."""
    plus_q, minus_q, q = direction_constants(derived, "hat")
    plus_r, minus_r, r = direction_constants(derived, "bar")
    c0 = minus_q / q - minus_r / r
    r1 = c0 * x - (plus_r / r * xb - plus_q / q * xh)
    r2 = c0 * xhb - (plus_r / r * xh - plus_q / q * xb)
    return abs(r1), abs(r2)


def invariant_eval(x: float, xnext: float, coeff: float) -> float:
    """Two-point quadratic invariant I_c(x, x') = x^2 + x'^2 + 2 c x x'."""
    return x * x + xnext * xnext + 2.0 * coeff * x * xnext


def invariant_common(x: float, X: float, P: float) -> float:
    """The shared one-point form X^2/2 + 2 P x^2 (a harmonic Hamiltonian)."""
    return 0.5 * X * X + 2.0 * P * x * x


def match_invariant_constant(samples: list[tuple[float, float]], derived: "DerivedParams") -> float:
    """Least-squares constant k with I(x, x_next) ~= k * (X^2/2 + 2 P x^2).

    The two-point and one-point invariants agree only up to a constant
    multiple; the constant is fixed empirically on sample data and then
    asserted elsewhere.
    """
    num = 0.0
    den = 0.0
    for x, xnext in samples:
        I2 = invariant_eval(x, xnext, derived.b)
        X = momentum(x, xnext, derived, "hat")
        c = invariant_common(x, X, derived.P)
        num += I2 * c
        den += c * c
    return num / den


# -- 1-form closure -----------------------------------------------------------

@dataclass(frozen=True)
class OscillatorCoeffs:
    """General quadratic one-step Lagrangian pair.

    L_a = alpha (x xb + (a - a0) x^2 + a0 xb^2),
    L_b = beta  (x xh + (b - b0) x^2 + b0 xh^2).
    """

    alpha: float
    beta: float
    a0: float
    b0: float
    a: float
    b: float

    def lag_a(self, x: float, xb: float) -> float:
        return self.alpha * (x * xb + (self.a - self.a0) * x * x + self.a0 * xb * xb)

    def lag_b(self, x: float, xh: float) -> float:
        return self.beta * (x * xh + (self.b - self.b0) * x * x + self.b0 * xh * xh)


def closure_coeffs(derived: "DerivedParams") -> OscillatorCoeffs:
    """The coefficient point at which the 1-form closes on shell."""
    plus_q, _, q = direction_constants(derived, "hat")
    plus_r, _, r = direction_constants(derived, "bar")
    return OscillatorCoeffs(
        alpha=plus_r / r,
        beta=plus_q / q,
        a0=0.5 * derived.a,
        b0=0.5 * derived.b,
        a=derived.a,
        b=derived.b,
    )


def oneform_closure_residual(x: float, xh: float, xb: float, xhb: float, coeffs: OscillatorCoeffs) -> float:
    """|box(L)| on the four corners of an elementary square.

    box(L) = L_a(xh, xhb) - L_a(x, xb) - L_b(xb, xhb) + L_b(x, xh).
    """
    box = coeffs.lag_a(xh, xhb) - coeffs.lag_a(x, xb) - coeffs.lag_b(xb, xhb) + coeffs.lag_b(x, xh)
    return abs(box)


# -- Explicit solutions -------------------------------------------------------

def explicit_solution(m: int, n: int, c1: float, c2: float, mu: float, nu: float) -> float:
    """Joint oscillatory solution x_{m,n} = c1 sin(mu m + nu n) + c2 cos(...)."""
    th = mu * m + nu * n
    return c1 * math.sin(th) + c2 * math.cos(th)


def solution_residuals(derived: "DerivedParams", c1: float, c2: float) -> dict[str, float]:
    """Max residuals of both oscillator equations and both corner equations
    over the 5-by-5 grid 0 <= m, n < 5 of the joint explicit solution.

    A hat step rotates by mu with the sign of q, a bar step by nu with the
    sign of r: sin(mu) = 2 q sqrt(P)/(P + Q) takes the sign of q, and the
    corner equations tell the two senses apart.
    """
    mu, nu = derived.require_elliptic()
    mu, nu = math.copysign(mu, derived.q), math.copysign(nu, derived.r)
    grid = range(-1, 6)
    x = np.array([[explicit_solution(m, n, c1, c2, mu, nu) for n in grid] for m in grid])
    cur = x[1:6, 1:6]  # x[m + 1, n + 1] is x at grid point (m, n)
    found = {
        "hat": abs(x[2:, 1:6] + 2 * derived.b * cur + x[:5, 1:6]),
        "bar": abs(x[1:6, 2:] + 2 * derived.a * cur + x[1:6, :5]),
    }
    found["corner1"], found["corner2"] = corner_residuals(cur, x[2:, 1:6], x[1:6, 2:], x[2:, 2:], derived)
    # numpy's max keeps a NaN that a running Python max would drop
    return {key: float(np.max(values, initial=0.0)) for key, values in found.items()}


# -- Continuous interpolating flows ------------------------------------------

def _solution_in_parameter(b: float, m: float, c1: float, c2: float) -> tuple[float, float, float]:
    """x, dx/db, d2x/db2 for x(b) = c1 sin(m mu(b)) + c2 cos(m mu(b)),
    mu = arccos(-b), evaluated analytically."""
    if abs(b) >= 1.0:
        raise OutOfRegime(f"parameter flow needs |b| < 1, got b={b!r}")
    mu = math.acos(-b)
    root = math.sqrt(1.0 - b * b)
    x = c1 * math.sin(m * mu) + c2 * math.cos(m * mu)
    xp = c1 * math.cos(m * mu) - c2 * math.sin(m * mu)  # (1/m) dx/dmu
    dx = m * xp / root
    d2x = (-m * m * x + b * m * xp / root) / (1.0 - b * b)
    return x, dx, d2x


def continuous_flow_residual(b: float, m: int, c1: float, c2: float) -> tuple[float, float, float]:
    """Residuals of the forward/backward first-order flows and the second
    order equation (1-b^2) x'' - b x' + m^2 x = 0 on the explicit solution."""
    x, dx, d2x = _solution_in_parameter(b, m, c1, c2)
    xh = _solution_in_parameter(b, m + 1, c1, c2)[0]
    xd = _solution_in_parameter(b, m - 1, c1, c2)[0]
    fwd = dx - m * (b * x + xh) / (1.0 - b * b)
    bwd = dx + m * (b * x + xd) / (1.0 - b * b)
    ode = (1.0 - b * b) * d2x - b * dx + m * m * x
    return abs(fwd), abs(bwd), abs(ode)


def continuous_flow_fd_error(
    b: float, m: int, c1: float, c2: float, h: float = 1e-5
) -> float:
    """|analytic dx/db - central difference| (expected O(h^2))."""
    _, dx, _ = _solution_in_parameter(b, m, c1, c2)
    xp = _solution_in_parameter(b + h, m, c1, c2)[0]
    xm = _solution_in_parameter(b - h, m, c1, c2)[0]
    return abs(dx - (xp - xm) / (2.0 * h))


def _joint_xa_xb(a: float, b: float, m: float, n: float, c1: float, c2: float):
    """x and its parameter derivatives for the joint solution
    x(a, b) = c1 sin(theta) + c2 cos(theta), theta = m arccos(-b) + n arccos(-a)."""
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise OutOfRegime("joint parameter flow needs |a| < 1 and |b| < 1")
    th = m * math.acos(-b) + n * math.acos(-a)
    x = c1 * math.sin(th) + c2 * math.cos(th)
    xp = c1 * math.cos(th) - c2 * math.sin(th)  # dx/dtheta
    xa = n * xp / math.sqrt(1.0 - a * a)
    xb = m * xp / math.sqrt(1.0 - b * b)
    return x, xp, xa, xb


def continuous_multiform_residual(
    a: float, b: float, m: int, n: int, c1: float, c2: float
) -> tuple[float, float]:
    """Residuals of the two continuous compatibility relations.

    With L_b = sqrt(1-b^2) x_b^2 / (2m) - m x^2 / (2 sqrt(1-b^2)) and the
    analogous L_a, the relations are equality of the two momenta
    dL_a/dx_a = dL_b/dx_b and the crossed derivative identity
    d/da (dL_b/dx) = d/db (dL_a/dx), evaluated on the joint solution.
    """
    x, xp, xa, xb = _joint_xa_xb(a, b, m, n, c1, c2)
    mom_a = math.sqrt(1.0 - a * a) * xa / n
    mom_b = math.sqrt(1.0 - b * b) * xb / m
    r1 = abs(mom_a - mom_b)
    # dL_b/dx = -m x / sqrt(1-b^2); differentiate in a (and vice versa)
    dba = -m * xa / math.sqrt(1.0 - b * b)
    dab = -n * xb / math.sqrt(1.0 - a * a)
    r2 = abs(dba - dab)
    return r1, r2


def orbit(matrix: np.ndarray, state, steps: int) -> np.ndarray:
    """Iterated map orbit, rows = successive states.  Each step is
    matrix.dot(z): the same matrix-vector product as matrix @ z, bit for
    bit, at a lower cost per call."""
    z = np.asarray(state, dtype=float)
    out = np.empty((steps + 1, z.size))
    out[0] = z
    dot = matrix.dot
    for k in range(steps):
        z = dot(z)
        out[k + 1] = z
    return out
