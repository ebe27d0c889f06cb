"""Lattice parameters and every derived constant the other modules rely on.

Three lattice directions carry parameters p, q, r.  The staircase reduction
coefficients are

    s = (p - q)/(p + q),   t = (p - r)/(p + r),   t' = (q - r)/(q + r),

and they satisfy the identity  s t t' = s - t + t'  which makes the reduced
flows commute.  The oscillator constants b and a are *not* taken from any
printed closed form: they are pinned by the spectra of the reduction map
matrices (b = -trace/2 of the hat map, a = -trace/2 of the bar map), which is
derivable from the lattice equation alone.  The combined parameters follow as

    Q = q**2,   P = Q (1 + b)/(1 - b),   R = P (1 - a)/(1 + a),

equivalently b = (P - Q)/(P + Q) and a = (P - R)/(P + R).  In the elliptic
regime |b| < 1, |a| < 1 the rotation angles are cos(mu) = -b, cos(nu) = -a and
sin(mu) = 2 q sqrt(P)/(P + Q).

For a triple of directions the edge coefficients

    s_ij = (p_i + p_j)/(p_i - p_j)

are antisymmetric and obey  s12 s23 + s23 s31 + s31 s12 + 1 = 0, the relation
that makes the pop-up cube integral singular in exactly the right way.

The identity checks and the coefficients they use take floats or same-shape
arrays; on arrays every expression acts elementwise in the scalar order, so a
batch call returns bit for bit the scalar calls' values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParams, OutOfRegime

#: Absolute floor under which a parameter denominator counts as vanished.
DENOM_EPS = 1e-12

#: A float, or an array of floats that the identity checks act on elementwise.
FloatOrArray = float | np.ndarray


@dataclass(frozen=True)
class LatticeParams:
    """One lattice point (p, q, r); the action scale hbar lives on SuiteConfig alone."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name, v in zip("pqr", (self.p, self.q, self.r)):
            if not math.isfinite(v):
                raise DegenerateParams(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class DerivedParams:
    """All derived constants for one (p, q, r) point.

    mu and nu are None outside the elliptic regime; `hyperbolic` is a flag,
    not an error, so the classical checks still run there.
    """

    p: float
    q: float
    r: float
    s: float
    t: float
    tprime: float
    b: float
    a: float
    P: float
    Q: float
    R: float
    mu: float | None
    nu: float | None
    hyperbolic: bool

    def require_elliptic(self) -> tuple[float, float]:
        if self.hyperbolic or self.mu is None or self.nu is None:
            raise OutOfRegime(
                f"elliptic regime required: b={self.b:.6g}, a={self.a:.6g}"
            )
        return self.mu, self.nu


@dataclass(frozen=True)
class EdgeParams:
    """The six edge coefficients s_ij and the cyclic combination lambda_ijk they annihilate."""

    s: dict[tuple[int, int], FloatOrArray]
    lambda_ijk: FloatOrArray


def _first(values: FloatOrArray, bad) -> float:
    """The first entry of `values` where `bad` holds, as a float, so that an
    error message names one scalar on one line even for array input."""
    return float(np.broadcast_to(values, np.shape(bad)).flat[np.argmax(bad)])


def _guard_sum(name: str, value: FloatOrArray) -> None:
    bad = abs(value) < DENOM_EPS
    if np.any(bad):
        raise DegenerateParams(f"denominator {name} vanishes: {_first(value, bad)!r}")


def reduction_coefficients(
    p: FloatOrArray, q: FloatOrArray, r: FloatOrArray
) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """(s, t, t') from their defining ratios, guarding the denominators."""
    _guard_sum("p+q", p + q)
    _guard_sum("p+r", p + r)
    _guard_sum("q+r", q + r)
    return (p - q) / (p + q), (p - r) / (p + r), (q - r) / (q + r)


def hat_matrix(s: float) -> np.ndarray:
    """2x2 matrix of the hat map on (x, y), eliminated from the 3-point map.

    The implicit update  uh0 = u1 + s(uh1 - uh2), uh1 = u2 + s(u0 - u1),
    uh2 = u0  is solved as a linear system and pushed down to the reduced
    variables x = u1 - u0, y = u2 - u1.
    """
    lhs = np.array([[1.0, -s, s], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rhs = np.array([[0.0, 1.0, 0.0], [s, -s, 1.0], [1.0, 0.0, 0.0]])
    return _induced_2x2(np.linalg.solve(lhs, rhs))


def bar_matrix(t: float, tprime: float) -> np.ndarray:
    """2x2 matrix of the bar map on (x, y), from the third lattice direction.

    Solves  ub0 - t*ub1 = u1 - t*u0,  ub1 - t*ub2 = u2 - t*u1,
    ub2 - t'*ub0 = u0 - t'*u2;  the system is regular iff 1 - t^2 t' != 0.
    """
    if abs(1.0 - t * t * tprime) < DENOM_EPS:
        raise DegenerateParams(f"bar map is singular: 1 - t^2 t' = {1.0 - t * t * tprime!r}")
    lhs = np.array([[1.0, -t, 0.0], [0.0, 1.0, -t], [-tprime, 0.0, 1.0]])
    rhs = np.array([[-t, 1.0, 0.0], [0.0, -t, 1.0], [1.0, 0.0, -tprime]])
    return _induced_2x2(np.linalg.solve(lhs, rhs))


def _induced_2x2(map3: np.ndarray) -> np.ndarray:
    # The 3-point map commutes with global shifts, so it descends to (x, y).
    out = np.empty((2, 2))
    for col, (x, y) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        u = map3 @ np.array([0.0, x, x + y])
        out[0, col] = u[1] - u[0]
        out[1, col] = u[2] - u[1]
    return out


def derive(params: LatticeParams) -> DerivedParams:
    """Derive every combined constant from a raw parameter point.

    b and a come from the map spectra; P and R are then fixed by inverting
    b = (P - Q)/(P + Q) and a = (P - R)/(P + R) with Q = q**2.  Outside the
    elliptic regime the angles are None and `hyperbolic` is set.
    """
    s, t, tprime = reduction_coefficients(params.p, params.q, params.r)
    b = -0.5 * float(np.trace(hat_matrix(s)))
    a = -0.5 * float(np.trace(bar_matrix(t, tprime)))
    if abs(1.0 - b) < DENOM_EPS or abs(1.0 + a) < DENOM_EPS:
        raise DegenerateParams(f"combined parameters undefined: b={b!r}, a={a!r}")
    Q = params.q * params.q
    P = Q * (1.0 + b) / (1.0 - b)
    R = P * (1.0 - a) / (1.0 + a)
    hyperbolic = abs(b) >= 1.0 or abs(a) >= 1.0
    mu = math.acos(-b) if abs(b) < 1.0 else None
    nu = math.acos(-a) if abs(a) < 1.0 else None
    return DerivedParams(
        p=params.p, q=params.q, r=params.r,
        s=s, t=t, tprime=tprime, b=b, a=a, P=P, Q=Q, R=R,
        mu=mu, nu=nu, hyperbolic=hyperbolic,
    )


def check_stt_identity(p: FloatOrArray, q: FloatOrArray, r: FloatOrArray) -> FloatOrArray:
    """|s t t' - s + t - t'| at the parameter point (p, q, r)."""
    s, t, tprime = reduction_coefficients(p, q, r)
    return abs(s * t * tprime - s + t - tprime)


def edge_coefficient(pi: FloatOrArray, pj: FloatOrArray) -> FloatOrArray:
    """s_ij = (p_i + p_j)/(p_i - p_j); errors on equal parameters."""
    bad = abs(pi - pj) < DENOM_EPS
    if np.any(bad):
        raise DegenerateParams(f"edge coefficient undefined for p_i = p_j = {_first(pi, bad)!r}")
    return (pi + pj) / (pi - pj)


def edge_params(p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray) -> EdgeParams:
    """All six ordered edge coefficients plus their cyclic combination."""
    p = (p1, p2, p3)
    s: dict[tuple[int, int], FloatOrArray] = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                s[(i + 1, j + 1)] = edge_coefficient(p[i], p[j])
    lam = s[(1, 2)] * s[(2, 3)] + s[(2, 3)] * s[(3, 1)] + s[(3, 1)] * s[(1, 2)] + 1.0
    return EdgeParams(s=s, lambda_ijk=lam)


def check_sij_identity(p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray) -> FloatOrArray:
    """|s12 s23 + s23 s31 + s31 s12 + 1|."""
    return abs(edge_params(p1, p2, p3).lambda_ijk)


def mu_identity_residual(derived: DerivedParams) -> float:
    """|sin(mu) - 2 |q| sqrt(P)/(P + Q)|, a consistency check on Q = q**2;
    mu = acos(-b) lies in [0, pi], so sin(mu) >= 0 for either sign of q."""
    mu, _ = derived.require_elliptic()
    return abs(math.sin(mu) - 2.0 * abs(derived.q) * math.sqrt(derived.P) / (derived.P + derived.Q))


def printed_constant_residuals(derived: DerivedParams) -> dict[str, float]:
    """Residuals of the one-line closed forms quoted for b, a and P.

    The map-spectrum values are authoritative; these report how far the
    quoted shortcuts sit from them.  `b_unhalved` and `P_no_cross_term`
    document known misprints (both are ~O(1) off), `b_halved`, `a_ratio` and
    `P_with_cross_term` are the corrected forms and should vanish.  Where
    float64 cannot form p**2 (|p| above about 1.3e154), both P residuals
    are NaN.
    """
    s, t, tp = derived.s, derived.t, derived.tprime
    two_a = ((2 * t + 1 - t * t) - tp * (2 * t - 1 + t * t)) / (1 - t * t * tp)
    try:
        p_squared = derived.p**2
    except OverflowError:  # float ** raises where * would give inf
        p_squared = math.nan
    return {
        "b_unhalved": abs((1 + 2 * s - s * s) - derived.b),
        "b_halved": abs(0.5 * (1 + 2 * s - s * s) - derived.b),
        "a_ratio": abs(0.5 * two_a - derived.a),
        "P_no_cross_term": abs(p_squared + derived.p * derived.q - derived.P),
        "P_with_cross_term": abs(p_squared + 2 * derived.p * derived.q - derived.P),
    }
