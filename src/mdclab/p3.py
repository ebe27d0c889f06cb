"""Period-3 staircase reduction: two coupled discrete oscillators.

The second-order evolution in the primary direction is

    xh1 + xh2 + xd1 + s (2 x1 + x2) = 0
    xh2 + xd1 + xd2 + s (x1 + 2 x2) = 0,

(h = forward step, d = backward step) and the third lattice direction supplies
the commuting flow

    (1 + t t')(xb1 + xd1) + xb2 + t t' xd2 + (t + t')(2 x1 + x2) = 0
    (1 + t t')(xb2 + xd2) + t t' xb1 + xd1 + (t + t')(x1 + 2 x2) = 0.

Both flows are generated by quadratic one-step Lagrangians whose conjugate
momenta  X_i = -dL/dx_i  define a shared phase space z = (x1, x2, X1, X2).
On that phase space each evolution is a 4x4 unit-determinant matrix, the two
matrices commute, and the quadratic forms

    I1 = x1 X1 - 2 x1 X2 + 2 x2 X1 - x2 X2
    I2 = (1 - 3 s^2/4)(x1^2 + x1 x2 + x2^2) + X1^2 - X1 X2 + X2^2

are preserved by both and Poisson-commute with each other.

The eigenvalues of the primary map are exp(+-i mu_pm) with

    cos(mu_pm) = -3s/4 +- sqrt(1 - 3 s^2/4)/2;

the partner angles nu_pm of the commuting map are extracted from the shared
eigenvectors (the closed form quoted for them elsewhere does not reproduce
the map spectrum; see printed_angle_residuals).

The second-order residuals and p3_invariants take floats or same-shape
arrays for each state component (a state's components run along the first
axis); on arrays every expression acts elementwise in the scalar order, so
an array call returns bit for bit the scalar calls' values.  The joint
solution check evaluates each grid point once, through one
p3_joint_solution call over the grid: one np.exp array call per mode, and
every complex product scalar, since numpy's array complex product can
differ from the scalar one in the last bit.  The checks take the matrices
and modes their caller built once per point;
reduction.commutator_residual is the matrices' commutator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateParams, OutOfRegime

if TYPE_CHECKING:
    from .params import DerivedParams

_J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def _phi_grad(x1: float, x2: float) -> tuple[float, float]:
    # gradient of x1^2 + x1 x2 + x2^2
    return 2.0 * x1 + x2, x1 + 2.0 * x2


def p3_hat_map(state, s: float) -> np.ndarray:
    """One step of the primary flow on z = (x1, x2, X1, X2).

    Solves the momentum definitions for the new positions and pushes the
    momenta forward with the discrete Legendre transform of
    L1 = x1 (xh1 + xh2) + x2 xh2 + s (Phi(x) + Phi(xh)) / 2.
    """
    x1, x2, X1, X2 = np.asarray(state, dtype=float)
    _, g2 = _phi_grad(x1, x2)
    xh2 = -X2 - 0.5 * s * g2
    xh1 = -X1 + X2 + 0.5 * s * (x2 - x1)
    gh1, gh2 = _phi_grad(xh1, xh2)
    Xh1 = x1 + 0.5 * s * gh1
    Xh2 = x1 + x2 + 0.5 * s * gh2
    return np.array([xh1, xh2, Xh1, Xh2])


def p3_bar_map(state, t: float, tprime: float) -> np.ndarray:
    """One step of the commuting flow, from the Lagrangian
    L2 = A (x1 xb1 + x2 xb2) + B (x1 xb2 + t t' x2 xb1) + C (Phi(x) + Phi(xb))
    with A = (1 + tt')/(1 - tt'), B = 1/(1 - tt'), C = (t + t')/(2 (1 - tt'))."""
    tt = t * tprime
    if abs(1.0 - tt) < 1e-12:
        raise DegenerateParams(f"commuting flow undefined: 1 - t t' = {1.0 - tt!r}")
    A = (1.0 + tt) / (1.0 - tt)
    B = 1.0 / (1.0 - tt)
    C = 0.5 * (t + tprime) / (1.0 - tt)
    x1, x2, X1, X2 = np.asarray(state, dtype=float)
    g1, g2 = _phi_grad(x1, x2)
    m = np.array([[A, B], [B * tt, A]])
    xb1, xb2 = np.linalg.solve(m, -np.array([X1 + C * g1, X2 + C * g2]))
    gb1, gb2 = _phi_grad(xb1, xb2)
    Xb1 = A * x1 + B * tt * x2 + C * gb1
    Xb2 = A * x2 + B * x1 + C * gb2
    return np.array([xb1, xb2, Xb1, Xb2])


def _matrix_of(map_fn) -> np.ndarray:
    cols = [map_fn(e) for e in np.eye(4)]
    return np.column_stack(cols)


def p3_hat_matrix(s: float) -> np.ndarray:
    return _matrix_of(lambda z: p3_hat_map(z, s))


def p3_bar_matrix(t: float, tprime: float) -> np.ndarray:
    return _matrix_of(lambda z: p3_bar_map(z, t, tprime))


def p3_invariants(state, s: float) -> tuple[float, float]:
    x1, x2, X1, X2 = np.asarray(state, dtype=float)
    i1 = x1 * X1 - 2.0 * x1 * X2 + 2.0 * x2 * X1 - x2 * X2
    k = 1.0 - 0.75 * s * s
    i2 = k * (x1 * x1 + x1 * x2 + x2 * x2) + X1 * X1 - X1 * X2 + X2 * X2
    return i1, i2


# -- Quadratic observables and the canonical bracket --------------------------

@dataclass(frozen=True)
class QuadraticObservable:
    """Quadratic phase-space function F(z) = z^T M z with M symmetric."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4) or np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("QuadraticObservable needs a symmetric 4x4 matrix")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def invariant_one() -> "QuadraticObservable":
        m = np.zeros((4, 4))
        m[0, 2] = m[2, 0] = 0.5      # x1 X1
        m[0, 3] = m[3, 0] = -1.0     # -2 x1 X2
        m[1, 2] = m[2, 1] = 1.0      # +2 x2 X1
        m[1, 3] = m[3, 1] = -0.5     # -x2 X2
        return QuadraticObservable(m)

    @staticmethod
    def invariant_two(s: float) -> "QuadraticObservable":
        k = 1.0 - 0.75 * s * s
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = k
        m[0, 1] = m[1, 0] = 0.5 * k
        m[2, 2] = m[3, 3] = 1.0
        m[2, 3] = m[3, 2] = -0.5
        return QuadraticObservable(m)


def poisson_bracket_form(F: QuadraticObservable, G: QuadraticObservable) -> QuadraticObservable:
    """{F, G} as a quadratic observable, computed exactly from the matrices.

    With F = z^T M z, grad F = 2 M z, so {F, G} = 4 z^T M J N z whose
    symmetric part is 2 (M J N - N J M).
    """
    M, N = F.matrix, G.matrix
    K = 2.0 * (M @ _J4 @ N - N @ _J4 @ M)
    return QuadraticObservable(0.5 * (K + K.T))


def poisson_bracket(F: QuadraticObservable, G: QuadraticObservable) -> float:
    """Max-norm of the bracket's coefficient matrix; zero iff in involution."""
    return float(np.max(np.abs(poisson_bracket_form(F, G).matrix)))


# -- Second-order residuals along orbits --------------------------------------

def p3_hat_equation_residual(prev, cur, nxt, s: float) -> float:
    """Max residual of the two primary-direction second-order equations."""
    r1 = nxt[0] + nxt[1] + prev[0] + s * (2 * cur[0] + cur[1])
    r2 = nxt[1] + prev[0] + prev[1] + s * (cur[0] + 2 * cur[1])
    return np.maximum(abs(r1), abs(r2))


def p3_bar_equation_residual(prev, cur, nxt, t: float, tprime: float) -> float:
    """Max residual of the two commuting-direction second-order equations."""
    tt = t * tprime
    T = t + tprime
    r1 = (1 + tt) * (nxt[0] + prev[0]) + nxt[1] + tt * prev[1] + T * (2 * cur[0] + cur[1])
    r2 = (1 + tt) * (nxt[1] + prev[1]) + tt * nxt[0] + prev[0] + T * (cur[0] + 2 * cur[1])
    return np.maximum(abs(r1), abs(r2))


# -- Joint solution ------------------------------------------------------------

@dataclass(frozen=True)
class JointMode:
    """One oscillation branch of the commuting pair.

    lam = exp(i mu) is the primary-map eigenvalue, sigma = exp(i nu) the
    commuting-map eigenvalue on the same eigenvector; v holds the complex
    position components (v1, v2) of that eigenvector.
    """

    mu: float
    nu: float
    v: tuple[complex, complex]


def p3_joint_modes(H: np.ndarray, B: np.ndarray) -> tuple[JointMode, JointMode]:
    """The two independent modes of H and B, from their shared eigenvectors.

    Raises OutOfRegime if the primary map has non-unimodular eigenvalues
    (hyperbolic) where no real angles exist.
    """
    evals, evecs = np.linalg.eig(H)
    if np.max(np.abs(np.abs(evals) - 1.0)) > 1e-9:
        raise OutOfRegime("period-3 primary map has non-unimodular eigenvalues")
    modes = []
    seen: list[float] = []
    for idx in range(4):
        lam = evals[idx]
        mu = float(np.angle(lam))
        if mu <= 0.0:
            continue  # keep one of each conjugate pair
        if any(abs(mu - m) < 1e-9 for m in seen):
            continue
        seen.append(mu)
        vec = evecs[:, idx]
        w = B @ vec
        k = int(np.argmax(np.abs(vec)))
        sigma = w[k] / vec[k]
        if np.max(np.abs(w - sigma * vec)) > 1e-8 * np.max(np.abs(vec)):
            raise OutOfRegime("commuting map does not share the eigenvector")
        modes.append(JointMode(mu=mu, nu=float(np.angle(sigma)), v=(complex(vec[0]), complex(vec[1]))))
    if len(modes) != 2:
        raise OutOfRegime(f"expected two independent modes, found {len(modes)}")
    modes.sort(key=lambda m: math.cos(m.mu), reverse=True)  # plus branch first
    return modes[0], modes[1]


def p3_joint_solution(
    ms: range,
    ns: range,
    amplitudes: tuple[float, float, float, float],
    modes: tuple[JointMode, JointMode],
    nu_shift: tuple[float, float],
) -> np.ndarray:
    """(x1, x2) of the joint field at each grid point (m, n) of ms by ns:
    out[:, i, j] is the field at (ms[i], ns[j]).

    amplitudes = (re_plus, im_plus, re_minus, im_minus) weight the real and
    imaginary parts of each branch.  nu_shift perturbs the commuting-flow
    angles, which is used to show the solution breaks if nu is wrong.  Each
    mode's phases come from one np.exp array call on the exponents
    1j * (mu m + (nu + dnu) n), formed point by point; complex exp gives the
    same bits in an array as in a scalar call.  Each product (w v_k) phase
    is a scalar one, and each component sums its modes' real parts from 0.0
    in mode order.
    """
    points = [(m, n) for m in ms for n in ns]
    x1 = x2 = [0.0] * len(points)
    for mode, re_w, im_w, dnu in (
        (modes[0], amplitudes[0], amplitudes[1], nu_shift[0]),
        (modes[1], amplitudes[2], amplitudes[3], nu_shift[1]),
    ):
        mu, nu = mode.mu, mode.nu + dnu
        phases = np.exp([1j * (mu * m + nu * n) for m, n in points]).tolist()
        w = complex(re_w, im_w)
        w1, w2 = w * mode.v[0], w * mode.v[1]
        x1 = [x + (w1 * phase).real for x, phase in zip(x1, phases)]
        x2 = [x + (w2 * phase).real for x, phase in zip(x2, phases)]
    return np.array((x1, x2)).reshape(2, len(ms), len(ns))


def p3_joint_solution_residual(
    modes: tuple[JointMode, JointMode],
    derived: "DerivedParams",
    amplitudes: tuple[float, float, float, float],
    nu_shift: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Max residual of all four second-order equations on the 5-by-5 grid
    0 <= m, n < 5 of the joint solution of modes."""
    grid = range(-1, 6)
    x = p3_joint_solution(grid, grid, amplitudes, modes, nu_shift)  # x[:, m + 1, n + 1] is (x1, x2) at (m, n)
    cur = x[:, 1:6, 1:6]
    hat = p3_hat_equation_residual(x[:, :5, 1:6], cur, x[:, 2:, 1:6], derived.s)
    bar = p3_bar_equation_residual(x[:, 1:6, :5], cur, x[:, 1:6, 2:], derived.t, derived.tprime)
    return float(np.max((hat, bar), initial=0.0))


def cos_mu_closed_form(s: float) -> tuple[float, float]:
    """cos(mu_pm) = -3s/4 +- sqrt(1 - 3 s^2/4)/2 (verified against the map)."""
    disc = 1.0 - 0.75 * s * s
    if disc < 0.0:
        raise OutOfRegime(f"complex angles at s={s!r}")
    root = 0.5 * math.sqrt(disc)
    return -0.75 * s + root, -0.75 * s - root


def cos_nu_from_elimination(t: float, tprime: float) -> tuple[float, float]:
    """cos(nu_pm) as roots of  D c^2 + 3T(1+tt') c + 3T^2 - (1 - tt')^2 = 0
    with c = 2 cos(nu), where D = 1 + tt' + (tt')^2 and T = t + t'.

    This is the characteristic condition obtained by eliminating the
    eigenvector from the commuting-flow mode equations.
    """
    tt = t * tprime
    T = t + tprime
    D = 1.0 + tt + tt * tt
    disc = 9.0 * T * T * (1.0 + tt) ** 2 - 4.0 * D * (3.0 * T * T - (1.0 - tt) ** 2)
    if disc < 0.0:
        raise OutOfRegime("complex commuting-flow angles")
    root = math.sqrt(disc)
    return (
        (-3.0 * T * (1.0 + tt) + root) / (4.0 * D),
        (-3.0 * T * (1.0 + tt) - root) / (4.0 * D),
    )


def printed_angle_residuals(modes: tuple[JointMode, JointMode], derived: "DerivedParams") -> dict[str, float]:
    """Distance between the map-spectrum angles of modes and the quoted closed forms.

    cos(mu_pm) agrees with its closed form.  The quoted closed form for
    cos(nu_pm) does not reproduce the commuting-map spectrum; the elimination
    form in cos_nu_from_elimination does.  Reported, not asserted.
    """
    plus, minus = modes
    cm = cos_mu_closed_form(derived.s)
    ce = cos_nu_from_elimination(derived.t, derived.tprime)
    tt = derived.t * derived.tprime
    T = derived.t + derived.tprime
    D = 1.0 + tt + tt * tt
    spread = D - 0.75 * T * T
    quoted_half = 0.5 * ((1.0 - tt) / D) ** 2 * math.sqrt(max(spread, 0.0))
    quoted_mid = -3.0 * T * (1.0 + tt) / (4.0 * D)
    return {
        "cos_mu_plus": abs(math.cos(plus.mu) - cm[0]),
        "cos_mu_minus": abs(math.cos(minus.mu) - cm[1]),
        "cos_nu_plus_elimination": abs(math.cos(plus.nu) - ce[0]),
        "cos_nu_minus_elimination": abs(math.cos(minus.nu) - ce[1]),
        "cos_nu_plus_quoted": abs(math.cos(plus.nu) - (quoted_mid + quoted_half)),
        "cos_nu_minus_quoted": abs(math.cos(minus.nu) - (quoted_mid - quoted_half)),
    }
