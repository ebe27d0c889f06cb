"""The linear quad lattice: local solves, Lagrangian 2-form, closure.

On an elementary plaquette in the (i, j) plane the field satisfies

    (p_i + p_j)(u_i - u_j) = (p_i - p_j)(u - u_ij),

so the far corner is  u_ij = u - s_ij (u_i - u_j)  with
s_ij = (p_i + p_j)/(p_i - p_j).  The equation is multidimensionally
consistent: u_123 is independent of the order in which the three faces of a
cube are solved.  The plaquette Lagrangian

    L_ij(u, u_i, u_j) = u (u_i - u_j) - s_ij (u_i - u_j)^2 / 2

is antisymmetric in (i, j) and closes around the cube on shell:

    [L23(u1) - L23(u)] + [L31(u2) - L31(u)] + [L12(u3) - L12(u)] = 0.

All operations act on explicit vertex tuples; the harness composes them.
The cube functions take floats or same-shape arrays (one cube per entry), so
the harness checks a whole batch of cubes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoeffs
from .params import FloatOrArray, edge_coefficient


def quad_solve(
    u: FloatOrArray, ui: FloatOrArray, uj: FloatOrArray, pi: FloatOrArray, pj: FloatOrArray
) -> FloatOrArray:
    """Far corner of a plaquette from the other three values."""
    return u - edge_coefficient(pi, pj) * (ui - uj)


def lagrangian_2form(
    u: FloatOrArray, ui: FloatOrArray, uj: FloatOrArray, pi: FloatOrArray, pj: FloatOrArray
) -> FloatOrArray:
    """Oriented plaquette Lagrangian L_ij; antisymmetric under i <-> j."""
    d = ui - uj
    return u * d - 0.5 * edge_coefficient(pi, pj) * d * d


@dataclass(frozen=True)
class CubeSample:
    """Field values on a consistency cube: a vertex, its 3 neighbours, faces.

    Each field is a float, or an array holding one entry per cube.
    """

    u: FloatOrArray
    u1: FloatOrArray
    u2: FloatOrArray
    u3: FloatOrArray
    u12: FloatOrArray
    u23: FloatOrArray
    u31: FloatOrArray
    u123: FloatOrArray


def u123_routes(
    u: FloatOrArray, u1: FloatOrArray, u2: FloatOrArray, u3: FloatOrArray,
    p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray,
) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """The triple-shifted corner evaluated along the three elimination orders."""
    u12 = quad_solve(u, u1, u2, p1, p2)
    u23 = quad_solve(u, u2, u3, p2, p3)
    u31 = quad_solve(u, u3, u1, p3, p1)
    via1 = quad_solve(u1, u12, u31, p2, p3)
    via2 = quad_solve(u2, u23, u12, p3, p1)
    via3 = quad_solve(u3, u31, u23, p1, p2)
    return via1, via2, via3


def mdc_spread(
    u: FloatOrArray, u1: FloatOrArray, u2: FloatOrArray, u3: FloatOrArray,
    p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray,
) -> FloatOrArray:
    """Spread of the three routes to u123; zero iff consistent, NaN if any
    route is NaN (np.maximum and np.minimum let a NaN through)."""
    via1, via2, via3 = u123_routes(u, u1, u2, u3, p1, p2, p3)
    return np.maximum(np.maximum(via1, via2), via3) - np.minimum(np.minimum(via1, via2), via3)


def complete_cube(
    u: FloatOrArray, u1: FloatOrArray, u2: FloatOrArray, u3: FloatOrArray,
    p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray,
) -> CubeSample:
    """Fill the faces and the far corner of a cube from initial data."""
    u12 = quad_solve(u, u1, u2, p1, p2)
    u23 = quad_solve(u, u2, u3, p2, p3)
    u31 = quad_solve(u, u3, u1, p3, p1)
    u123 = quad_solve(u1, u12, u31, p2, p3)
    return CubeSample(u=u, u1=u1, u2=u2, u3=u3, u12=u12, u23=u23, u31=u31, u123=u123)


def closure_residual(
    cube: CubeSample, p1: FloatOrArray, p2: FloatOrArray, p3: FloatOrArray
) -> FloatOrArray:
    """|sum of oriented Lagrangian differences over the cube faces|.

    Vanishes when the cube data solve the quad equation on every face.
    """
    total = (
        lagrangian_2form(cube.u1, cube.u12, cube.u31, p2, p3)
        - lagrangian_2form(cube.u, cube.u2, cube.u3, p2, p3)
        + lagrangian_2form(cube.u2, cube.u23, cube.u12, p3, p1)
        - lagrangian_2form(cube.u, cube.u3, cube.u1, p3, p1)
        + lagrangian_2form(cube.u3, cube.u31, cube.u23, p1, p2)
        - lagrangian_2form(cube.u, cube.u1, cube.u2, p1, p2)
    )
    return abs(total)


def el_corner_residual(
    u: float, ui: float, uj: float, uij: float, pi: float, pj: float
) -> float:
    """Residual of the corner Euler-Lagrange equation on one plaquette.

    d/du_i [A(u, u_i; p_i) - A(u_i, u_ij; p_j) + C(u_i, u_j; p_i, p_j)] with
    A(x, y) = x*y and C the quadratic edge term; vanishes iff the quad
    equation holds on the plaquette.
    """
    sij = edge_coefficient(pi, pj)
    return abs(u - uij - sij * (ui - uj))


@dataclass(frozen=True)
class GeneralQuadCoeffs:
    """Coefficients of a general 3-point quadratic plaquette Lagrangian.

    L_ij = (a_i u^2/2 + c_i u u_i) - (a_j u^2/2 + c_j u u_j)
           + b_ij u_i^2/2 - b_ji u_j^2/2 + delta_ij u_i u_j,

    with per-direction tables a, c and ordered-pair tables b, delta
    (delta antisymmetric).
    """

    a: dict[int, float]
    c: dict[int, float]
    b: dict[tuple[int, int], float]
    delta: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), v in self.delta.items():
            w = self.delta.get((j, i))
            if w is not None and abs(v + w) > 1e-12 * max(1.0, abs(v)):
                raise DegenerateCoeffs(f"delta must be antisymmetric: {(i, j)}")

    def lagrangian(self, u: float, ui: float, uj: float, i: int, j: int) -> float:
        return (
            0.5 * self.a[i] * u * u + self.c[i] * u * ui
            - 0.5 * self.a[j] * u * u - self.c[j] * u * uj
            + 0.5 * self.b[(i, j)] * ui * ui - 0.5 * self.b[(j, i)] * uj * uj
            + self.delta[(i, j)] * ui * uj
        )

    def quad_solve(self, u: float, ui: float, uj: float, i: int, j: int) -> float:
        """Far corner from this Lagrangian's own equation of motion:
        c_i u - c_j u_ij = (a_j - b_ij) u_i - delta_ij u_j."""
        cj = self.c[j]
        if abs(cj) < 1e-12:
            raise DegenerateCoeffs(f"c_{j} = 0: equation of motion cannot be solved")
        return (self.c[i] * u - (self.a[j] - self.b[(i, j)]) * ui + self.delta[(i, j)] * uj) / cj


def canonical_quad_coeffs(
    p1: float, p2: float, p3: float, a: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> GeneralQuadCoeffs:
    """The closure-compatible family: c = 1, delta_ij = s_ij, b_ij = a_j - s_ij.

    The per-direction a_i are free and drop out of the equations of motion.
    """
    ps = (p1, p2, p3)
    delta = {}
    b = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                sij = edge_coefficient(ps[i], ps[j])
                delta[(i + 1, j + 1)] = sij
                b[(i + 1, j + 1)] = a[j] - sij
    return GeneralQuadCoeffs(
        a={1: a[0], 2: a[1], 3: a[2]}, c={1: 1.0, 2: 1.0, 3: 1.0}, b=b, delta=delta
    )


def classify_general_quad_lagrangian(
    coeffs: GeneralQuadCoeffs,
    seed: int = 0,
    probes: int = 20,
    tol: float = 1e-9,
) -> dict[str, bool]:
    """Check the two classical admissibility conditions of the general family.

    symmetric_quad: the equation of motion is a quad equation symmetric under
    i <-> j, which needs c_i all equal and a_j - b_ij = delta_ij.
    closure_ok: the oriented Lagrangian sum over probe cubes, filled with the
    family's own equation of motion, vanishes numerically.
    """
    dirs = sorted(coeffs.c)
    cs = [coeffs.c[i] for i in dirs]
    symmetric = all(abs(ci - cs[0]) <= tol for ci in cs)
    for i in dirs:
        for j in dirs:
            if i != j:
                lhs = coeffs.a[j] - coeffs.b[(i, j)]
                if not abs(lhs - coeffs.delta[(i, j)]) <= tol * max(1.0, abs(lhs)):
                    symmetric = False

    rng = np.random.default_rng(seed)
    totals = []
    for _ in range(probes):
        u, u1, u2, u3 = rng.normal(size=4)
        vals = {(): u, (1,): u1, (2,): u2, (3,): u3}
        try:
            # fill faces once, with the (i < j) orientation of the EL rule
            faces = {}
            for i, j in ((1, 2), (2, 3), (3, 1)):
                faces[(i, j)] = coeffs.quad_solve(vals[()], vals[(i,)], vals[(j,)], i, j)
        except DegenerateCoeffs:
            return {"symmetric_quad": symmetric, "closure_ok": False}
        u12, u23, u31 = faces[(1, 2)], faces[(2, 3)], faces[(3, 1)]
        total = (
            coeffs.lagrangian(u1, u12, u31, 2, 3)
            - coeffs.lagrangian(u, u2, u3, 2, 3)
            + coeffs.lagrangian(u2, u23, u12, 3, 1)
            - coeffs.lagrangian(u, u3, u1, 3, 1)
            + coeffs.lagrangian(u3, u31, u23, 1, 2)
            - coeffs.lagrangian(u, u1, u2, 1, 2)
        )
        totals.append(abs(total))
    return {"symmetric_quad": bool(symmetric), "closure_ok": bool(np.max(totals, initial=0.0) <= tol)}
