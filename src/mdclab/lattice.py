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

`classify_general_quad_lagrangian` judges a general quadratic table
(`qsurface.LatticeLagrangianCoeffs`) by its gauge-invariant data alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import FloatOrArray, edge_coefficient
from .qsurface import LatticeLagrangianCoeffs, e_minus_d


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


def classify_general_quad_lagrangian(
    coeffs: LatticeLagrangianCoeffs,
    seed: int = 0,
    probes: int = 20,
    tol: float = 1e-9,
) -> dict[str, bool]:
    """Check the two classical admissibility conditions of a coefficient table.

    The face equation of the table is  c_ij u - c_ji u_ij = e_ij u_i - d_ij u_j.
    symmetric_quad: that equation is a quad equation symmetric under i <-> j,
    which needs every c_ij equal and e = d.
    closure_ok: the oriented Lagrangian sum over probe cubes, filled with the
    face equation, vanishes numerically.  Neither depends on the gauge.
    """
    c, d, e = coeffs.c, coeffs.d, coeffs.e
    symmetric = all(abs(v - c[(1, 2)]) <= tol for v in c.values()) and (
        e_minus_d(coeffs) <= tol * max(1.0, *map(abs, d.values()))
    )
    faces = ((1, 2), (2, 3), (3, 1))
    if any(not abs(c[(j, i)]) >= 1e-12 for i, j in faces):
        return {"symmetric_quad": bool(symmetric), "closure_ok": False}

    # one probe cube per row; faces filled once, in the (i < j) orientation
    u, u1, u2, u3 = np.random.default_rng(seed).normal(size=(probes, 4)).T
    vals = {1: u1, 2: u2, 3: u3}
    u12, u23, u31 = ((c[(i, j)] * u - e[(i, j)] * vals[i] + d[(i, j)] * vals[j]) / c[(j, i)] for i, j in faces)
    L = coeffs.lagrangian
    total = (
        L(u1, u12, u31, 2, 3) - L(u, u2, u3, 2, 3)
        + L(u2, u23, u12, 3, 1) - L(u, u3, u1, 3, 1)
        + L(u3, u31, u23, 1, 2) - L(u, u1, u2, 1, 2)
    )
    return {"symmetric_quad": bool(symmetric), "closure_ok": bool(np.max(np.abs(total), initial=0.0) <= tol)}
