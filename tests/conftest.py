import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from mdclab import harness, p3
from mdclab.params import LatticeParams, bar_matrix, derive, hat_matrix


@pytest.fixture(scope="session")
def d321():
    """Derived constants at the worked parameter point (3, 2, 1)."""
    return derive(LatticeParams(3.0, 2.0, 1.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def sample_triples(rng, count):
    """Admissible random parameter triples in [0.5, 3], as the harness samples them."""
    return harness.sample_triples(rng, count, 0.5, 3.0).tolist()


def map_matrices(derived):
    """The 2x2 hat and bar maps S and T of the 3-point reduction."""
    return hat_matrix(derived.s), bar_matrix(derived.t, derived.tprime)


def square_corners(state, derived):
    """x, xh, xb and xhb of the elementary square the maps S and T generate from state."""
    z = np.asarray(state, dtype=float)
    S, T = map_matrices(derived)
    return z[0], (S @ z)[0], (T @ z)[0], (T @ S @ z)[0]


def p3_matrices(derived):
    """The 4x4 period-3 matrices H and B."""
    return p3.p3_hat_matrix(derived.s), p3.p3_bar_matrix(derived.t, derived.tprime)


def p3_modes(derived):
    """The two joint modes of the period-3 matrices."""
    return p3.p3_joint_modes(*p3_matrices(derived))


def coeff(kernel, v1, v2):
    """Full coefficient of the monomial v1*v2 in a kernel's exponent."""
    i, j = kernel.index(v1), kernel.index(v2)
    return float(0.5 * kernel.A[i, j]) if i == j else float(kernel.A[i, j])


def reversed_surface(surface):
    """The surface with every plaquette's orientation flipped; its pop records
    refer to the original orientations, so they are dropped."""
    return replace(surface, plaquettes=tuple(replace(p, sign=-p.sign) for p in surface.plaquettes), records=())


def engine_rows(part):
    """The engine's sparse rows after an engine part adds into empty ones,
    each name at its sorted position, as {(row name, column name): float64
    bits}; a NaN entry reads "nan", since which NaN a sum of two NaNs keeps
    is not fixed."""
    names = sorted(part.vars)
    at = dict(zip(names, range(len(names))))
    rows = [{} for _ in names]
    assert part._add_into(rows, at) == [at[v] for v in part.vars]
    return {(names[i], names[j]): "nan" if v != v else float_bits(v)
            for i, row in enumerate(rows) for j, v in row.items()}


def float_bits(x):
    """The float64 bits of x as an int."""
    return int(np.float64(x).view(np.int64))


def exponent(kernel, assignment):
    """The kernel's exponent v^T A v / 2 at a point."""
    v = np.array([assignment[name] for name in kernel.vars])
    return float(0.5 * v @ kernel.A @ v)


def value(kernel, assignment, hbar=1.0):
    """Numeric value at the action scale hbar, which a kernel does not carry,
    with V set to 1; delta weights are not realised, but the value is 0 off
    the constraint surface, where a constraint's residual exceeds 1e-9."""
    for con in kernel.constraints:
        if abs(sum(cv * assignment[v] for v, cv in con.coeffs)) > 1e-9:
            return 0.0j
    mag = kernel.amp * (2.0 * math.pi * hbar) ** float(kernel.pihbar_pow)
    return mag * cmath.exp(1j * exponent(kernel, assignment) / hbar)
