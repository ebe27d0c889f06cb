from dataclasses import replace

import numpy as np
import pytest

from mdclab import harness
from mdclab.params import LatticeParams, derive


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


def coeff(kernel, v1, v2):
    """Full coefficient of the monomial v1*v2 in a kernel's exponent."""
    i, j = kernel.index(v1), kernel.index(v2)
    return float(0.5 * kernel.A[i, j]) if i == j else float(kernel.A[i, j])


def reversed_surface(surface):
    """The surface with every plaquette's orientation flipped; its pop records
    refer to the original orientations, so they are dropped."""
    return replace(surface, plaquettes=tuple(replace(p, sign=-p.sign) for p in surface.plaquettes), records=())
