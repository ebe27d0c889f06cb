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
