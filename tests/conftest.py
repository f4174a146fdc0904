import math

import numpy as np
import pytest
from hypothesis import settings

from dressedcavity.model import ModelParams
from dressedcavity.spectral import dressed_spectrum

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

# Free-space acceptance parameters; the eigh is expensive enough to share.
FREE_SPACE = ModelParams(omega_bar=1.0, g=0.01, radius=500.0 * math.pi, n_modes=1000)


@pytest.fixture(scope="session")
def free_space_spectrum():
    return dressed_spectrum(FREE_SPACE)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def dense(coupling):
    """The (N+1)x(N+1) arrowhead matrix a CouplingMatrix stands for, for eigh cross-checks."""
    m = np.diag(np.concatenate(([coupling.a], coupling.d)))
    m[0, 1:] = m[1:, 0] = coupling.z
    return m


def random_params(rng, n_max=120):
    """A random valid parameter set for invariant sweeps."""
    return ModelParams(omega_bar=float(rng.uniform(0.3, 3.0)),
                       g=float(rng.uniform(0.0, 0.1)),
                       radius=float(rng.uniform(0.5, 100.0)),
                       n_modes=int(rng.integers(1, n_max)))
