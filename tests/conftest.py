import csv
import math

import numpy as np
import pytest
from hypothesis import settings

from dressedcavity.model import (BOLTZMANN, HBAR, LIGHT_SPEED, ModelParams,
                                 build_coupling_matrix)
from dressedcavity.spectral import diagonalize

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


def dressed_spectrum(params):
    """The dressed spectrum of a parameter set: coupling matrix -> diagonalize."""
    return diagonalize(build_coupling_matrix(params))


def atom_weights(spectrum):
    """Spectral weights (t_0^s)^2 of the atom coordinate; they sum to 1."""
    return spectrum.components[0, :] ** 2


def interlacing_counts(spectrum, params):
    """Count squared eigenvalues below omega_1^2, inside each pole gap, above omega_N^2,
    with omega_k the mode frequencies of params."""
    lam = spectrum.omega_dressed ** 2
    poles = params.mode_frequencies ** 2
    below = int(np.sum(lam < poles[0]))
    inside = [int(np.sum((lam > poles[k]) & (lam < poles[k + 1])))
              for k in range(len(poles) - 1)]
    above = int(np.sum(lam > poles[-1]))
    return below, inside, above


def si_from_natural(omega, radius, beta, frequency_scale):
    """Invert natural_from_si given the frequency scale (rad/s per natural unit)."""
    temperature_si = None if beta is None else HBAR * frequency_scale / (BOLTZMANN * beta)
    return omega * frequency_scale, radius * LIGHT_SPEED / frequency_scale, temperature_si


def read_csv(path):
    """Inverse of reporting.write_csv: (metadata, columns, rows), values as strings."""
    metadata, data_lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif line:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    return metadata, parsed[0] if parsed else [], parsed[1:]
