import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dressedcavity.cli import RunConfig, parse_config_file, resolve_natural
from dressedcavity.model import (BOLTZMANN, HBAR, LIGHT_SPEED, ModelParams,
                                 build_coupling_matrix)
from dressedcavity.spectral import diagonalize
from dressedcavity.thermal import occupation_weights

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def experiment_params(name):
    """The model of `experiments/<name>.cfg`, resolved as the CLI resolves it."""
    config = RunConfig(**parse_config_file(EXPERIMENTS / f"{name}.cfg"))
    return resolve_natural(config, np.empty(0)).params


# The paper's free-space and small-cavity models, written once, in their configs;
# the free-space eigh is expensive enough to share.
FREE_SPACE = experiment_params("free_space")
SMALL_CAVITY = experiment_params("small_cavity")


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


def _refined_eigh(m, steps=3):
    """Dense eigh with each eigenpair polished by Newton steps on [m x - lam x; (x.x - 1)/2].

    eigh alone leaves eigenvector errors near eps*||m||/gap, which reaches 1e-12 once the
    top mode is far above a close pair; forming the residuals in extended precision takes
    the reference below that, so a mismatch is the secular solver's own.
    """
    eigenvalues, vectors = np.linalg.eigh(m)
    wide = m.astype(np.longdouble)
    lam = eigenvalues.astype(np.longdouble)
    vec = vectors.astype(np.longdouble)
    size = len(eigenvalues)
    for j in range(size):
        x, shift = vec[:, j].copy(), lam[j]
        for _ in range(steps):
            residual = np.append(wide @ x - shift * x, (x @ x - 1) / 2)
            jacobian = np.block([[m - float(shift) * np.eye(size), -x.astype(float)[:, None]],
                                 [x.astype(float)[None, :], np.zeros((1, 1))]])
            step = np.linalg.solve(jacobian, -residual.astype(float))
            x, shift = x + step[:-1], shift + step[-1]
        vec[:, j], lam[j] = x, shift
    return lam.astype(float), vec.astype(float)


def dense_reference(params, xi, phi, beta, n0_init, t):
    """Every column of the `spectrum`, `dynamics`, `thermal`, `density` and
    `entanglement` tables, keyed by CSV column name, and f_00 itself.

    The dense arrowhead is solved by `_refined_eigh`: Omega_s = sqrt(lam_s),
    and t_0^s = |vectors[0, s]| under Loewner's sign convention t_0^s >= 0.
    f_0nu(t) = sum_s t_0^s t_nu^s exp(-i Omega_s t) is summed directly over
    the whole grid t, with no blocking.  The single-excitation family then
    gives each column in closed form: survival S = |f_00|^2, the coherence
    rho[10,01] = sqrt(xi(1-xi)) e^{-i phi} S, concurrence 2|rho[10,01]|, EoF
    as the binary entropy of (1 + sqrt(1 - C^2))/2, negativity
    sqrt(rho00^2 + 4|rho[10,01]|^2) - rho00, and the occupation
    sum_nu w_nu |f_0nu|^2 with the weights of `occupation_weights`.
    """
    lam, vectors = _refined_eigh(dense(build_coupling_matrix(params)))
    f = (vectors[0] * vectors) @ np.exp(-1j * np.outer(np.sqrt(lam), t))
    survival = np.abs(f[0]) ** 2
    coherence = math.sqrt(xi * (1.0 - xi)) * np.exp(-1j * phi) * survival
    rho00 = 1.0 - survival
    concurrence = 2.0 * np.abs(coherence)
    x = 0.5 * (1.0 + np.sqrt(np.clip(1.0 - concurrence ** 2, 0.0, None)))
    eof = sum(np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
              for p in (x, 1.0 - x))
    return f[0], {
        "s[index]": np.arange(lam.size),
        "Omega_s[natural-frequency]": np.sqrt(lam),
        "t_0_s[dimensionless]": np.abs(vectors[0]),
        "t[natural-time]": t,
        "survival[probability]": survival,
        "phase[rad]": np.angle(f[0]),
        "rho_00_00[probability]": rho00,
        "rho_01_01[probability]": (1.0 - xi) * survival,
        "rho_10_10[probability]": xi * survival,
        "re_rho_10_01[dimensionless]": coherence.real,
        "im_rho_10_01[dimensionless]": coherence.imag,
        "concurrence[dimensionless]": concurrence,
        "eof[ebits]": eof,
        "negativity[dimensionless]": np.sqrt(rho00 ** 2 + 4.0 * np.abs(coherence) ** 2) - rho00,
        "occupation[quanta]": occupation_weights(params, beta, n0_init) @ np.abs(f) ** 2,
    }


def two_atom_reference(params, xi, phi, t):
    """The five `density` columns from the two-atom model itself, keyed by
    CSV column name.

    Each atom couples to its own field, so the single-excitation form of
    the pair is the (2N+2) block-diagonal matrix diag(M, M) of the model's
    arrowhead M, with atom A at index 0 and atom B at index N+1.  Dense
    `eigh` solves it whole: every eigenvalue is doubled, and the
    propagator V exp(-i Omega t) V^T does not depend on the basis `eigh`
    picks in a doubled eigenspace.  The state sqrt(xi)|A> +
    e^{i phi} sqrt(1-xi)|B> evolves to psi(t); tracing out both fields
    leaves rho[10,10] = |psi_A|^2, rho[01,01] = |psi_B|^2,
    rho[10,01] = psi_A conj(psi_B) and rho[00,00] = 1 - |psi_A|^2 - |psi_B|^2.
    """
    one = dense(build_coupling_matrix(params))
    size = len(one)
    both = np.zeros((2 * size, 2 * size))
    both[:size, :size] = both[size:, size:] = one
    lam, vectors = np.linalg.eigh(both)
    start = np.zeros(2 * size, dtype=complex)
    start[0], start[size] = math.sqrt(xi), np.exp(1j * phi) * math.sqrt(1.0 - xi)
    phases = np.exp(-1j * np.outer(np.sqrt(lam), t))
    psi_a, psi_b = vectors[[0, size]] @ (phases * (vectors.T @ start)[:, None])
    coherence = psi_a * psi_b.conj()
    return {"t[natural-time]": t,
            "rho_00_00[probability]": 1.0 - np.abs(psi_a) ** 2 - np.abs(psi_b) ** 2,
            "rho_01_01[probability]": np.abs(psi_b) ** 2,
            "rho_10_10[probability]": np.abs(psi_a) ** 2,
            "re_rho_10_01[dimensionless]": coherence.real,
            "im_rho_10_01[dimensionless]": coherence.imag}


def fock_occupation(params, beta, n0, t, max_quanta):
    """The atom's mean occupation <a_0^dag a_0>(t) from the many-body model,
    and a bound on what its truncation leaves out: (occupation on t, tail).

    A route to the `thermal` column that shares no formula with it: no
    amplitude f_0nu and no `occupation_weights`.  h = sqrt(M), the positive
    root of the dense arrowhead M by `eigh`, is the one-quantum
    Hamiltonian; H = sum_munu h_munu a_mu^dag a_nu keeps the total number
    of quanta, so it is built and solved sector by sector, for every total
    up to `max_quanta`.  The atom starts in Fock |n0> and each bare mode k
    thermal, so a Fock state s with s_k quanta in mode k starts with
    probability p(s) = prod_k (1 - x_k) x_k^{s_k}, x_k = exp(-beta omega_k),
    and evolves in its sector.  A state past `max_quanta` would add
    p(s) <n_0(t)>_s <= p(s)|s|, with |s| its total quanta, so the sum falls
    short of the exact occupation by at most tail = sum_{|s| > max_quanta}
    p(s)|s|.  With K the modes' quanta and L = max_quanta - n0, every left-out
    state has K >= L + 1, so tail <= y^-(L+1) E[(n0 + K) y^K] for every
    1 <= y < 1/max x_k, and E[(n0 + K) y^K] = prod_k (1 - x_k)/(1 - x_k y)
    (n0 + sum_k x_k y/(1 - x_k y)); `tail` is the least of that bound on a
    grid of y.
    """
    lam, vectors = np.linalg.eigh(dense(build_coupling_matrix(params)))
    h = (vectors * np.sqrt(lam)) @ vectors.T
    size = len(h)
    x = np.exp(-beta * params.mode_frequencies)
    occupation = np.zeros(len(t))
    for quanta in range(n0, max_quanta + 1):
        basis = [tuple(np.bincount(labels, minlength=size).tolist())
                 for labels in itertools.combinations_with_replacement(range(size), quanta)]
        index = {state: i for i, state in enumerate(basis)}
        hamiltonian = np.zeros((len(basis), len(basis)))
        for i, state in enumerate(basis):
            for mu, nu in itertools.product(range(size), repeat=2):
                if state[nu]:  # a_mu^dag a_nu |state> = sqrt(state[nu] moved[mu]) |moved>
                    moved = list(state)
                    moved[nu] -= 1
                    moved[mu] += 1
                    hamiltonian[index[tuple(moved)], i] += h[mu, nu] * math.sqrt(
                        state[nu] * moved[mu])
        energy, w = np.linalg.eigh(hamiltonian)
        atom = np.array([state[0] for state in basis])
        phases = np.exp(-1j * np.outer(energy, t))
        for i, state in enumerate(basis):
            if state[0] == n0:
                psi = w @ (w[i][:, None] * phases)
                occupation += np.prod((1.0 - x) * x ** np.array(state[1:])) * (
                    atom @ np.abs(psi) ** 2)
    y = 1.0 + (1.0 / np.max(x) - 1.0) * np.linspace(0.0, 1.0, 1001)[1:-1, None]
    tail = (y[:, 0] ** -(max_quanta - n0 + 1) * np.prod((1.0 - x) / (1.0 - x * y), axis=1)
            * (n0 + np.sum(x * y / (1.0 - x * y), axis=1)))
    return occupation, float(np.min(tail))


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
