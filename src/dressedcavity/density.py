"""Two-qubit reduced density matrix, built two independent ways.

The closed form propagates the initial superposition weights through the
survival amplitudes.  The brute-force route enumerates a truncated thermal
field background state by state, evolves the single excitation over the
dressed labels, and literally traces out the field occupations.  The two
must agree for every temperature: the thermal weights are diagonal in the
number basis and normalized, so they factor out of every matrix element.

The trace never builds a dense operator.  Each background's evolved state
is a sparse map from field occupations to atom-level amplitudes (n_modes+1
labels), and the field is traced by contracting matching labels, so the
oracle costs O(backgrounds * n_modes^2) scalar operations.

Both routes take their amplitudes from `dynamics.amplitudes`.  The matrices
built here are checked Hermitian on construction; positivity is checked
once, where the entanglement measures consume them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .dynamics import amplitudes
from .errors import ContractViolationError, DomainError, ResourceCapError
from .spectral import DressedSpectrum

# Matrices use the ordered two-qubit basis {|00>, |01>, |10>, |11>};
# index = 2*p_A + p_B.
HERMITICITY_ATOL = 1e-12
# Largest bath beta: beta*omega*n stays finite for every model frequency
# (squared frequencies are capped at 1e150) and every occupation n.
BETA_LIMIT = 1e150

WeightScheme = Literal["normalized", "per_level_partition"]


@dataclass(frozen=True)
class EntangledStateSpec:
    """Superposition weights of the shared single excitation: xi and phase phi."""

    xi: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError(f"xi must lie in [0, 1], got {self.xi}")
        if not math.isfinite(self.phi):
            raise DomainError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @property
    def coherence_weight(self) -> float:
        return math.sqrt(self.xi * (1.0 - self.xi))


@dataclass(frozen=True)
class ThermalBathSpec:
    """Inverse temperature and Fock truncation for the exact-trace route."""

    beta: float
    n_max: int
    n_modes_oracle: int = 1
    # cap on the backgrounds (n_max+1)^n_modes_oracle; the sparse trace does
    # O(n_modes_oracle^2) scalar work per background, so this bounds its cost
    max_basis_states: int = 1024

    def __post_init__(self):
        if not 0.0 < self.beta <= BETA_LIMIT:
            raise DomainError(f"beta must be finite, positive and at most {BETA_LIMIT:g}, "
                              f"got {self.beta}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")
        if not 1 <= self.n_modes_oracle <= 3:
            raise DomainError(f"n_modes_oracle must be in 1..3, got {self.n_modes_oracle}")

    @property
    def basis_size(self) -> int:
        return (self.n_max + 1) ** self.n_modes_oracle


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """4x4 Hermitian two-qubit state in the ordered basis {|00>,|01>,|10>,|11>}."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (4, 4):
            raise ContractViolationError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ContractViolationError("reduced density matrix is not Hermitian")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def bath_basis_states(n_modes: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """Every background occupation tuple (n_1..n_N) with 0 <= n_k <= n_max."""
    return itertools.product(range(n_max + 1), repeat=n_modes)


def bath_weights(omega: float, beta: float, n_max: int,
                 scheme: WeightScheme = "normalized") -> np.ndarray:
    """Thermal weights of one mode over the truncated occupation range.

    "normalized" renormalizes the Boltzmann factors over 0..n_max so the
    weights sum to exactly 1, which makes the temperature cancellation exact
    at finite truncation.  "per_level_partition" deliberately evaluates the
    partition factor per occupation level instead of once per mode; it breaks
    unit normalization and serves as a negative control for the
    temperature-independence tests.
    """
    if omega <= 0.0 or beta <= 0.0:
        raise DomainError("bath weights need omega > 0 and beta > 0")
    n = np.arange(n_max + 1)
    boltzmann = np.exp(-beta * omega * n)
    if scheme == "normalized":
        return boltzmann / boltzmann.sum()
    if scheme == "per_level_partition":
        return boltzmann * (1.0 - np.exp(-beta * omega * n))
    raise DomainError(f"unknown weight scheme {scheme!r}")


def reduced_density_closed(state: EntangledStateSpec, f_aa: complex,
                           f_bb: complex) -> ReducedDensityMatrix:
    """Closed-form reduced matrix from the two survival amplitudes.

    Nonzero elements: rho[00,00] = 1 - xi|f_AA|^2 - (1-xi)|f_BB|^2,
    rho[01,01] = (1-xi)|f_BB|^2, rho[10,10] = xi|f_AA|^2, and the coherence
    rho[10,01] = sqrt(xi(1-xi)) e^{-i phi} f_AA conj(f_BB) with its
    conjugate.  The |11> sector is identically zero (single excitation).
    """
    mod_a, mod_b = abs(f_aa), abs(f_bb)
    if mod_a > 1.0 + 1e-9 or mod_b > 1.0 + 1e-9:
        raise ContractViolationError(
            f"survival amplitudes must have modulus <= 1, got |f_AA|={mod_a!r}, |f_BB|={mod_b!r}")
    xi = state.xi
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - xi * mod_a ** 2 - (1.0 - xi) * mod_b ** 2
    rho[1, 1] = (1.0 - xi) * mod_b ** 2
    rho[2, 2] = xi * mod_a ** 2
    coherence = state.coherence_weight * np.exp(-1j * state.phi) * f_aa * np.conj(f_bb)
    rho[2, 1] = coherence
    rho[1, 2] = np.conj(coherence)
    return ReducedDensityMatrix(matrix=rho)


def _contract(block: list[list[complex]], weight: float, left: dict, right: dict) -> None:
    """block[a][b] += weight * sum_f left(a, f) conj(right(b, f)) over shared field labels f.

    States map a field occupation tuple f to the amplitudes [level 0, level 1]
    of the atom; labels present in only one state contribute nothing.
    """
    for field, lhs in left.items():
        rhs = right.get(field)
        if rhs is None:
            continue
        for a in range(2):
            for b in range(2):
                block[a][b] += weight * lhs[a] * rhs[b].conjugate()


def _field_trace_blocks(amp: np.ndarray, weights: list[np.ndarray],
                        n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thermal-averaged subsystem operators, traced over field occupations.

    Enumerates every background n, weights it by the product of per-mode
    weights W(n), and builds the evolved state |1(t); n> as a sparse map
    from field occupations to atom-level amplitudes: amp[0] on (1, n) and
    amp[j] on (0, n + e_j); the ground state is (0, n) -> 1.  The field
    labels of sum_n W(n) |1(t); n><1(t); n|, |0; n><0; n| and
    |0; n><1(t); n| are then contracted by matching labels, so a background
    costs O(n_modes^2) scalar work.  Returns the three 2x2 atom-level blocks.
    """
    n_modes = len(weights)
    amp = [complex(a) for a in amp]
    weights = [w.tolist() for w in weights]
    block_exc = [[0j, 0j], [0j, 0j]]
    block_gnd = [[0j, 0j], [0j, 0j]]
    block_cross = [[0j, 0j], [0j, 0j]]
    for occ in bath_basis_states(n_modes, n_max):
        weight = 1.0
        for k, n in enumerate(occ):
            weight *= weights[k][n]
        evolved = {occ: [0j, amp[0]]}
        for j in range(1, n_modes + 1):
            bumped = occ[:j - 1] + (occ[j - 1] + 1,) + occ[j:]
            evolved.setdefault(bumped, [0j, 0j])[0] += amp[j]
        ground = {occ: [1 + 0j, 0j]}
        _contract(block_exc, weight, evolved, evolved)
        _contract(block_gnd, weight, ground, ground)
        _contract(block_cross, weight, ground, evolved)
    return (np.array(block_exc, dtype=complex), np.array(block_gnd, dtype=complex),
            np.array(block_cross, dtype=complex))


def thermal_trace_oracle(state: EntangledStateSpec, spectrum: DressedSpectrum,
                         bath: ThermalBathSpec, t: float,
                         weight_scheme: WeightScheme = "normalized") -> ReducedDensityMatrix:
    """Reduced matrix by literal enumeration and trace of the thermal field.

    The spectrum must be a dedicated small model with exactly
    bath.n_modes_oracle field modes.  Each background is weighted by the
    product of per-mode truncated thermal weights; the excitation hops among
    dressed labels with the amplitudes f_0nu(t) while the background
    occupations ride along as spectators.  With normalized weights the
    result is exactly independent of beta.
    """
    n_modes = bath.n_modes_oracle
    if spectrum.size != n_modes + 1:
        raise ContractViolationError(
            f"oracle spectrum must have {n_modes + 1} labels, got {spectrum.size}")
    if bath.basis_size > bath.max_basis_states:
        raise ResourceCapError(
            f"bath basis has {bath.basis_size} states "
            f"(n_max={bath.n_max}, n_modes={n_modes}); cap is {bath.max_basis_states}")
    amp = amplitudes(spectrum, [t])[:, 0]
    # Cancellation makes the weight frequencies immaterial; the dressed
    # frequencies of the field-like labels keep the enumeration concrete.
    weights = [bath_weights(w, bath.beta, bath.n_max, weight_scheme)
               for w in spectrum.omega_dressed[1:]]
    block_exc, block_gnd, block_cross = _field_trace_blocks(amp, weights, bath.n_max)
    block_cross_dag = block_cross.conj().T

    xi = state.xi
    coh = state.coherence_weight
    phase = np.exp(1j * state.phi)
    rho = np.zeros((4, 4), dtype=complex)
    for p_a in range(2):
        for p_b in range(2):
            for r_a in range(2):
                for r_b in range(2):
                    rho[2 * p_a + p_b, 2 * r_a + r_b] = (
                        xi * block_exc[p_a, r_a] * block_gnd[p_b, r_b]
                        + (1.0 - xi) * block_gnd[p_a, r_a] * block_exc[p_b, r_b]
                        + coh * phase * block_cross[p_a, r_a] * block_cross_dag[p_b, r_b]
                        + coh * np.conj(phase) * block_cross_dag[p_a, r_a] * block_cross[p_b, r_b])
    reduced = ReducedDensityMatrix(matrix=rho)
    if weight_scheme == "normalized" and abs(reduced.trace - 1.0) > 1e-9:
        raise ContractViolationError(f"oracle trace deviates from 1: {reduced.trace!r}")
    return reduced

