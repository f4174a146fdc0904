"""Two-qubit reduced density matrix, built two independent ways.

The closed form propagates the initial superposition weights through the
survival amplitude f_00, the same for both atoms: each atom couples to its
own field (or the atoms are far enough apart that they share none), and
the two fields have one dressed spectrum.  The brute-force route
enumerates a truncated thermal field background state by state, evolves
the single excitation over the dressed labels, and literally traces out
the field occupations.  The two must agree for every temperature: the
thermal weights are diagonal in the number basis and normalized, so they
factor out of every matrix element.

The trace never builds a dense operator.  Each background's evolved state
is a sparse map from field occupations to atom-level amplitudes (n_modes+1
labels), and the field is traced by contracting matching labels, so the
oracle costs O(backgrounds * n_modes^2) scalar operations.  Its mode count
is its spectrum's: a bath describes only the field's temperature and Fock
truncation.

Both routes take their amplitudes from `dynamics.amplitudes`.  The matrices
built here are checked Hermitian on construction; positivity is checked
once, where the entanglement measures consume them.  The closed form is
elementwise in the samples, so the CLI forms it one sample block at a
time; given the block's first index, its error names the sample of the
whole series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dynamics import amplitudes
from .errors import ContractViolationError, DomainError, ResourceCapError
from .model import require_beta
from .spectral import DressedSpectrum

# Matrices use the ordered two-qubit basis {|00>, |01>, |10>, |11>};
# index = 2*p_A + p_B.
HERMITICITY_ATOL = 1e-12
# Cap on the backgrounds (n_max+1)^n_modes of one oracle call; the sparse
# trace does O(n_modes^2) scalar work per background, so this bounds its cost.
MAX_BACKGROUNDS = 1024

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
    """Inverse temperature and Fock truncation of every field mode for the
    exact-trace route; the modes are those of the oracle's spectrum.  beta
    obeys the model's range rule (`require_beta`), so beta*omega*n stays
    finite for every model frequency and every occupation n."""

    beta: float
    n_max: int

    def __post_init__(self):
        require_beta(self.beta)
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True, eq=False)
class ReducedDensityMatrix:
    """Two-qubit states in the ordered basis {|00>,|01>,|10>,|11>}: a (..., 4, 4)
    stack of Hermitian matrices; a single state is a stack of shape (4, 4)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape[-2:] != (4, 4):
            raise ContractViolationError(f"expected a (..., 4, 4) stack, got shape {m.shape}")
        # |m - m^dagger| from the real and imaginary views: no complex temporaries
        deviation = np.hypot(m.real - m.real.swapaxes(-1, -2), m.imag + m.imag.swapaxes(-1, -2))
        if m.size and np.max(deviation) > HERMITICITY_ATOL:
            raise ContractViolationError("reduced density matrix is not Hermitian")

    @property
    def trace(self) -> np.ndarray | float:
        """Real trace of each matrix, with the stack's leading shape (a scalar for one)."""
        return np.trace(self.matrix, axis1=-2, axis2=-1).real[()]


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


def reduced_density_closed(state: EntangledStateSpec, f00,
                           first: int = 0) -> ReducedDensityMatrix:
    """Closed-form reduced matrices from the survival amplitude f00.

    Each atom couples to its own field (or the atoms are far enough apart
    that they share none), and both fields have one dressed spectrum, so
    each atom survives with the same f_00.  f00 is an amplitude array (a
    scalar gives one 4x4); the result stacks one matrix per sample.  With
    S = |f_00|^2 the nonzero elements are
    rho[00,00] = 1 - xi S - (1-xi) S, rho[01,01] = (1-xi) S,
    rho[10,10] = xi S, and the coherence
    rho[10,01] = sqrt(xi(1-xi)) e^{-i phi} f_00 conj(f_00) with its
    conjugate.  The |11> sector is identically zero (single excitation).
    A modulus above 1 raises, naming the sample by its flat index plus
    `first`, the index of f00's first sample in the series it was cut from.
    """
    f = np.asarray(f00, dtype=complex)
    shape = f.shape
    f = f.ravel()
    survival = survival_probability(f)
    bad = np.flatnonzero(survival > (1.0 + 1e-9) ** 2)
    if bad.size:
        raise ContractViolationError(
            f"survival amplitudes must have modulus <= 1, got |f_00|^2="
            f"{float(survival[bad[0]])!r} at sample {first + bad[0]}")
    xi = state.xi
    rho = np.zeros((f.size, 4, 4), dtype=complex)
    rho[..., 0, 0] = 1.0 - xi * survival - (1.0 - xi) * survival
    rho[..., 1, 1] = (1.0 - xi) * survival
    rho[..., 2, 2] = xi * survival
    # w e^{-i phi} f_00 conj(f_00) in real arithmetic, multiplied left to right as
    # scalar complex products round; the array complex product may fuse them.
    weight = state.coherence_weight * np.exp(-1j * state.phi)
    re = weight.real * f.real - weight.imag * f.imag
    im = weight.real * f.imag + weight.imag * f.real
    conj = -f.imag
    rho[..., 2, 1].real = re * f.real - im * conj
    rho[..., 2, 1].imag = re * conj + im * f.real
    rho[..., 1, 2] = rho[..., 2, 1].conj()
    return ReducedDensityMatrix(matrix=rho.reshape(shape + (4, 4)))


def survival_probability(f: np.ndarray) -> np.ndarray:
    """|f|^2 of a 1-d complex array, rounded as the scalar abs(f) ** 2 is."""
    # hypot, as scalar abs() of a complex; np.abs of a complex array may round apart.
    # Python-float ** is libm pow, as np.float64 ** 2; an array ** 2 is x * x.
    return np.array([m ** 2 for m in np.hypot(f.real, f.imag).tolist()])


def _contract(block: list[list[complex]], weight: float, left: dict, right: dict) -> None:
    """block[a][b] += weight * sum_f left(a, f) conj(right(b, f)) over the field labels f.

    States map a field occupation tuple f to the amplitudes [level 0, level 1]
    of the atom.  Every label of `left` must be a label of `right`: the
    ground state of a background holds only its own occupations, which its
    evolved state holds too.
    """
    for field, lhs in left.items():
        rhs = right[field]
        for a in range(2):
            for b in range(2):
                block[a][b] += weight * lhs[a] * rhs[b].conjugate()


def _field_trace_blocks(amp: np.ndarray, weights: list[np.ndarray],
                        n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thermal-averaged subsystem operators, traced over field occupations.

    Enumerates every background n, the (n_max+1)^n_modes occupation tuples
    with 0 <= n_k <= n_max in `itertools.product` order, weights it by the
    product of per-mode weights W(n), and builds the evolved state
    |1(t); n> as a sparse map from field occupations to atom-level
    amplitudes: amp[0] on (1, n) and amp[j] on (0, n + e_j); the ground
    state is (0, n) -> 1.  The field labels of sum_n W(n) |1(t); n><1(t); n|,
    |0; n><0; n| and |0; n><1(t); n| are then contracted by matching labels,
    so a background costs O(n_modes^2) scalar work.  Returns the three 2x2
    atom-level blocks.
    """
    n_modes = len(weights)
    amp = [complex(a) for a in amp]
    weights = [w.tolist() for w in weights]
    block_exc = [[0j, 0j], [0j, 0j]]
    block_gnd = [[0j, 0j], [0j, 0j]]
    block_cross = [[0j, 0j], [0j, 0j]]
    for occ in itertools.product(range(n_max + 1), repeat=n_modes):
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

    The spectrum is a dedicated small model: its n_modes = spectrum.size - 1
    field modes are the ones traced, and their (n_max+1)^n_modes
    backgrounds may number at most MAX_BACKGROUNDS (else a
    ResourceCapError, before any amplitude is formed).  Each background is
    weighted by the product of per-mode truncated thermal weights; the
    excitation hops among dressed labels with the amplitudes f_0nu(t) while
    the background occupations ride along as spectators.  With normalized
    weights the result is exactly independent of beta.
    """
    n_modes = spectrum.size - 1
    backgrounds = (bath.n_max + 1) ** n_modes
    if backgrounds > MAX_BACKGROUNDS:
        raise ResourceCapError(
            f"bath basis has {backgrounds} states "
            f"(n_max={bath.n_max}, n_modes={n_modes}); cap is {MAX_BACKGROUNDS}")
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

