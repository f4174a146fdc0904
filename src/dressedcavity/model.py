"""Physical parameters, unit conversion, and the atom-field quadratic form.

Internally everything runs in natural units hbar = c = k_B = 1; SI values
are converted once at the boundary.  The atom (index 0) couples to N field
modes of a perfectly reflecting sphere of radius R, giving a symmetric
arrowhead matrix of squared frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DomainError

# Exact SI defining constants (2019 redefinition).
PLANCK = 6.62607015e-34          # J s
HBAR = PLANCK / (2.0 * math.pi)  # J s
BOLTZMANN = 1.380649e-23         # J / K
LIGHT_SPEED = 299792458.0        # m / s

# Largest squared frequency a coupling-matrix entry may reach (and the
# inverse of the smallest omega_bar^2): the eigensolver squares the entries
# again, and span/omega_bar is reported, so both stay far inside double range.
SQUARED_FREQUENCY_LIMIT = 1e150


class NaturalInputs(NamedTuple):
    omega: float
    radius: float
    beta: float | None


def natural_from_si(omega_si: float, radius_si: float,
                    temperature_si: float | None = None) -> NaturalInputs:
    """Convert SI inputs to natural units with the time unit fixed to 1/omega_si.

    Returns (omega, radius, beta): omega is 1 by construction, radius is the
    dimensionless omega*R/c, and beta*omega equals hbar*omega_si/(k_B*T).
    beta is None when no temperature is given.
    """
    if omega_si <= 0.0:
        raise DomainError(f"omega_si must be positive, got {omega_si}")
    if radius_si <= 0.0:
        raise DomainError(f"radius_si must be positive, got {radius_si}")
    beta = None
    if temperature_si is not None:
        if temperature_si <= 0.0:
            raise DomainError(f"temperature_si must be positive, got {temperature_si}")
        thermal_energy = BOLTZMANN * temperature_si
        if thermal_energy == 0.0:
            raise DomainError(f"k_B*T underflows to 0 at temperature_si {temperature_si}")
        beta = HBAR * omega_si / thermal_energy
    return NaturalInputs(1.0, radius_si * omega_si / LIGHT_SPEED, beta)


def si_from_natural(omega: float, radius: float, beta: float | None,
                    frequency_scale: float) -> tuple[float, float, float | None]:
    """Invert natural_from_si given the frequency scale (rad/s per natural unit)."""
    if frequency_scale <= 0.0:
        raise DomainError(f"frequency_scale must be positive, got {frequency_scale}")
    omega_si = omega * frequency_scale
    radius_si = radius * LIGHT_SPEED / frequency_scale
    temperature_si = None
    if beta is not None:
        temperature_si = HBAR * frequency_scale / (BOLTZMANN * beta)
    return omega_si, radius_si, temperature_si


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs in natural units: atom frequency, coupling, cavity radius, cutoff."""

    omega_bar: float
    g: float
    radius: float
    n_modes: int

    def __post_init__(self):
        for name in ("omega_bar", "g", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_bar <= 0.0:
            raise DomainError(f"omega_bar must be positive, got {self.omega_bar}")
        if self.g < 0.0:
            raise DomainError(f"g must be nonnegative, got {self.g}")
        if self.radius <= 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if self.n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {self.n_modes}")
        span = self.n_modes * self.delta_omega
        squares = (self.omega_bar * self.omega_bar, span * span, 2.0 * self.g * span)
        limit = SQUARED_FREQUENCY_LIMIT
        if not 1.0 / limit <= squares[0] <= max(squares) <= limit:
            raise DomainError(
                f"omega_bar^2 must lie in [{1.0 / limit:g}, {limit:g}] and the mode span^2 and "
                f"2*g*span must not exceed {limit:g}; got omega_bar={self.omega_bar}, "
                f"span={span}, g={self.g}")

    @property
    def delta_omega(self) -> float:
        """Mode spacing pi/R of the spherical cavity."""
        return math.pi / self.radius

    @property
    def eta(self) -> float:
        """Per-mode coupling amplitude sqrt(2 g delta_omega)."""
        return math.sqrt(2.0 * self.g * self.delta_omega)


@dataclass(frozen=True, eq=False)
class ModeLadder:
    """Field mode frequencies omega_k = k*pi/R, k = 1..N."""

    frequencies: np.ndarray
    spacing: float

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", freq)
        if freq.ndim != 1 or freq.size < 1:
            raise ContractViolationError("mode ladder must be a nonempty 1-d array")
        if np.any(np.diff(freq) <= 0.0) or freq[0] <= 0.0:
            raise ContractViolationError("mode frequencies must be positive and strictly increasing")

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric (N+1)x(N+1) arrowhead matrix of squared frequencies.

    Index 0 is the atom coordinate, 1..N the field modes.  The diagonal
    counterterm N*eta^2 completes the square, so the form is positive
    definite for any coupling.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractViolationError(f"coupling matrix must be square, got shape {m.shape}")
        scale = np.max(np.abs(m))
        if scale > 0.0 and np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ContractViolationError("coupling matrix is not symmetric")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_mode_ladder(params: ModelParams) -> ModeLadder:
    """Linear ladder omega_k = k*pi/R truncated at n_modes."""
    dw = params.delta_omega
    return ModeLadder(frequencies=dw * np.arange(1, params.n_modes + 1), spacing=dw)


def build_coupling_matrix(params: ModelParams, ladder: ModeLadder) -> CouplingMatrix:
    """Arrowhead quadratic form for the atom-field coupled oscillators.

    M[0,0] = omega_bar^2 + N*eta^2, M[k,k] = omega_k^2, M[0,k] = -eta*omega_k
    with eta = sqrt(2 g delta_omega).
    """
    if ladder.n_modes != params.n_modes:
        raise ContractViolationError(
            f"ladder has {ladder.n_modes} modes, params expect {params.n_modes}")
    n = params.n_modes
    w = ladder.frequencies
    eta = params.eta
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = params.omega_bar ** 2 + n * eta ** 2
    idx = np.arange(1, n + 1)
    m[idx, idx] = w ** 2
    m[0, 1:] = -eta * w
    m[1:, 0] = -eta * w
    return CouplingMatrix(matrix=m)
