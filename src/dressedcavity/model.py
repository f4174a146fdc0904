"""Physical parameters, unit conversion, and the atom-field quadratic form.

Internally everything runs in natural units hbar = c = k_B = 1; SI values
are converted once at the boundary.  The atom (index 0) couples to N field
modes of a perfectly reflecting sphere of radius R, whose frequencies
omega_k = k*pi/R are a property of the parameters
(`ModelParams.mode_frequencies`), giving a symmetric arrowhead matrix of
squared frequencies.  `CouplingMatrix` holds only its O(N) parts (atom
entry a, border z, mode diagonal d); the dense (N+1)^2 array is never
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Exact SI defining constants (2019 redefinition).
PLANCK = 6.62607015e-34          # J s
HBAR = PLANCK / (2.0 * math.pi)  # J s
BOLTZMANN = 1.380649e-23         # J / K
LIGHT_SPEED = 299792458.0        # m / s

# The one range rule: omega_bar^2 and delta_omega^2 (the lowest d_k), every
# inverse temperature beta (`require_beta`) and t_max lie in
# [1/RANGE_LIMIT, RANGE_LIMIT]; the mode span^2, 2*g*span and |t_list| do not
# exceed RANGE_LIMIT.  The eigensolver squares the entries again, and
# span/omega_bar is reported, so all stay far inside double range.  An
# accepted model has R <= pi*1e75, n_modes <= 1e150, omega_bar and every
# omega_k within [1e-75, 1e75] and every Omega_s below 2e75, so each phase
# Omega*t, each beta*omega_k (within [1e-225, 1e225], which `bose_einstein`
# takes without overflow) and each squared time of the decay fit is a
# normal double.
RANGE_LIMIT = 1e150


def natural_from_si(omega_si: float, radius_si: float,
                    temperature_si: float | None = None) -> tuple[float, float, float | None]:
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
    return 1.0, radius_si * omega_si / LIGHT_SPEED, beta


def require_beta(beta: float, temperature: float | None = None) -> None:
    """Raise DomainError unless the inverse temperature beta lies in
    [1/RANGE_LIMIT, RANGE_LIMIT]; the message names the temperature beta
    came from, when it came from one."""
    if not 1.0 / RANGE_LIMIT <= beta <= RANGE_LIMIT:
        source = "" if temperature is None else f" from temperature {temperature}"
        raise DomainError(f"beta must lie in [{1.0 / RANGE_LIMIT:g}, {RANGE_LIMIT:g}], "
                          f"got {beta}{source}")


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
        delta, span = self.delta_omega, self.span
        squares = (self.omega_bar * self.omega_bar, delta * delta, span * span,
                   2.0 * self.g * span)
        limit = RANGE_LIMIT
        if not (1.0 / limit <= min(squares[:2]) and max(squares) <= limit):
            raise DomainError(
                f"omega_bar^2 and delta_omega^2 must lie in [{1.0 / limit:g}, {limit:g}] and the "
                f"mode span^2 and 2*g*span must not exceed {limit:g}; got "
                f"omega_bar={self.omega_bar}, delta_omega={delta}, span={span}, g={self.g}")

    @property
    def delta_omega(self) -> float:
        """Mode spacing pi/R of the spherical cavity."""
        return math.pi / self.radius

    @property
    def span(self) -> float:
        """Top of the mode ladder, n_modes * delta_omega; inf for an n_modes past
        double range, which no model takes: with delta_omega^2 >= 1e-150 its
        span^2 would exceed RANGE_LIMIT."""
        try:
            return self.n_modes * self.delta_omega
        except OverflowError:
            return math.inf

    @property
    def eta(self) -> float:
        """Per-mode coupling amplitude sqrt(2 g delta_omega)."""
        return math.sqrt(2.0 * self.g * self.delta_omega)

    @property
    def mode_frequencies(self) -> np.ndarray:
        """Field mode frequencies omega_k = k*pi/R, k = 1..N."""
        return self.delta_omega * np.arange(1, self.n_modes + 1)


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric (N+1)x(N+1) arrowhead matrix of squared frequencies, held as
    its O(N) parts: M = [[a, z^T], [z, diag(d)]].

    Index 0 is the atom coordinate (entry a), 1..N the field modes (border z,
    diagonal d).  Nothing off the arrow is stored, so every instance is
    symmetric and an arrowhead by construction.  The counterterm N*eta^2 in
    a completes the square, so the model's form is positive definite for
    any coupling.
    """

    a: float
    z: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a, z, d = float(self.a), np.asarray(self.z, dtype=float), np.asarray(self.d, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "d", d)
        if z.ndim != 1 or z.shape != d.shape or z.size == 0:
            raise DomainError(f"border z and mode diagonal d must be 1-d of one nonzero "
                              f"length, got shapes {z.shape} and {d.shape}")
        if not (math.isfinite(a) and np.all(np.isfinite(z)) and np.all(np.isfinite(d))):
            raise DomainError("coupling matrix has a non-finite entry")


def build_coupling_matrix(params: ModelParams) -> CouplingMatrix:
    """Arrowhead quadratic form for the atom-field coupled oscillators, in O(N).

    a = omega_bar^2 + N*eta^2, d_k = omega_k^2, z_k = -eta*omega_k
    with eta = sqrt(2 g delta_omega) and omega_k the params' mode frequencies.
    The scalars are squared as products, which are correctly rounded, as
    numpy squares the arrays: libm's pow (Python's `**`) may miss a square
    by an ulp in one binade and not in the next, so power-of-two units
    would not scale every entry exactly.
    """
    w = params.mode_frequencies
    eta = params.eta
    return CouplingMatrix(a=params.omega_bar * params.omega_bar + params.n_modes * (eta * eta),
                          z=-eta * w, d=w ** 2)
