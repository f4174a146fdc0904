"""Thermal occupation of the dressed atom: Bose-Einstein statistics plus the
interpolated occupation dynamics n_0'(t, beta).

The occupation formula is linear in the initial occupations:
n_0'(t) = |f_00(t)|^2 n_0(0) + sum_k |f_0k(t)|^2 nbar(omega_k, beta).
At t = 0 completeness gives back n_0(0) exactly; at beta -> inf the field
term dies and the atom empties; in free space at long times the amplitude
weights concentrate near resonance and the value settles at nbar(omega_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import amplitude_blocks
from .errors import DomainError
from .model import ModeLadder
from .spectral import DressedSpectrum

# Below this the exponential is expanded in series to avoid cancellation;
# above ~700 the exponential overflows a double and the occupation is 0.
SERIES_THRESHOLD = 1e-6
OVERFLOW_THRESHOLD = 700.0


@dataclass(frozen=True, eq=False)
class OccupationSeries:
    """Occupation samples n_0'(t, beta) with the inputs that produced them."""

    t: np.ndarray
    occupation: np.ndarray
    beta: float
    n0_init: float

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "occupation", np.asarray(self.occupation, dtype=float))


class OccupationSummary(NamedTuple):
    time_average: float
    minimum: float
    maximum: float


def bose_einstein(omega: float, beta: float) -> float:
    """Mean thermal occupation 1/(exp(beta*omega) - 1) in natural units."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    x = beta * omega
    if x > OVERFLOW_THRESHOLD:
        return 0.0
    if x < SERIES_THRESHOLD:
        # 1/(e^x - 1) = 1/x - 1/2 + x/12 + O(x^3)
        return 1.0 / x - 0.5 + x / 12.0
    return 1.0 / math.expm1(x)


def _bose_einstein_vector(omegas: np.ndarray, beta: float) -> np.ndarray:
    """bose_einstein over an array of frequencies, with the same series and overflow branches."""
    x = beta * np.asarray(omegas, dtype=float)
    if x.size and (np.min(omegas) <= 0.0 or beta <= 0.0):
        raise DomainError(f"omega and beta must be positive, got min omega "
                          f"{np.min(omegas)}, beta {beta}")
    out = np.zeros_like(x)
    series = x < SERIES_THRESHOLD
    exact = ~series & ~(x > OVERFLOW_THRESHOLD)
    out[series] = 1.0 / x[series] - 0.5 + x[series] / 12.0
    out[exact] = 1.0 / np.expm1(x[exact])
    return out


def occupation_series(spectrum: DressedSpectrum, ladder: ModeLadder, beta: float,
                      n0_init: float, t_grid: np.ndarray) -> OccupationSeries:
    """Occupation of the dressed atom over a time grid at inverse temperature beta.

    The ladder supplies the mode frequencies entering the Bose-Einstein
    weights of the field labels; it must match the spectrum's size.  The
    weights |f_0nu|^2 = re^2 + im^2 are summed block by block in t, so the
    full amplitude array is never held.
    """
    if n0_init < 0.0:
        raise DomainError(f"n0_init must be nonnegative, got {n0_init}")
    if ladder.n_modes != spectrum.size - 1:
        raise DomainError(
            f"ladder has {ladder.n_modes} modes but spectrum has {spectrum.size - 1} field labels")
    t = np.asarray(t_grid, dtype=float)
    weights = np.concatenate(([n0_init], _bose_einstein_vector(ladder.frequencies, beta)))
    occupation = np.empty(t.size)
    for block, re, im in amplitude_blocks(spectrum, t):
        re *= re
        im *= im
        re += im
        occupation[block] = weights @ re
    return OccupationSeries(t=t, occupation=occupation, beta=beta, n0_init=n0_init)


def cavity_occupation_summary(series: OccupationSeries) -> OccupationSummary:
    """Arithmetic (time-average, min, max) over the sampled window."""
    if series.occupation.size == 0:
        raise DomainError("occupation series is empty")
    occ = series.occupation
    return OccupationSummary(time_average=float(np.mean(occ)),
                             minimum=float(np.min(occ)),
                             maximum=float(np.max(occ)))
