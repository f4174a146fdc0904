"""Excitation-transfer amplitudes, survival probability, and decay-rate fits.

The model is exactly solvable in the dressed eigenbasis, so time series come
from direct spectral summation: f_0nu(t) = sum_s t_0^s t_nu^s exp(-i Omega_s t).
No integrator, no accumulation error in t.  The weights are real, so every
sum runs as two real products against cos(Omega_s t) and sin(Omega_s t),
over blocks of t that keep the phase tables small.

`amplitudes(spectrum, t_grid, labels)` is the one route to the complex
amplitudes; everything that needs f_0nu (survival, the CLI's unitarity
probe and row builders, the thermal-trace oracle) calls it, and only the
thermal occupation streams the blocks of `amplitude_blocks` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitWindowError, InsufficientDataError
from .spectral import DressedSpectrum

# Phase-table entries per block of t (two tables of 8 MB each); smaller
# blocks cost matrix-product efficiency at N ~ 2000.
BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True, eq=False)
class SurvivalSeries:
    """Samples of (t, |f_00|^2, arg f_00) on a strictly increasing grid."""

    t: np.ndarray
    survival: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        for name in ("t", "survival", "phase"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(np.diff(self.t) <= 0.0):
            raise InsufficientDataError("time grid must be strictly increasing")


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float


def amplitude_blocks(spectrum: DressedSpectrum, t_grid: np.ndarray, labels=slice(None)):
    """Real and imaginary parts of f_0nu(t) for the given labels, block by block in t.

    Yields (block, re, im): block is the slice of t_grid covered, and re/im
    have the label axis first (dropped for a single integer label) and the
    time axis last.
    """
    v = spectrum.components
    t0 = v[0][:, None]
    rows = v[labels]
    t = np.asarray(t_grid, dtype=float)
    step = max(1, BLOCK_ELEMENTS // spectrum.size)
    for start in range(0, t.size, step):
        block = slice(start, start + step)
        phase = np.multiply.outer(spectrum.omega_dressed, t[block])
        cos = np.cos(phase)
        cos *= t0
        sin = np.sin(phase, out=phase)
        sin *= t0
        im = rows @ sin
        np.negative(im, out=im)
        yield block, rows @ cos, im


def amplitudes(spectrum: DressedSpectrum, t_grid: np.ndarray, labels=slice(None)) -> np.ndarray:
    """Complex f_0nu(t) over a time grid, assembled from amplitude_blocks.

    f_0nu(t) = sum_s t_0^s t_nu^s exp(-i Omega_s t); at t = 0 this is the
    completeness relation, so f_00 = 1 and all others vanish.  The label
    axis comes first (dropped for a single integer label) and the time axis
    last; pass [t] for a single time.
    """
    t = np.asarray(t_grid, dtype=float)
    shape = spectrum.components[labels, 0].shape + t.shape
    out = np.empty(shape, dtype=complex)
    for block, re, im in amplitude_blocks(spectrum, t, labels):
        out[..., block].real = re
        out[..., block].imag = im
    return out


def survival_series(spectrum: DressedSpectrum, t_grid: np.ndarray) -> SurvivalSeries:
    """Survival probability and phase of f_00 on an increasing time grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise InsufficientDataError("time grid is empty")
    f00 = amplitudes(spectrum, t, 0)
    return SurvivalSeries(t=t, survival=np.abs(f00) ** 2, phase=np.angle(f00))


def decay_rate_fit(series: SurvivalSeries, window: tuple[float, float]) -> DecayFit:
    """Least-squares decay rate of ln survival over the window.

    Returns Gamma = -slope and the coefficient of determination.  Fails when
    fewer than 3 samples fall inside the window or when the survival signal
    has decayed into a nonpositive noise floor.
    """
    lo, hi = window
    mask = (series.t >= lo) & (series.t <= hi)
    if int(np.sum(mask)) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples in window [{lo}, {hi}], got {int(np.sum(mask))}")
    surv = series.survival[mask]
    if np.any(surv <= 0.0):
        raise FitWindowError("survival is nonpositive inside the fit window")
    x = series.t[mask]
    y = np.log(surv)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.sum(total ** 2))
    # a log-signal flat to machine precision is a perfect (zero-rate) exponential
    if ss_tot <= 1e-28 * y.size:
        return DecayFit(rate=-float(slope), r_squared=1.0)
    r2 = 1.0 - float(np.sum(residual ** 2)) / ss_tot
    return DecayFit(rate=-float(slope), r_squared=r2)


def wigner_weisskopf_rate(g: float) -> float:
    """Golden-rule survival decay rate for the linear-ladder model.

    With per-mode coupling eta*omega_k, resonant matrix element eta/2 in the
    frequency domain, and mode density R/pi, the rate is
    2*pi*(eta/2)^2*(R/pi) = pi*g, independent of R.
    """
    return math.pi * g
