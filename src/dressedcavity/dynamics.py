"""Excitation-transfer amplitudes, survival probability, and decay-rate fits.

The model is exactly solvable in the dressed eigenbasis, so time series come
from direct spectral summation: f_0nu(t) = sum_s t_0^s t_nu^s exp(-i Omega_s t).
No integrator, no accumulation error in t.  The weights are real, so every
sum runs as two real products against cos(Omega_s t) and sin(Omega_s t),
over blocks of t that keep the phase table small.

`amplitude_blocks(spectrum, t_grid, *selections)` fills one phase table
per block with the scaled cos, which every label selection contracts, and
then with the scaled sin, so one pass over t serves several selections.
Its table and products are buffers allocated once per pass, and a block's
parts stay valid until the generator advances.  A pass for f_00 alone
holds one (N+1) x block table; an all-label pass holds three (the table
and its two parts).
`amplitudes(spectrum, t_grid, labels)` is its one-selection route to the
complex amplitudes; everything that needs f_0nu (the CLI's unitarity probe
and row builders, the thermal-trace oracle) calls it, and only the thermal
occupation streams the blocks directly, asking for all labels and for
label 0 in the same pass.  The survival |f_00|^2 is formed by whoever holds
f_00, whichever pass gave it; `decay_rate_fit` fits its logarithm.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FitWindowError, InsufficientDataError
from .spectral import DressedSpectrum

# Phase-table entries per block of t: 8 MB each for the phase table and, in
# an all-label pass, its real and imaginary parts.  Smaller blocks cost
# matrix-product efficiency at N ~ 2000, and any other width moves some of
# the products' last bits.
BLOCK_ELEMENTS = 1 << 20


def amplitude_blocks(spectrum: DressedSpectrum, t_grid: np.ndarray, *selections):
    """Real and imaginary parts of f_0nu(t) for each label selection, block by block in t.

    Yields (block, (re, im), ...): block is the slice of t_grid covered, then
    one (re, im) per selection, in order, with the selection's label axis
    first (dropped for a single integer label) and the time axis last.  Each
    block fills one phase table twice: with t_0^s cos(Omega_s t), which every
    selection contracts into its real part, then with t_0^s sin(Omega_s t)
    for the imaginary parts.  Each selection's parts are its own products
    components[labels] @ table, so they do not depend on which other
    selections share the pass.

    The table and the products live in buffers allocated once per call (a
    contiguous view of each for the ragged last block), so a block's parts
    stay valid only until the generator advances.  A pass holds the table
    plus two products per selection: one table's worth for row 0 alone,
    three for all labels.
    """
    v = spectrum.components
    t0 = v[0][:, None]
    rows = [v[labels] for labels in selections]
    t = np.asarray(t_grid, dtype=float)
    step = max(1, BLOCK_ELEMENTS // spectrum.size)
    width = min(step, t.size)
    # one array for the table and per part, as spectral._workspaces explains
    table = np.empty(spectrum.size * width)
    products = [[np.empty(selected[..., 0].size * width) for _ in range(2)] for selected in rows]
    for start in range(0, t.size, step):
        block = slice(start, start + step)
        cols = min(step, t.size - start)
        phase = _leading(table, (spectrum.size, cols))
        parts = [[_leading(space, selected.shape[:-1] + (cols,)) for space in spaces]
                 for selected, spaces in zip(rows, products)]
        for k, trig in enumerate((np.cos, np.sin)):
            np.multiply.outer(spectrum.omega_dressed, t[block], out=phase)
            trig(phase, out=phase)
            phase *= t0
            for selected, part in zip(rows, parts):
                np.matmul(selected, phase, out=part[k])
        for _, im in parts:
            np.negative(im, out=im)
        yield (block, *map(tuple, parts))


def _leading(space: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) entries of the flat buffer space, as a contiguous array."""
    return space[:math.prod(shape)].reshape(shape)


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
    for block, (re, im) in amplitude_blocks(spectrum, t, labels):
        out[..., block].real = re
        out[..., block].imag = im
    return out


def decay_rate_fit(t: np.ndarray, survival: np.ndarray,
                   window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares decay rate of ln survival, sampled at the times t, over the window.

    Returns (Gamma, r_squared): Gamma = -slope and the coefficient of
    determination.  Fails when fewer than 3 samples fall inside the window
    or when the survival signal has decayed into a nonpositive noise floor.
    """
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if int(np.sum(mask)) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples in window [{lo}, {hi}], got {int(np.sum(mask))}")
    surv = survival[mask]
    if np.any(surv <= 0.0):
        raise FitWindowError("survival is nonpositive inside the fit window")
    x = t[mask]
    y = np.log(surv)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.sum(total ** 2))
    # a log-signal flat to machine precision is a perfect (zero-rate) exponential
    if ss_tot <= 1e-28 * y.size:
        return -float(slope), 1.0
    return -float(slope), 1.0 - float(np.sum(residual ** 2)) / ss_tot


def wigner_weisskopf_rate(g: float) -> float:
    """Golden-rule survival decay rate for the linear-ladder model.

    With per-mode coupling eta*omega_k, resonant matrix element eta/2 in the
    frequency domain, and mode density R/pi, the rate is
    2*pi*(eta/2)^2*(R/pi) = pi*g, independent of R.
    """
    return math.pi * g
