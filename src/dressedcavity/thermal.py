"""Thermal occupation of the dressed atom: Bose-Einstein statistics plus the
interpolated occupation dynamics n_0'(t, beta).

The occupation formula is linear in the initial occupations:
n_0'(t) = |f_00(t)|^2 n_0(0) + sum_k |f_0k(t)|^2 nbar(omega_k, beta).
At t = 0 completeness gives back n_0(0) exactly; at beta -> inf the field
term dies and the atom empties; in free space at long times the amplitude
weights concentrate near resonance and the value settles at nbar(omega_bar).
`occupation_weights` builds the weight vector [n_0(0), nbar(omega_k, beta)...]
from the model's `ModelParams`; `occupation_series` contracts one weight
vector, or a stack of them, with |f_0nu(t)|^2 in one pass over the
amplitude blocks.  It returns an `OccupationSeries`: the occupations as
plain arrays on the caller's time grid, and f_00(t), which the same pass
gives for one more matrix-vector product per block, so a caller that also
needs f_00 (the `dynamics` table) builds no phase table of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import amplitude_blocks
from .errors import DomainError
from .model import ModelParams
from .spectral import DressedSpectrum

# Below this the exponential is expanded in series to avoid cancellation;
# above ~700 the exponential overflows a double and the occupation is 0.
SERIES_THRESHOLD = 1e-6
OVERFLOW_THRESHOLD = 700.0
# Occupations stay at most this, so their sums weighted by |f_0nu|^2 (which
# add up to 1) stay finite: n0_init is capped here, and nbar ~ 1/x reaches
# it at x = 1/OCCUPATION_LIMIT.
OCCUPATION_LIMIT = 1e300


def bose_einstein(omega: float | np.ndarray, beta: float) -> float | np.ndarray:
    """Mean thermal occupation 1/(exp(beta*omega) - 1) in natural units.

    omega is one frequency (giving a float) or an array of them (giving an
    array).  Below SERIES_THRESHOLD the exponential is expanded in series;
    above OVERFLOW_THRESHOLD, including a beta*omega that overflows to inf,
    the occupation is 0.
    """
    omegas = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):  # an infinite x takes the overflow branch
        x = beta * omegas
    floor = 1.0 / OCCUPATION_LIMIT
    if x.size and (np.min(omegas) <= 0.0 or beta <= 0.0 or np.min(x) < floor):
        raise DomainError(f"omega and beta must be positive with beta*omega >= {floor:g}, "
                          f"got min omega {np.min(omegas)}, beta {beta}")
    out = np.zeros_like(x)
    series = x < SERIES_THRESHOLD
    exact = ~series & ~(x > OVERFLOW_THRESHOLD)
    # 1/(e^x - 1) = 1/x - 1/2 + x/12 + O(x^3)
    out[series] = 1.0 / x[series] - 0.5 + x[series] / 12.0
    out[exact] = 1.0 / np.expm1(x[exact])
    return float(out) if out.ndim == 0 else out


def occupation_weights(params: ModelParams, beta: float, n0_init: float) -> np.ndarray:
    """Weights [n0_init, nbar(omega_k, beta)...] of |f_0nu|^2 in n_0'(t, beta):
    the atom's initial occupation, then the Bose-Einstein occupation of each
    of the params' modes."""
    if not 0.0 <= n0_init <= OCCUPATION_LIMIT:
        raise DomainError(f"n0_init must lie in [0, {OCCUPATION_LIMIT:g}], got {n0_init}")
    return np.concatenate(([n0_init], bose_einstein(params.mode_frequencies, beta)))


@dataclass(frozen=True, eq=False)
class OccupationSeries:
    """One occupation pass: `occupation`, shaped like the weights' stack with
    the time axis last, and the survival amplitude `f00` on the same grid."""

    occupation: np.ndarray
    f00: np.ndarray


def occupation_series(spectrum: DressedSpectrum, weights: np.ndarray,
                      t_grid: np.ndarray) -> OccupationSeries:
    """Occupation n_0'(t) = sum_nu w_nu |f_0nu(t)|^2 at each time of t_grid,
    and f_00(t) from the same pass.

    weights is one `occupation_weights` vector of shape (N+1,), giving a (T,)
    occupation, or a (P, N+1) stack of them, giving (P, T); a single vector
    is a stack of one, and an empty (0, N+1) stack still gives f_00.  The
    powers |f_0nu|^2 = re^2 + im^2 are formed block by block in t, once for
    the whole stack, so the full amplitude array is never held; each weight
    vector is contracted with them by its own matrix-vector product, so a
    stacked row equals its single call bit for bit.  f_00 comes from the
    pass's label-0 selection, the product `amplitudes(spectrum, t_grid, 0)`
    makes, so the two agree bit for bit.
    """
    stack = np.asarray(weights, dtype=float)
    if stack.ndim not in (1, 2) or stack.shape[-1] != spectrum.size:
        raise DomainError(f"weights of shape {stack.shape} need {spectrum.size} entries per "
                          f"vector, one per label of the spectrum")
    t = np.asarray(t_grid, dtype=float)
    occupation = np.empty(stack.shape[:-1] + t.shape)
    f00 = np.empty(t.shape, dtype=complex)
    for block, (re, im), (re0, im0) in amplitude_blocks(spectrum, t, slice(None), 0):
        f00[block].real = re0
        f00[block].imag = im0
        # squared in place: the parts are the pass's own buffers, refilled by
        # the next block, so the pass holds three (N+1) x block tables (the
        # phase table and these two parts) and allocates none per block
        re *= re
        im *= im
        re += im
        for row, weight in zip(np.atleast_2d(occupation), np.atleast_2d(stack)):
            row[block] = weight @ re
    return OccupationSeries(occupation, f00)
