"""Two-qubit entanglement measures: concurrence, entanglement of formation,
and negativity, with closed-form shortcuts for the single-excitation family.

Conventions: Wootters spin-flip concurrence (PRL 80, 2245, 1998), binary
entropy in bits (so a Bell state scores EoF = 1), and negativity as trace
norm of the partial transpose minus 1 (Bell state scores 1).

Every measure works on a (..., 4, 4) stack of states; a single state is a
stack of shape (4, 4).  `measures` is the one entry point: it checks the
stack positive semidefinite and evaluates all three measures on the whole
stack as one batch.  Its temporaries grow with the stack, so a caller with
a long series hands it one block at a time, as the CLI's `density` and
`entanglement` tables do (`cli.MEASURE_BLOCK` samples per block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import ReducedDensityMatrix
from .errors import ContractViolationError, DomainError

# Eigenvalues of a physical state may dip below zero by rounding only.
POSITIVITY_FLOOR = -1e-10

# sigma_y (x) sigma_y in the ordered basis {|00>,|01>,|10>,|11>}.
_SPIN_FLIP = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


@dataclass(frozen=True, eq=False)
class EntanglementMeasures:
    """The three measures with the stack's leading shape (scalars for one state)."""

    concurrence: np.ndarray | float
    eof: np.ndarray | float
    negativity: np.ndarray | float


def _require_physical(lowest: np.ndarray, start: int) -> None:
    """Raise unless the lowest eigenvalue of every state of a stack clears
    POSITIVITY_FLOOR; the message names the first bad sample by its flat
    index start + i."""
    bad = np.flatnonzero(lowest < POSITIVITY_FLOOR)
    if bad.size:
        raise ContractViolationError(
            f"density matrix at sample {start + bad[0]} is not positive semidefinite "
            f"(lowest eigenvalue {lowest[bad[0]]:.3g})")


def _concurrence(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each state via the spin-flip eigenvalue formula,
    from the ascending eigenvalues and eigenvectors `eigh` gives for rho.

    On single-excitation states this reduces to 2|rho[01,10]|; the general
    path is kept so the closed form can be cross-checked.  The eigenvalues
    of rho (spin-flipped rho) are computed through the Hermitian product
    sqrt(rho) rho~ sqrt(rho); the non-Hermitian route loses half the digits
    near degeneracies.
    """
    # null-space noise must be zeroed exactly, or the square root turns
    # eps-level eigenvalue noise into sqrt(eps)-level lambda noise
    evals = np.where(evals < 256.0 * np.finfo(float).eps * evals[..., -1:], 0.0, evals)
    sqrt_m = (vecs * np.sqrt(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    bridge = sqrt_m @ _SPIN_FLIP @ np.conj(sqrt_m)
    lam = np.linalg.svd(bridge, compute_uv=False)  # descending; these are Wootters' lambdas
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(c > 0.0, c, 0.0)


def entanglement_of_formation(c: float) -> float:
    """Binary-entropy function of the concurrence, in bits."""
    if c < -1e-12 or c > 1.0 + 1e-12:
        raise DomainError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    x = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Partial transpose on qubit B of a (..., 4, 4) stack: swap the B labels
    of row and column."""
    lead = m.shape[:-2]
    # axes (..., p_A, p_B, r_A, r_B); the final reshape copies into C order
    return m.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def _negativity(m: np.ndarray) -> np.ndarray:
    """Trace norm of the partial transpose minus 1, i.e. twice the total
    weight of negative eigenvalues, for each state."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(m))
    return np.sum(np.abs(eigenvalues), axis=-1) - np.sum(eigenvalues, axis=-1)


def measures(rho: ReducedDensityMatrix, first: int = 0) -> EntanglementMeasures:
    """Concurrence, EoF and negativity of every state of rho's stack, after
    one positivity check of the whole stack, read from the one
    eigendecomposition the concurrence uses.  The positivity error names
    the first bad state by its flat index plus `first`, the index of rho's
    first state in the series it was cut from."""
    lead = rho.matrix.shape[:-2]
    flat = rho.matrix.reshape(-1, 4, 4)
    evals, vecs = np.linalg.eigh(flat)
    _require_physical(evals[:, 0], first)
    c = _concurrence(evals, vecs)
    negativity = _negativity(flat)
    # the scalar EoF keeps its bits; a vectorized log2 rounds some of them apart
    eof = np.array([entanglement_of_formation(x) for x in c.tolist()])
    return EntanglementMeasures(concurrence=c.reshape(lead)[()], eof=eof.reshape(lead)[()],
                                negativity=negativity.reshape(lead)[()])


def family_concurrence(xi: float, survival: float) -> float:
    """Closed form on the single-excitation family: C = 2 sqrt(xi(1-xi)) |f_00|^2."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi must lie in [0, 1], got {xi}")
    if survival < 0.0 or survival > 1.0 + 1e-12:
        raise DomainError(f"survival must lie in [0, 1], got {survival}")
    return 2.0 * math.sqrt(xi * (1.0 - xi)) * survival
