"""Two-qubit entanglement measures: concurrence, entanglement of formation,
and negativity, with closed-form shortcuts for the single-excitation family.

Conventions: Wootters spin-flip concurrence, binary entropy in bits (so a
Bell state scores EoF = 1), and negativity as trace norm of the partial
transpose minus 1 (Bell state scores 1).
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


@dataclass(frozen=True)
class EntanglementMeasures:
    concurrence: float
    eof: float
    negativity: float


def _require_physical(rho: ReducedDensityMatrix) -> np.ndarray:
    """The matrix of rho, once its lowest eigenvalue clears POSITIVITY_FLOOR."""
    m = rho.matrix
    if float(np.linalg.eigvalsh(m)[0]) < POSITIVITY_FLOOR:
        raise ContractViolationError("density matrix is not positive semidefinite")
    return m


def concurrence(rho: ReducedDensityMatrix) -> float:
    """Wootters concurrence via the spin-flip eigenvalue formula.

    On single-excitation states this reduces to 2|rho[01,10]|; the general
    path is kept so the closed form can be cross-checked.  The eigenvalues
    of rho (spin-flipped rho) are computed through the Hermitian product
    sqrt(rho) rho~ sqrt(rho); the non-Hermitian route loses half the digits
    near degeneracies.
    """
    m = _require_physical(rho)
    evals, vecs = np.linalg.eigh(m)
    # null-space noise must be zeroed exactly, or the square root turns
    # eps-level eigenvalue noise into sqrt(eps)-level lambda noise
    evals = np.where(evals < 256.0 * np.finfo(float).eps * evals[-1], 0.0, evals)
    sqrt_m = (vecs * np.sqrt(evals)) @ vecs.conj().T
    bridge = sqrt_m @ _SPIN_FLIP @ np.conj(sqrt_m)
    lam = np.linalg.svd(bridge, compute_uv=False)  # descending; these are Wootters' lambdas
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(c: float) -> float:
    """Binary-entropy function of the concurrence, in bits."""
    if c < -1e-12 or c > 1.0 + 1e-12:
        raise DomainError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    x = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def partial_transpose(rho: ReducedDensityMatrix) -> np.ndarray:
    """Partial transpose on qubit B: swap the B labels of row and column."""
    m = rho.matrix.reshape(2, 2, 2, 2)  # (p_A, p_B, r_A, r_B)
    return np.ascontiguousarray(m.transpose(0, 3, 2, 1)).reshape(4, 4)


def negativity(rho: ReducedDensityMatrix) -> float:
    """Trace norm of the partial transpose minus 1, i.e. twice the total
    weight of negative eigenvalues."""
    _require_physical(rho)
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho))
    return float(np.sum(np.abs(eigenvalues)) - np.sum(eigenvalues))


def measures(rho: ReducedDensityMatrix) -> EntanglementMeasures:
    c = concurrence(rho)
    return EntanglementMeasures(concurrence=c,
                                eof=entanglement_of_formation(c),
                                negativity=negativity(rho))


def family_concurrence(xi: float, survival: float) -> float:
    """Closed form on the single-excitation family: C = 2 sqrt(xi(1-xi)) |f_00|^2."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi must lie in [0, 1], got {xi}")
    if survival < 0.0 or survival > 1.0 + 1e-12:
        raise DomainError(f"survival must lie in [0, 1], got {survival}")
    return 2.0 * math.sqrt(xi * (1.0 - xi)) * survival
