"""Dressed spectrum: the arrowhead coupling matrix solved through its secular
equation in O(N^2) time.

Write the matrix as M = [[a, z^T], [z, diag(d)]] (a the atom entry, z the
border, d the squared mode frequencies).  Its eigenvalues are the roots of

    F(lam) = lam - a + sum_k z_k^2 / (d_k - lam),

which increases strictly between poles: one root lies below the lowest
pole, one between each pair of neighbouring poles and one above the highest.
All roots are found together by the safeguarded rational iteration of
LAPACK dlaed4 (Gu & Eisenstat, SIMAX 16, 1995).  Each root is kept as an
offset tau from its nearer pole, so every difference d_k - lam is formed as
(d_k - d_origin) - tau and never loses digits to cancellation.

Components follow from Loewner's formulas (Stor, Slapnicar & Barlow,
LAA 464, 2015):

    t_0^s = (1 + sum_k z_k^2 / (d_k - lam_s)^2)^(-1/2),
    t_k^s = t_0^s z_k / (lam_s - d_k),

which fixes the sign convention t_0^s >= 0.  A border entry at or below
DEFLATION_RTOL * max|M| is deflated to the exact eigenpair (d_k, e_k); this
covers g = 0.  The eigenfrequencies Omega_s are the square roots of the
eigenvalues; dense eigh remains the small-N cross-check in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, ContractViolationError, DomainError, ModelInstabilityError
from .model import CouplingMatrix, ModeLadder, ModelParams, build_coupling_matrix, build_mode_ladder

EPS = float(np.finfo(float).eps)
# Border entries at or below this fraction of max|M| deflate.
DEFLATION_RTOL = 8.0 * EPS
MAX_ITERATIONS = 50
# Roots are solved in blocks of rows; a block's temporaries hold about this
# many doubles, so no temporary is (N+1)^2 in size.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class DressedSpectrum:
    """Eigenfrequencies Omega_s (ascending) and components t_nu^s.

    components[nu, s] is the weight of dressed mode s on bare coordinate nu
    (nu = 0 atom, nu >= 1 field modes); the matrix is orthogonal.
    """

    omega_dressed: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega_dressed, dtype=float)
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "omega_dressed", om)
        object.__setattr__(self, "components", comp)
        n = om.size
        if comp.shape != (n, n):
            raise ContractViolationError("components shape does not match frequency count")
        if np.any(om <= 0.0):
            raise ModelInstabilityError("dressed spectrum contains a nonpositive frequency")

    @property
    def size(self) -> int:
        return self.omega_dressed.size

    @property
    def atom_weights(self) -> np.ndarray:
        """Spectral weights (t_0^s)^2 of the atom coordinate; they sum to 1."""
        return self.components[0, :] ** 2

    def reconstruction_residual(self, matrix: CouplingMatrix) -> float:
        """Max-norm eigen-equation residual max|MV - V diag(Omega^2)| / max|M|.

        Uses the arrowhead structure, so it costs O(N^2) time and works on
        blocks of eigenvectors.
        """
        a, z, d = _arrowhead_parts(matrix)
        vt = self.components.T
        lam = self.omega_dressed ** 2
        worst = float(np.max(np.abs(vt[:, 1:] @ z + (a - lam) * vt[:, 0])))
        step = max(1, BLOCK_ELEMENTS // self.size)
        for start in range(0, self.size, step):
            block = slice(start, start + step)
            body = np.subtract.outer(-lam[block], -d)  # d_k - lam_s
            body *= vt[block, 1:]
            body += np.multiply.outer(vt[block, 0], z)
            worst = max(worst, float(np.max(np.abs(body))))
        return worst / _max_abs(a, z, d)


def _max_abs(a: float, z: np.ndarray, d: np.ndarray) -> float:
    return max(abs(a), float(np.max(np.abs(z), initial=0.0)), float(np.max(np.abs(d), initial=0.0)))


def _arrowhead_parts(matrix: CouplingMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """(a, z, d) of an arrowhead matrix; anything off the arrow must be zero."""
    m = matrix.matrix
    diagonal = np.diagonal(m)
    if np.count_nonzero(m[1:, 1:]) != np.count_nonzero(diagonal[1:]):
        raise ContractViolationError("coupling matrix is not an arrowhead")
    a, z, d = float(m[0, 0]), m[0, 1:].copy(), diagonal[1:].copy()
    if not (math.isfinite(a) and np.all(np.isfinite(z)) and np.all(np.isfinite(d))):
        raise DomainError("coupling matrix has a non-finite entry")
    return a, z, d


def diagonalize(matrix: CouplingMatrix) -> DressedSpectrum:
    """All eigenpairs of the arrowhead coupling matrix, sorted ascending, in O(N^2).

    The mode entries d of the diagonal must ascend strictly wherever their
    border entry does not deflate, as every mode ladder does.  Raises
    ModelInstabilityError when any eigenvalue is nonpositive: the arrowhead
    form is positive definite for every valid parameter set, so for a model
    matrix this means the lowest eigenvalue is below the double-precision
    resolution eps*max|M| (the mode span dwarfs omega_bar).  Raises
    BracketingError when a secular root fails to converge.
    """
    a, z, d = _arrowhead_parts(matrix)
    n = d.size
    tol = DEFLATION_RTOL * _max_abs(a, z, d)
    live = np.flatnonzero(np.abs(z) > tol)
    dead = np.flatnonzero(np.abs(z) <= tol)
    if np.any(np.diff(d[live]) <= tol):
        raise ContractViolationError("coupled mode entries must ascend strictly")
    lam_live, vt_live = _secular_eigenpairs(a, d[live], z[live])
    lam = np.concatenate((lam_live, d[dead]))
    rank = np.argsort(lam, kind="stable")
    lam = lam[rank]
    if lam[0] <= 0.0:
        raise ModelInstabilityError(
            f"lowest squared frequency {float(lam[0])!r} is not positive; the model's "
            "coupling matrix is positive definite, so its lowest eigenvalue is below the "
            f"double-precision resolution eps*max|M| = {EPS * _max_abs(a, z, d):.3g}: "
            "the mode span dwarfs omega_bar")
    if dead.size == 0:
        vt = vt_live  # rows ascend, columns follow the modes
    else:
        # deflated pairs (d_k, e_k) slot in among the secular roots
        position = np.empty(n + 1, dtype=int)
        position[rank] = np.arange(n + 1)
        vt = np.zeros((n + 1, n + 1))
        vt[np.ix_(position[:live.size + 1], np.concatenate(([0], 1 + live)))] = vt_live
        vt[position[live.size + 1:], 1 + dead] = 1.0
    return DressedSpectrum(omega_dressed=np.sqrt(lam), components=vt.T)


def _secular_eigenpairs(a: float, d: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (as rows) of [[a, z^T], [z, diag(d)]].

    d must be strictly ascending and z free of zeros.  Row s of the returned
    matrix holds (t_0^s, t_1^s, ..., t_m^s).
    """
    m = d.size
    if m == 0:
        return np.array([a]), np.ones((1, 1))
    z2 = z * z
    norm_z = math.sqrt(float(np.sum(z2)))
    origin = np.empty(m + 1, dtype=int)
    tau, lo, hi = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)

    # Lowest root, below d_0, and highest, above d_{m-1}: each pole-side guess
    # solves the near-pole term plus the other poles frozen at that pole,
    # a bound on the root from outside.
    far = float(np.sum(z2[1:] / (d[1:] - d[0])))
    origin[0] = 0
    hi[0] = min(a - d[0], 0.0)
    lo[0] = hi[0] - 2.0 * norm_z
    tau[0] = _quadratic_root(1.0, -(d[0] - a + far), -z2[0], -1.0)
    far = float(np.sum(z2[:-1] / (d[:-1] - d[-1])))
    origin[m] = m - 1
    lo[m] = max(a - d[-1], 0.0)
    hi[m] = lo[m] + 2.0 * norm_z
    tau[m] = _quadratic_root(1.0, -(d[-1] - a + far), -z2[-1], 1.0)
    if m > 1:
        _interior_start(a, d, z2, origin, tau, lo, hi)

    lam = np.empty(m + 1)
    vt = np.empty((m + 1, m + 1))
    step = max(1, BLOCK_ELEMENTS // m)
    for start in range(0, m + 1, step):
        rows = np.arange(start, min(start + step, m + 1))
        _solve_rows(a, d, z, z2, rows, origin[rows], tau[rows], lo[rows], hi[rows], lam, vt)
    return lam, vt


def _interior_start(a, d, z2, origin, tau, lo, hi) -> None:
    """Origin, bracket and first guess for the roots between neighbouring poles.

    The sign of F at the midpoint of interval (d_{i-1}, d_i) says which pole
    the root is nearer; the guess solves the two-pole model whose remaining
    terms are frozen at the midpoint (dlaed4's start).
    """
    m = d.size
    half = 0.5 * np.diff(d)
    f_mid = np.empty(m - 1)
    step = max(1, BLOCK_ELEMENTS // m)
    for start in range(0, m - 1, step):
        k = np.arange(start, min(start + step, m - 1))
        f_mid[k] = _secular(a, d, z2, k, half[k])[0]
    left = f_mid >= 0.0
    gap = 2.0 * half
    zl, zr = z2[:-1], z2[1:]
    c = f_mid + (zl - zr) / half
    roots = slice(1, m)
    origin[roots] = np.where(left, np.arange(m - 1), np.arange(1, m))
    lo[roots] = np.where(left, 0.0, -half)
    hi[roots] = np.where(left, half, 0.0)
    # tau from the left pole solves c tau^2 - (c gap + zl + zr) tau + zl gap = 0,
    # from the right pole c tau^2 + (c gap - zl - zr) tau - zr gap = 0
    tau[roots] = np.where(left,
                          _quadratic_root(c, c * gap + zl + zr, zl * gap, -1.0),
                          _quadratic_root(-c, c * gap - zl - zr, zr * gap, 1.0))


def _quadratic_root(c, b, q, sign):
    """The root (b + sign*sqrt(|b^2 - 4 q c|)) / (2 c) of c x^2 - b x + q, formed stably."""
    c, b, q = np.asarray(c, dtype=float), np.asarray(b, dtype=float), np.asarray(q, dtype=float)
    root = np.sqrt(np.abs(b * b - 4.0 * q * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sign * b >= 0.0, (b + sign * root) / (2.0 * c), 2.0 * q / (b - sign * root))


def _secular(a, d, z2, origin, tau):
    """F, F' and a rounding-error bound of F at lam = d[origin] + tau, per row.

    Also returns q[s, k] = z_k^2 / (d_k - lam_s).
    """
    delta = d[None, :] - d[origin][:, None]
    delta -= tau[:, None]
    q = z2 / delta
    base = d[origin] - a
    f = base + tau + q.sum(axis=1)
    np.divide(q, delta, out=delta)
    df = 1.0 + delta.sum(axis=1)
    np.abs(q, out=delta)
    err = 8.0 * delta.sum(axis=1) + 2.0 * np.abs(base) + 3.0 * np.abs(tau) + np.abs(tau) * df
    return f, df, err, q


def _solve_rows(a, d, z, z2, rows, origin, tau, lo, hi, lam, vt) -> None:
    """Iterate the roots `rows` to convergence; write eigenvalues and Loewner rows."""
    m = d.size
    outer = np.where(rows == 0, -1.0, np.where(rows == m, 1.0, 0.0))
    # the far pole of an interior root is the other end of its interval
    far = np.where(origin == rows, rows - 1, rows)
    far = np.clip(far, 0, m - 1)
    tau = np.where((tau > lo) & (tau < hi), tau, 0.5 * (lo + hi))
    active = np.arange(rows.size)
    for _ in range(MAX_ITERATIONS):
        o, t = origin[active], tau[active]
        f, df, err, q = _secular(a, d, z2, o, t)
        done = (np.abs(f) <= EPS * err) | (hi[active] - lo[active] <= 4.0 * EPS * np.abs(t))
        if np.any(done):
            finished = active[done]
            t0 = 1.0 / np.sqrt(df[done])
            lam[rows[finished]] = d[o[done]] + t[done]
            vt[rows[finished], 0] = t0
            vt[rows[finished], 1:] = q[done] * (-t0[:, None] / z)
        keep = ~done
        active, o, t, f, df = active[keep], o[keep], t[keep], f[keep], df[keep]
        if active.size == 0:
            return
        lo[active] = np.where(f < 0.0, t, lo[active])
        hi[active] = np.where(f > 0.0, t, hi[active])
        eta = _rational_step(d, z2, o, far[active], outer[active], t, f, df)
        with np.errstate(invalid="ignore"):
            eta = np.where(np.isfinite(eta) & (f * eta < 0.0), eta, -f / df)
        new = t + eta
        inside = (new > lo[active]) & (new < hi[active])
        tau[active] = np.where(inside, new, 0.5 * (lo[active] + hi[active]))
    raise BracketingError(
        f"{active.size} secular root(s) did not converge in {MAX_ITERATIONS} iterations")


def _rational_step(d, z2, origin, far, outer, tau, f, df):
    """Step to the zero of a rational model matching F and F' at the iterate.

    The model keeps the origin pole's term exact.  For an interior root the
    rest is one rational term on the far pole of the interval (dlaed4's
    fixed-weight model); for the outermost roots it is a straight line.
    """
    zn = z2[origin]
    gap = d[far] - d[origin]
    d_near = -tau       # d_origin - lam
    d_far = gap - tau   # d_far - lam
    with np.errstate(divide="ignore", invalid="ignore"):
        near_slope = zn / (d_near * d_near)
        c = f - d_far * df + gap * near_slope
        interior = _quadratic_root(c, (d_near + d_far) * f - d_near * d_far * df,
                                   d_near * d_far * f, -1.0)
        slope = df - near_slope
        edge = _quadratic_root(slope, slope * d_near - (f - zn / d_near), -d_near * f, outer)
    return np.where(outer == 0.0, interior, edge)


def dressed_spectrum(params: ModelParams) -> DressedSpectrum:
    """Convenience chain: ladder -> coupling matrix -> diagonalize."""
    ladder = build_mode_ladder(params)
    return diagonalize(build_coupling_matrix(params, ladder))


def interlacing_counts(spectrum: DressedSpectrum, ladder: ModeLadder) -> tuple[int, list[int], int]:
    """Count squared eigenvalues below omega_1^2, inside each pole gap, above omega_N^2."""
    lam = spectrum.omega_dressed ** 2
    poles = ladder.frequencies ** 2
    below = int(np.sum(lam < poles[0]))
    inside = [int(np.sum((lam > poles[k]) & (lam < poles[k + 1])))
              for k in range(len(poles) - 1)]
    above = int(np.sum(lam > poles[-1]))
    return below, inside, above
