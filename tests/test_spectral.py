import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dressedcavity.dynamics import amplitudes
from dressedcavity.errors import (BracketingError, ContractViolationError, DomainError,
                                  ModelInstabilityError)
from dressedcavity.model import CouplingMatrix, ModelParams, build_coupling_matrix, build_mode_ladder
from dressedcavity.spectral import DressedSpectrum, diagonalize, dressed_spectrum, interlacing_counts
import dressedcavity.spectral as spectral

from conftest import random_params

WORKED = ModelParams(omega_bar=1.0, g=0.02, radius=math.pi, n_modes=1)
# Closed-form eigenvalues of [[1.04, -0.2], [-0.2, 1.0]].
WORKED_LAMBDA = (1.02 - math.sqrt(0.0004 + 0.04), 1.02 + math.sqrt(0.0004 + 0.04))


def test_decoupled_spectrum_is_bare():
    params = ModelParams(omega_bar=1.3, g=0.0, radius=math.pi, n_modes=3)
    spec = dressed_spectrum(params)
    assert np.allclose(spec.omega_dressed, sorted([1.3, 1.0, 2.0, 3.0]), atol=1e-14)
    # eigenvectors of a diagonal matrix: a signed permutation of the identity
    assert np.allclose(np.abs(spec.components) @ np.abs(spec.components.T), np.eye(4), atol=1e-12)
    assert set(np.flatnonzero(np.abs(spec.components[0]) > 0.5)) == {1}


def test_worked_two_by_two_eigenvalues():
    spec = dressed_spectrum(WORKED)
    assert spec.omega_dressed[0] ** 2 == pytest.approx(WORKED_LAMBDA[0], rel=1e-14)
    assert spec.omega_dressed[1] ** 2 == pytest.approx(WORKED_LAMBDA[1], rel=1e-14)
    assert spec.omega_dressed[0] == pytest.approx(0.9049875621120891, rel=1e-12)
    assert spec.omega_dressed[1] == pytest.approx(1.1049875621120890, rel=1e-12)


def test_atom_weights_sum_to_one(rng):
    for _ in range(20):
        spec = dressed_spectrum(random_params(rng))
        assert abs(np.sum(spec.atom_weights) - 1.0) < 1e-12


def test_orthogonality_and_completeness(rng):
    for _ in range(20):
        spec = dressed_spectrum(random_params(rng))
        v = spec.components
        n = spec.size
        assert np.max(np.abs(v @ v.T - np.eye(n))) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10


def test_reconstruction_residual(rng):
    for _ in range(10):
        params = random_params(rng)
        ladder = build_mode_ladder(params)
        matrix = build_coupling_matrix(params, ladder)
        spec = diagonalize(matrix)
        assert spec.reconstruction_residual(matrix) <= 1e-9


def test_nonpositive_eigenvalue_raises():
    with pytest.raises(ModelInstabilityError):
        diagonalize(CouplingMatrix(matrix=np.array([[-1.0, 0.0], [0.0, 1.0]])))


def _dense(params):
    """Reference eigenpairs of the same coupling matrix from dense eigh."""
    matrix = build_coupling_matrix(params, build_mode_ladder(params))
    return diagonalize(matrix), np.linalg.eigh(matrix.matrix)


class TestSecularRoots:
    def test_worked_quadratic(self):
        # (1 - lam)^2 = 0.04 lam  ->  lam^2 - 2.04 lam + 1 = 0
        expected = np.sort(np.roots([1.0, -2.04, 1.0]).real)
        roots = dressed_spectrum(WORKED).omega_dressed
        assert np.allclose(roots ** 2, expected, rtol=1e-12)
        assert np.allclose(roots ** 2, WORKED_LAMBDA, rtol=1e-12)

    def test_weak_coupling_approaches_bare(self):
        params = ModelParams(omega_bar=1.3, g=1e-9, radius=math.pi, n_modes=3)
        roots = dressed_spectrum(params).omega_dressed
        assert np.allclose(roots, sorted([1.3, 1.0, 2.0, 3.0]), atol=1e-6)

    def test_cross_validation_n50(self):
        params = ModelParams(omega_bar=1.0, g=0.01, radius=50.0 * math.pi, n_modes=50)
        spec, (eigenvalues, _) = _dense(params)
        dense = np.sqrt(eigenvalues)
        assert np.max(np.abs(dense - spec.omega_dressed) / spec.omega_dressed) < 1e-8

    def test_g_zero_deflates_to_bare_modes(self):
        params = ModelParams(omega_bar=1.0, g=0.0, radius=math.pi, n_modes=2)
        spec = dressed_spectrum(params)
        assert np.array_equal(spec.omega_dressed, [1.0, 1.0, 2.0])
        assert np.array_equal(np.abs(spec.components), np.eye(3))

    def test_pole_collision_matches_eigh(self):
        # omega_bar resonant with omega_1 and eta*omega_1 ~ 1.4e-13, above the
        # deflation tolerance: the solver resolves a 2.8e-13 avoided crossing
        params = ModelParams(omega_bar=1.0, g=1e-26, radius=math.pi, n_modes=2)
        spec, (eigenvalues, _) = _dense(params)
        assert np.max(np.abs(spec.omega_dressed ** 2 - eigenvalues)) <= 1e-12
        v = spec.components
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-12

    def test_border_below_tolerance_deflates(self):
        # eta*omega_k ~ 1e-16 is under DEFLATION_RTOL*max|M|: exact bare pairs
        params = ModelParams(omega_bar=1.5, g=1e-33, radius=math.pi, n_modes=3)
        spec, (eigenvalues, _) = _dense(params)
        assert np.max(np.abs(spec.omega_dressed ** 2 - eigenvalues)) <= 1e-12
        assert np.array_equal(np.abs(spec.components), np.eye(4)[:, [1, 0, 2, 3]])

    def test_zero_border_entry_deflates(self):
        # a general arrowhead with a decoupled mode in the middle of the ladder
        rng = np.random.default_rng(5)
        d = np.sort(rng.uniform(1.0, 5.0, 30))
        z = rng.normal(size=30)
        z[9] = 0.0
        m = np.diag(np.concatenate(([40.0], d)))
        m[0, 1:] = m[1:, 0] = z
        matrix = CouplingMatrix(matrix=m)
        spec = diagonalize(matrix)
        eigenvalues, _ = np.linalg.eigh(m)
        assert np.max(np.abs(spec.omega_dressed ** 2 - eigenvalues)) <= 1e-12
        v = spec.components
        assert np.max(np.abs(v.T @ v - np.eye(31))) <= 1e-12
        assert spec.reconstruction_residual(matrix) <= 1e-14
        decoupled = np.argmax(np.abs(v[10]))
        assert np.array_equal(v[:, decoupled], np.eye(31)[10])
        assert spec.omega_dressed[decoupled] == math.sqrt(d[9])

    @pytest.mark.parametrize("d", [(2.0, 1.0, 3.0), (1.0, 1.0, 3.0)])
    def test_unordered_or_repeated_modes_rejected(self, d):
        m = np.diag((10.0,) + d)
        m[0, 1:] = m[1:, 0] = 0.5
        with pytest.raises(ContractViolationError):
            diagonalize(CouplingMatrix(matrix=m))

    def test_non_arrowhead_rejected(self):
        m = np.diag([3.0, 1.0, 2.0])
        m[1, 2] = m[2, 1] = 0.1
        with pytest.raises(ContractViolationError):
            diagonalize(CouplingMatrix(matrix=m))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entry_rejected(self, entry):
        m = np.diag([3.0, 1.0, 2.0])
        m[0, 1:] = m[1:, 0] = 0.5
        m[entry] = m[entry[::-1]] = math.nan
        with pytest.raises(DomainError):
            diagonalize(CouplingMatrix(matrix=m))

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 0)
        with pytest.raises(BracketingError):
            dressed_spectrum(ModelParams(1.0, 0.01, 2.0, 4))


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_matches_dense_eigh(seed):
    spec, (eigenvalues, vectors) = _dense(random_params(np.random.default_rng(seed)))
    lam = spec.omega_dressed ** 2
    v = spec.components
    assert np.max(np.abs(lam - eigenvalues) / eigenvalues) <= 1e-10
    assert np.max(np.abs(spec.atom_weights - vectors[0] ** 2)) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(spec.size))) <= 1e-10
    assert np.all(v[0] >= 0.0)


def test_free_space_survival_matches_eigh_n2000():
    params = ModelParams(omega_bar=1.0, g=0.01, radius=1000.0 * math.pi, n_modes=2000)
    spec, (eigenvalues, vectors) = _dense(params)
    dense = DressedSpectrum(omega_dressed=np.sqrt(eigenvalues), components=vectors)
    t = np.linspace(0.0, 100.0, 201)
    assert np.max(np.abs(amplitudes(spec, t, 0) - amplitudes(dense, t, 0))) <= 1e-12


def test_interlacing_counts(rng):
    for _ in range(20):
        params = random_params(rng)
        if params.g == 0.0:
            params = ModelParams(params.omega_bar, 1e-3, params.radius, params.n_modes)
        ladder = build_mode_ladder(params)
        spec = diagonalize(build_coupling_matrix(params, ladder))
        below, inside, above = interlacing_counts(spec, ladder)
        assert below + sum(inside) + above == params.n_modes + 1
        assert all(count == 1 for count in inside)
        assert below + above == 2


def test_isolated_root_below_first_mode():
    # omega_bar below the first cavity mode and weak coupling: exactly one
    # dressed root below omega_1^2 (the stable small-cavity branch) plus one
    # above the ladder top.
    params = ModelParams(omega_bar=1.0, g=0.01, radius=1.0, n_modes=16)
    ladder = build_mode_ladder(params)
    spec = diagonalize(build_coupling_matrix(params, ladder))
    below, inside, above = interlacing_counts(spec, ladder)
    assert below == 1
    assert above == 1
