import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dressedcavity.dynamics import amplitudes
from dressedcavity.errors import (BracketingError, ContractViolationError, DomainError,
                                  ModelInstabilityError, ResourceCapError)
from dressedcavity.model import CouplingMatrix, ModelParams, build_coupling_matrix
from dressedcavity.spectral import DressedSpectrum, diagonalize
import dressedcavity.spectral as spectral

from conftest import (_refined_eigh, atom_weights, dense, dressed_spectrum, interlacing_counts,
                      random_params)

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
        assert abs(np.sum(atom_weights(spec)) - 1.0) < 1e-12


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
        matrix = build_coupling_matrix(params)
        spec = diagonalize(matrix)
        assert spec.reconstruction_residual(matrix) <= 1e-9


@pytest.mark.parametrize("params", [
    ModelParams(omega_bar=1.0, g=0.5, radius=300.0, n_modes=600),
    ModelParams(omega_bar=1.0, g=0.01, radius=500.0 * math.pi, n_modes=1000),
    ModelParams(omega_bar=1.0, g=0.0, radius=2.0, n_modes=300),
], ids=["coupled", "free_space", "decoupled"])
def test_block_size_moves_no_bit(params, monkeypatch):
    # the solver and the residual refill shared block workspaces: every entry
    # is the same elementwise operation and every row sum runs over one
    # contiguous row, whatever the block
    matrix = build_coupling_matrix(params)
    runs = []
    for elements in (96, 5000, spectral.BLOCK_ELEMENTS, 1 << 20):
        monkeypatch.setattr(spectral, "BLOCK_ELEMENTS", elements)
        spec = diagonalize(matrix)
        runs.append((spec.omega_dressed, spec.components, spec.reconstruction_residual(matrix)))
    (omega, components, residual), *others = runs
    for other in others:
        assert np.array_equal(other[0], omega) and np.array_equal(other[1], components)
        assert np.array_equal(other[2], residual)


def test_nonpositive_eigenvalue_raises():
    with pytest.raises(ModelInstabilityError):
        diagonalize(CouplingMatrix(a=-1.0, z=np.array([0.0]), d=np.array([1.0])))


@pytest.mark.parametrize("omega, components, error, message", [
    ([1.0, 2.0], np.eye(3), ContractViolationError, "components shape"),
    ([0.0, 2.0], np.eye(2), ModelInstabilityError, "nonpositive frequency"),
], ids=["shape", "nonpositive"])
def test_dressed_spectrum_checks_its_parts(omega, components, error, message):
    with pytest.raises(error, match=message):
        DressedSpectrum(omega_dressed=np.array(omega), components=components)


def _dense(params):
    """Reference eigenpairs of the same coupling matrix from dense eigh."""
    matrix = build_coupling_matrix(params)
    return diagonalize(matrix), np.linalg.eigh(dense(matrix))


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
        matrix = CouplingMatrix(a=40.0, z=z, d=d)
        spec = diagonalize(matrix)
        eigenvalues, _ = np.linalg.eigh(dense(matrix))
        assert np.max(np.abs(spec.omega_dressed ** 2 - eigenvalues)) <= 1e-12
        v = spec.components
        assert np.max(np.abs(v.T @ v - np.eye(31))) <= 1e-12
        assert spec.reconstruction_residual(matrix) <= 1e-14
        decoupled = np.argmax(np.abs(v[10]))
        assert np.array_equal(v[:, decoupled], np.eye(31)[10])
        assert spec.omega_dressed[decoupled] == math.sqrt(d[9])

    @pytest.mark.parametrize("d", [(2.0, 1.0, 3.0), (1.0, 1.0, 3.0)])
    def test_unordered_or_repeated_modes_rejected(self, d):
        with pytest.raises(ContractViolationError, match="must ascend strictly"):
            diagonalize(CouplingMatrix(a=10.0, z=np.full(3, 0.5), d=np.array(d)))

    def test_spacing_within_the_deflation_tolerance_is_named(self):
        # the modes ascend, but 1e-15 apart, below tol = 8 eps * 10 = 1.8e-14
        d = np.array([1.0, 1.0 + 1e-15, 3.0])
        with pytest.raises(ModelInstabilityError, match="coupled mode spacing 1.11e-15 is "
                                                        "within the deflation tolerance"):
            diagonalize(CouplingMatrix(a=10.0, z=np.full(3, 0.5), d=d))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entry_rejected(self, entry):
        # entry (row, column) of the dense matrix: the atom entry, the border, the diagonal
        parts = {"a": 3.0, "z": np.array([0.5, 0.5]), "d": np.array([1.0, 2.0])}
        if entry == (0, 0):
            parts["a"] = math.nan
        else:
            parts["z" if entry == (0, 1) else "d"][0] = math.nan
        with pytest.raises(DomainError):
            diagonalize(CouplingMatrix(**parts))

    def test_component_bytes_capped_before_allocation(self, monkeypatch):
        # one border entry deflates: 30 secular rows (30^2) plus the full 31^2 matrix
        rng = np.random.default_rng(5)
        z = rng.normal(size=30)
        z[9] = 0.0
        matrix = CouplingMatrix(a=40.0, z=z, d=np.sort(rng.uniform(1.0, 5.0, 30)))
        held = 8 * (30 ** 2 + 31 ** 2)
        monkeypatch.setattr(spectral, "SPECTRAL_BYTES_CAP", held - 1)
        with pytest.raises(ResourceCapError):
            diagonalize(matrix)
        monkeypatch.setattr(spectral, "SPECTRAL_BYTES_CAP", held)
        assert diagonalize(matrix).size == 31

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 0)
        with pytest.raises(BracketingError):
            dressed_spectrum(ModelParams(1.0, 0.01, 2.0, 4))


@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=7360)  # a close pair under an 84-mode ladder: plain eigh misses 1e-12 here
def test_matches_dense_eigh(seed):
    matrix = build_coupling_matrix(random_params(np.random.default_rng(seed)))
    spec, (eigenvalues, vectors) = diagonalize(matrix), _refined_eigh(dense(matrix))
    lam = spec.omega_dressed ** 2
    v = spec.components
    assert np.max(np.abs(lam - eigenvalues) / eigenvalues) <= 1e-10
    assert np.max(np.abs(atom_weights(spec) - vectors[0] ** 2)) <= 1e-12
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
        spec = diagonalize(build_coupling_matrix(params))
        below, inside, above = interlacing_counts(spec, params)
        assert below + sum(inside) + above == params.n_modes + 1
        assert all(count == 1 for count in inside)
        assert below + above == 2


def test_isolated_root_below_first_mode():
    # omega_bar below the first cavity mode and weak coupling: exactly one
    # dressed root below omega_1^2 (the stable small-cavity branch) plus one
    # above the ladder top.
    params = ModelParams(omega_bar=1.0, g=0.01, radius=1.0, n_modes=16)
    spec = diagonalize(build_coupling_matrix(params))
    below, inside, above = interlacing_counts(spec, params)
    assert below == 1
    assert above == 1
