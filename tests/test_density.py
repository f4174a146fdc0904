import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dressedcavity.density import (EntangledStateSpec, ReducedDensityMatrix, ThermalBathSpec,
                                   _field_trace_blocks, bath_basis_states, bath_weights,
                                   reduced_density_closed, thermal_trace_oracle)
from dressedcavity.dynamics import amplitudes
from dressedcavity.entanglement import POSITIVITY_FLOOR, concurrence, negativity
from dressedcavity.errors import ContractViolationError, DomainError, ResourceCapError
from dressedcavity.model import ModelParams
from dressedcavity.spectral import dressed_spectrum


def oracle_spectrum(n_modes, g=0.01, omega_bar=1.0, radius=1.0):
    return dressed_spectrum(ModelParams(omega_bar, g, radius, n_modes))


def dense_field_trace_blocks(amp, weights, n_max):
    """Reference trace: dense weighted operators in the padded space
    (atom level, field occupations up to n_max+1), field labels contracted
    with einsum.  Costs O(backgrounds * (2(n_max+2)^n_modes)^2)."""
    n_modes = len(weights)
    occ_dim = n_max + 2  # room for the one extra quantum the excitation adds
    dim_field = occ_dim ** n_modes
    dim = 2 * dim_field

    def field_index(occ) -> int:
        idx = 0
        for o in occ:
            idx = idx * occ_dim + o
        return idx

    op_excited = np.zeros((dim, dim), dtype=complex)
    op_ground = np.zeros((dim, dim), dtype=complex)
    op_cross = np.zeros((dim, dim), dtype=complex)
    for occ in bath_basis_states(n_modes, n_max):
        weight = 1.0
        for k, n in enumerate(occ):
            weight *= weights[k][n]
        evolved = np.zeros(dim, dtype=complex)
        evolved[dim_field + field_index(occ)] = amp[0]
        for j in range(1, n_modes + 1):
            bumped = occ[:j - 1] + (occ[j - 1] + 1,) + occ[j:]
            evolved[field_index(bumped)] = amp[j]
        ground = np.zeros(dim, dtype=complex)
        ground[field_index(occ)] = 1.0
        op_excited += weight * np.outer(evolved, evolved.conj())
        op_ground += weight * np.outer(ground, ground.conj())
        op_cross += weight * np.outer(ground, evolved.conj())

    def trace_field(op):
        return np.einsum("afbf->ab", op.reshape(2, dim_field, 2, dim_field))

    return trace_field(op_excited), trace_field(op_ground), trace_field(op_cross)


class TestBathPieces:
    def test_weights_sum_to_one(self):
        for beta in (0.2, 1.0, 5.0, 1e4):
            w = bath_weights(omega=1.7, beta=beta, n_max=6)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(w >= 0.0)

    def test_weights_follow_boltzmann_ratios(self):
        w = bath_weights(omega=2.0, beta=0.5, n_max=4)
        assert w[1] / w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_per_level_partition_breaks_normalization(self):
        w = bath_weights(omega=1.0, beta=1.0, n_max=6, scheme="per_level_partition")
        assert w[0] == 0.0  # the occupation-dependent factor kills the vacuum term
        assert abs(w.sum() - 1.0) > 0.5

    def test_basis_enumeration_count(self):
        states = list(bath_basis_states(n_modes=2, n_max=3))
        assert len(states) == 16
        assert states[0] == (0, 0)
        assert states[-1] == (3, 3)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            bath_weights(omega=-1.0, beta=1.0, n_max=3)
        with pytest.raises(DomainError):
            bath_weights(omega=1.0, beta=1.0, n_max=3, scheme="bogus")


class TestEntangledStateSpec:
    def test_phase_wrapped(self):
        assert EntangledStateSpec(xi=0.5, phi=2.0 * math.pi + 0.25).phi == pytest.approx(0.25)

    @given(xi=st.floats(-10.0, -1e-9) | st.floats(1.0 + 1e-9, 10.0))
    def test_xi_out_of_range(self, xi):
        with pytest.raises(DomainError):
            EntangledStateSpec(xi=xi, phi=0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(DomainError):
            EntangledStateSpec(xi=0.5, phi=phi)


class TestClosedForm:
    def test_pure_excited_a(self):
        rho = reduced_density_closed(EntangledStateSpec(1.0, 0.0), 1.0, 1.0).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_full_decay_is_ground(self):
        rho = reduced_density_closed(EntangledStateSpec(0.4, 1.0), 0.0, 0.0).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_identical_atoms_matches_element_formulas(self):
        xi, phi, survival = 0.3, 1.1, 0.6
        f00 = math.sqrt(survival) * np.exp(0.4j)
        rho = reduced_density_closed(EntangledStateSpec(xi, phi), f00, f00).matrix
        assert rho[0, 0] == pytest.approx(1.0 - survival, abs=1e-14)
        assert rho[1, 1] == pytest.approx((1.0 - xi) * survival, abs=1e-14)
        assert rho[2, 2] == pytest.approx(xi * survival, abs=1e-14)
        coherence = math.sqrt(xi * (1.0 - xi)) * np.exp(-1j * phi) * survival
        assert rho[2, 1] == pytest.approx(coherence, abs=1e-14)
        assert rho[1, 2] == pytest.approx(np.conj(coherence), abs=1e-14)

    def test_single_excitation_structure(self):
        rho = reduced_density_closed(EntangledStateSpec(0.7, 0.3), 0.8, 0.6 + 0.1j).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.all(rho[3, :] == 0.0)
        assert np.all(rho[:, 3] == 0.0)

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ContractViolationError):
            reduced_density_closed(EntangledStateSpec(0.5, 0.0), 1.01, 0.5)

    @given(xi=st.floats(0.0, 1.0), phi=st.floats(0.0, 6.28),
           mod_a=st.floats(0.0, 1.0), mod_b=st.floats(0.0, 1.0),
           arg_a=st.floats(0.0, 6.28), arg_b=st.floats(0.0, 6.28))
    def test_always_valid_density_matrix(self, xi, phi, mod_a, mod_b, arg_a, arg_b):
        state = EntangledStateSpec(xi, phi)
        rho = reduced_density_closed(state, mod_a * np.exp(1j * arg_a),
                                     mod_b * np.exp(1j * arg_b))
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= POSITIVITY_FLOOR


class TestThermalTraceOracle:
    def test_identity_with_closed_form_single_mode(self):
        # the brute-force run the closed form must reproduce, for every beta
        spec = oracle_spectrum(1)
        state = EntangledStateSpec(0.3, 1.1)
        f00 = amplitudes(spec, [0.7])[0, 0]
        closed = reduced_density_closed(state, f00, f00).matrix
        results = []
        for beta in (0.2, 1.0, 5.0):
            bath = ThermalBathSpec(beta=beta, n_max=3, n_modes_oracle=1)
            results.append(thermal_trace_oracle(state, spec, bath, 0.7).matrix)
        for rho in results:
            assert np.max(np.abs(rho - closed)) <= 1e-12
        for rho in results[1:]:
            assert np.max(np.abs(rho - results[0])) <= 1e-12

    def test_time_zero_any_beta(self):
        spec = oracle_spectrum(2)
        state = EntangledStateSpec(0.5, 0.7)
        closed = reduced_density_closed(state, 1.0, 1.0).matrix
        for beta in (0.1, 3.0):
            bath = ThermalBathSpec(beta=beta, n_max=2, n_modes_oracle=2)
            rho = thermal_trace_oracle(state, spec, bath, 0.0).matrix
            assert np.max(np.abs(rho - closed)) <= 1e-12

    def test_decoupled_evolution(self):
        spec = oracle_spectrum(1, g=0.0)
        state = EntangledStateSpec(0.4, 0.9)
        for t in (0.5, 2.0):
            bath = ThermalBathSpec(beta=1.0, n_max=3, n_modes_oracle=1)
            rho = thermal_trace_oracle(state, spec, bath, t).matrix
            closed = reduced_density_closed(state, np.exp(-1j * t), np.exp(-1j * t)).matrix
            assert np.max(np.abs(rho - closed)) <= 1e-12
            # identical atoms: f_AA conj(f_BB) = 1, so coherences sit at their t=0 value
            assert rho[2, 2] == pytest.approx(0.4, abs=1e-13)
            assert abs(rho[2, 1]) == pytest.approx(math.sqrt(0.4 * 0.6), abs=1e-13)

    def test_two_mode_grid_against_closed_form(self):
        spec = oracle_spectrum(2)
        for xi, phi in ((0.3, 1.1), (0.5, 0.0), (0.9, 4.0)):
            state = EntangledStateSpec(xi, phi)
            for t in (0.0, 0.7, 3.1):
                f00 = amplitudes(spec, [t])[0, 0]
                closed = reduced_density_closed(state, f00, f00).matrix
                bath = ThermalBathSpec(beta=1.0, n_max=3, n_modes_oracle=2)
                rho = thermal_trace_oracle(state, spec, bath, t).matrix
                assert np.max(np.abs(rho - closed)) <= 1e-12

    def test_beta_independence_elementwise(self):
        spec = oracle_spectrum(2)
        state = EntangledStateSpec(0.6, 2.2)
        bath0 = ThermalBathSpec(beta=0.05, n_max=4, n_modes_oracle=2)
        reference = thermal_trace_oracle(state, spec, bath0, 1.3).matrix
        for beta in (0.5, 2.0, 20.0, 3000.0):
            bath = ThermalBathSpec(beta=beta, n_max=4, n_modes_oracle=2)
            rho = thermal_trace_oracle(state, spec, bath, 1.3).matrix
            assert np.max(np.abs(rho - reference)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["normalized", "per_level_partition"])
    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_sparse_blocks_match_dense_reference(self, n_modes, n_max, scheme):
        # random, unnormalized amplitudes: the match must not lean on unitarity
        rng = np.random.default_rng(100 * n_modes + 10 * n_max + len(scheme))
        amp = rng.normal(size=n_modes + 1) + 1j * rng.normal(size=n_modes + 1)
        weights = [bath_weights(w, 0.7, n_max, scheme)
                   for w in rng.uniform(0.5, 2.0, size=n_modes)]
        sparse = _field_trace_blocks(amp, weights, n_max)
        dense = dense_field_trace_blocks(amp, weights, n_max)
        for got, want in zip(sparse, dense):
            assert got.shape == (2, 2)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_spectrum_size_mismatch_rejected(self):
        bath = ThermalBathSpec(beta=1.0, n_max=2, n_modes_oracle=2)
        with pytest.raises(ContractViolationError):
            thermal_trace_oracle(EntangledStateSpec(0.5, 0.0), oracle_spectrum(1), bath, 0.1)

    def test_resource_cap(self):
        bath = ThermalBathSpec(beta=1.0, n_max=16, n_modes_oracle=3)
        assert bath.basis_size == 17 ** 3
        with pytest.raises(ResourceCapError):
            thermal_trace_oracle(EntangledStateSpec(0.5, 0.0), oracle_spectrum(3), bath, 0.1)

    def test_broken_normalization_is_beta_dependent(self):
        # negative control: the mistyped partition factor must break both the
        # unit trace and the temperature cancellation
        spec = oracle_spectrum(1)
        state = EntangledStateSpec(0.3, 1.1)
        f00 = amplitudes(spec, [0.7])[0, 0]
        closed = reduced_density_closed(state, f00, f00).matrix
        broken = {}
        for beta in (0.2, 1.0):
            bath = ThermalBathSpec(beta=beta, n_max=3, n_modes_oracle=1)
            broken[beta] = thermal_trace_oracle(state, spec, bath, 0.7,
                                                weight_scheme="per_level_partition").matrix
        for rho in broken.values():
            assert abs(np.trace(rho).real - 1.0) > 1e-3
            assert np.max(np.abs(rho - closed)) > 1e-12
        assert np.max(np.abs(broken[0.2] - broken[1.0])) > 1e-3


class TestPositivityCheck:
    def test_ground_state_eigenvalues(self):
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), 0.0, 0.0)
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
        assert eigenvalues[0] >= POSITIVITY_FLOOR

    def test_bell_state_is_pure(self):
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), 1.0, 1.0)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_half_decayed_bell(self):
        f00 = math.sqrt(0.5)
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), f00, f00)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 0.0, 0.5, 0.5], atol=1e-14)

    def test_flags_negative_eigenvalue(self):
        rho = ReducedDensityMatrix(matrix=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(-0.5)
        # the one positivity rule: the measures refuse a non-physical state
        for measure in (concurrence, negativity):
            with pytest.raises(ContractViolationError, match="positive semidefinite"):
                measure(rho)


class TestSpecValidation:
    def test_bath_spec_bounds(self):
        with pytest.raises(DomainError):
            ThermalBathSpec(beta=0.0, n_max=3)
        for beta in (math.nan, math.inf, 1e151):  # 1e151 * omega * n could overflow
            with pytest.raises(DomainError):
                ThermalBathSpec(beta=beta, n_max=3)
        with pytest.raises(DomainError):
            ThermalBathSpec(beta=1.0, n_max=0)
        with pytest.raises(DomainError):
            ThermalBathSpec(beta=1.0, n_max=3, n_modes_oracle=4)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            ReducedDensityMatrix(matrix=bad)
