import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dressedcavity.cli import main
from dressedcavity.density import (EntangledStateSpec, ReducedDensityMatrix, ThermalBathSpec,
                                   _field_trace_blocks, bath_weights, reduced_density_closed,
                                   survival_probability, thermal_trace_oracle)
from dressedcavity.dynamics import amplitudes
from dressedcavity.entanglement import POSITIVITY_FLOOR, measures
from dressedcavity.errors import ContractViolationError, DomainError, ResourceCapError
from dressedcavity.model import ModelParams, build_coupling_matrix
from dressedcavity.spectral import EPS

from conftest import dense, dressed_spectrum, read_csv, two_atom_reference


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
    for occ in itertools.product(range(n_max + 1), repeat=n_modes):
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
        rho = reduced_density_closed(EntangledStateSpec(1.0, 0.0), 1.0).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_full_decay_is_ground(self):
        rho = reduced_density_closed(EntangledStateSpec(0.4, 1.0), 0.0).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_identical_atoms_matches_element_formulas(self):
        xi, phi, survival = 0.3, 1.1, 0.6
        f00 = math.sqrt(survival) * np.exp(0.4j)
        rho = reduced_density_closed(EntangledStateSpec(xi, phi), f00).matrix
        assert rho[0, 0] == pytest.approx(1.0 - survival, abs=1e-14)
        assert rho[1, 1] == pytest.approx((1.0 - xi) * survival, abs=1e-14)
        assert rho[2, 2] == pytest.approx(xi * survival, abs=1e-14)
        coherence = math.sqrt(xi * (1.0 - xi)) * np.exp(-1j * phi) * survival
        assert rho[2, 1] == pytest.approx(coherence, abs=1e-14)
        assert rho[1, 2] == pytest.approx(np.conj(coherence), abs=1e-14)

    def test_single_excitation_structure(self):
        rho = reduced_density_closed(EntangledStateSpec(0.7, 0.3), 0.6 + 0.1j).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.all(rho[3, :] == 0.0)
        assert np.all(rho[:, 3] == 0.0)

    def test_modulus_above_one_rejected(self):
        with pytest.raises(ContractViolationError):
            reduced_density_closed(EntangledStateSpec(0.5, 0.0), 1.01)
        with pytest.raises(ContractViolationError, match="at sample 2"):
            reduced_density_closed(EntangledStateSpec(0.5, 0.0), [0.5, 1.0, 1.01])

    def test_arrays_equal_the_scalar_calls_bit_for_bit(self, rng):
        state = EntangledStateSpec(0.3, 1.1)
        f00 = rng.uniform(0.0, 1.0, 50) * np.exp(1j * rng.uniform(0.0, 7.0, 50))
        stack = reduced_density_closed(state, f00).matrix
        assert stack.shape == (50, 4, 4)
        for i in range(50):
            single = reduced_density_closed(state, f00[i]).matrix
            assert single.shape == (4, 4)
            assert single.tobytes() == stack[i].tobytes()
        grid = reduced_density_closed(state, f00.reshape(5, 10))
        assert grid.matrix.tobytes() == stack.tobytes() and grid.trace.shape == (5, 10)

    def test_elements_equal_the_documented_formulas_exactly(self, rng):
        # S = survival_probability(f00) and the coherence as left-to-right
        # scalar complex products w e^{-i phi} * f00 * conj(f00), bit for bit
        state = EntangledStateSpec(0.3, 1.1)
        xi = state.xi
        f00 = rng.uniform(0.0, 1.0, 50) * np.exp(1j * rng.uniform(0.0, 7.0, 50))
        survival = survival_probability(f00)
        weight = complex(state.coherence_weight * np.exp(-1j * state.phi))
        expected = np.zeros((50, 4, 4), dtype=complex)
        expected[:, 0, 0] = 1.0 - xi * survival - (1.0 - xi) * survival
        expected[:, 1, 1] = (1.0 - xi) * survival
        expected[:, 2, 2] = xi * survival
        expected[:, 2, 1] = [weight * f * f.conjugate() for f in f00.tolist()]
        expected[:, 1, 2] = [(weight * f * f.conjugate()).conjugate() for f in f00.tolist()]
        rho = reduced_density_closed(state, f00).matrix
        assert np.array_equal(rho, expected)

    @given(xi=st.floats(0.0, 1.0), phi=st.floats(0.0, 6.28),
           modulus=st.floats(0.0, 1.0), arg=st.floats(0.0, 6.28))
    def test_always_valid_density_matrix(self, xi, phi, modulus, arg):
        rho = reduced_density_closed(EntangledStateSpec(xi, phi), modulus * np.exp(1j * arg))
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= POSITIVITY_FLOOR


class TestThermalTraceOracle:
    def test_identity_with_closed_form_single_mode(self):
        # the brute-force run the closed form must reproduce, for every beta
        spec = oracle_spectrum(1)
        state = EntangledStateSpec(0.3, 1.1)
        f00 = amplitudes(spec, [0.7])[0, 0]
        closed = reduced_density_closed(state, f00).matrix
        results = []
        for beta in (0.2, 1.0, 5.0):
            bath = ThermalBathSpec(beta=beta, n_max=3)
            results.append(thermal_trace_oracle(state, spec, bath, 0.7).matrix)
        for rho in results:
            assert np.max(np.abs(rho - closed)) <= 1e-12
        for rho in results[1:]:
            assert np.max(np.abs(rho - results[0])) <= 1e-12

    def test_time_zero_any_beta(self):
        spec = oracle_spectrum(2)
        state = EntangledStateSpec(0.5, 0.7)
        closed = reduced_density_closed(state, 1.0).matrix
        for beta in (0.1, 3.0):
            bath = ThermalBathSpec(beta=beta, n_max=2)
            rho = thermal_trace_oracle(state, spec, bath, 0.0).matrix
            assert np.max(np.abs(rho - closed)) <= 1e-12

    def test_decoupled_evolution(self):
        spec = oracle_spectrum(1, g=0.0)
        state = EntangledStateSpec(0.4, 0.9)
        for t in (0.5, 2.0):
            bath = ThermalBathSpec(beta=1.0, n_max=3)
            rho = thermal_trace_oracle(state, spec, bath, t).matrix
            closed = reduced_density_closed(state, np.exp(-1j * t)).matrix
            assert np.max(np.abs(rho - closed)) <= 1e-12
            # f_00 conj(f_00) = 1, so coherences sit at their t=0 value
            assert rho[2, 2] == pytest.approx(0.4, abs=1e-13)
            assert abs(rho[2, 1]) == pytest.approx(math.sqrt(0.4 * 0.6), abs=1e-13)

    def test_two_mode_grid_against_closed_form(self):
        spec = oracle_spectrum(2)
        for xi, phi in ((0.3, 1.1), (0.5, 0.0), (0.9, 4.0)):
            state = EntangledStateSpec(xi, phi)
            for t in (0.0, 0.7, 3.1):
                f00 = amplitudes(spec, [t])[0, 0]
                closed = reduced_density_closed(state, f00).matrix
                bath = ThermalBathSpec(beta=1.0, n_max=3)
                rho = thermal_trace_oracle(state, spec, bath, t).matrix
                assert np.max(np.abs(rho - closed)) <= 1e-12

    def test_beta_independence_elementwise(self):
        spec = oracle_spectrum(2)
        state = EntangledStateSpec(0.6, 2.2)
        bath0 = ThermalBathSpec(beta=0.05, n_max=4)
        reference = thermal_trace_oracle(state, spec, bath0, 1.3).matrix
        for beta in (0.5, 2.0, 20.0, 3000.0):
            bath = ThermalBathSpec(beta=beta, n_max=4)
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

    def test_resource_cap(self):
        bath = ThermalBathSpec(beta=1.0, n_max=16)
        # 17 ** 3: the oracle traces the three field modes of its spectrum
        with pytest.raises(ResourceCapError,
                           match=r"bath basis has 4913 states \(n_max=16, n_modes=3\)"):
            thermal_trace_oracle(EntangledStateSpec(0.5, 0.0), oracle_spectrum(3), bath, 0.1)

    def test_broken_normalization_is_beta_dependent(self):
        # negative control: the mistyped partition factor must break both the
        # unit trace and the temperature cancellation
        spec = oracle_spectrum(1)
        state = EntangledStateSpec(0.3, 1.1)
        f00 = amplitudes(spec, [0.7])[0, 0]
        closed = reduced_density_closed(state, f00).matrix
        broken = {}
        for beta in (0.2, 1.0):
            bath = ThermalBathSpec(beta=beta, n_max=3)
            broken[beta] = thermal_trace_oracle(state, spec, bath, 0.7,
                                                weight_scheme="per_level_partition").matrix
        for rho in broken.values():
            assert abs(np.trace(rho).real - 1.0) > 1e-3
            assert np.max(np.abs(rho - closed)) > 1e-12
        assert np.max(np.abs(broken[0.2] - broken[1.0])) > 1e-3


class TestPositivityCheck:
    def test_ground_state_eigenvalues(self):
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), 0.0)
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
        assert eigenvalues[0] >= POSITIVITY_FLOOR

    def test_bell_state_is_pure(self):
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), 1.0)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_half_decayed_bell(self):
        f00 = math.sqrt(0.5)
        rho = reduced_density_closed(EntangledStateSpec(0.5, 0.0), f00)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 0.0, 0.5, 0.5], atol=1e-14)

    def test_flags_negative_eigenvalue(self):
        rho = ReducedDensityMatrix(matrix=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(-0.5)
        # the one positivity rule: the measures refuse a non-physical state
        with pytest.raises(ContractViolationError, match="positive semidefinite"):
            measures(rho)


class TestSpecValidation:
    def test_bath_spec_bounds(self):
        with pytest.raises(DomainError):
            ThermalBathSpec(beta=0.0, n_max=3)
        for beta in (math.nan, math.inf, 1e151, 1e-151):  # 1e151 * omega * n could overflow
            with pytest.raises(DomainError, match=r"beta must lie in \[1e-150, 1e\+150\]"):
                ThermalBathSpec(beta=beta, n_max=3)
        for beta in (1e-150, 1e150):  # the range rule's ends
            assert ThermalBathSpec(beta=beta, n_max=3).beta == beta
        with pytest.raises(DomainError):
            ThermalBathSpec(beta=1.0, n_max=0)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 3)])
    def test_stack_of_four_by_four_required(self, shape):
        with pytest.raises(ContractViolationError, match=r"expected a \(\.\.\., 4, 4\) stack"):
            ReducedDensityMatrix(matrix=np.zeros(shape, dtype=complex))

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            ReducedDensityMatrix(matrix=bad)


def test_closed_form_is_not_a_shared_field(tmp_path):
    # Two atoms on one field: each gets the atom entry a and the border z, and
    # completing the square sum_k (omega_k x_k - eta x_A - eta x_B)^2 couples
    # them by n*eta^2.  The antisymmetric coordinate (x_A - x_B)/sqrt2 then
    # meets no mode, so it never decays; the closed form's xi = 1/2, phi = pi
    # state decays as one atom does, so its atoms do not share a field.
    params = ModelParams(omega_bar=1.0, g=0.01, radius=50.0 * math.pi, n_modes=100)
    coupling = build_coupling_matrix(params)
    shared = np.diag(np.concatenate(([coupling.a, coupling.a], coupling.d)))
    shared[0, 1] = shared[1, 0] = params.n_modes * params.eta ** 2
    shared[:2, 2:] = coupling.z
    shared[2:, :2] = coupling.z[:, None]
    antisymmetric = np.zeros(params.n_modes + 2)
    antisymmetric[:2] = np.array([1.0, -1.0]) / math.sqrt(2.0)
    image = shared @ antisymmetric
    assert np.max(np.abs(image - (antisymmetric @ image) * antisymmetric)) <= EPS * coupling.a
    lam, vectors = np.linalg.eigh(shared)
    weights = (vectors.T @ antisymmetric) ** 2
    t = np.linspace(0.0, 300.0, 3001)
    survival = np.abs(weights @ np.exp(-1j * np.outer(np.sqrt(lam), t))) ** 2
    assert np.max(np.abs(survival - 1.0)) <= 1e-12

    out = tmp_path / "density"
    assert main(["density", "--radius", str(params.radius), "--n-modes", str(params.n_modes),
                 "--g", str(params.g), "--xi", "0.5", "--phi", str(math.pi),
                 "--t-max", "300", "--samples", "301", "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "density.csv")
    assert columns[2:4] == ["rho_01_01[probability]", "rho_10_10[probability]"]
    assert float(rows[-1][0]) == 300.0
    assert float(rows[-1][2]) + float(rows[-1][3]) < 1e-3


# `two_atom_reference` against `density`, in units of eps (2N + 2 + t_max lam_max / Omega_0):
# eigh's backward error, about eps lam_max, moves the propagator exp(-i sqrt(M) t) by
# up to t eps lam_max / (2 Omega_0), and its vectors' orthogonality by about (2N + 2) eps.
# Over 6900 drawn models, half of them at the ends of the ranges below, the worst
# deviation of any column was 1.13 of that unit.
TWO_ATOM_TOLERANCE = 4.0


@given(n_modes=st.integers(1, 24), samples=st.integers(1, 48), g=st.floats(0.0, 0.5),
       radius=st.floats(0.5, 100.0), t_max=st.floats(0.5, 50.0), xi=st.floats(0.0, 1.0),
       phi=st.floats(-10.0, 10.0))
def test_density_is_the_two_atom_model(n_modes, samples, g, radius, t_max, xi, phi):
    # the closed form against the pair of atoms, each with its own field, evolved
    # whole as one (2N + 2) single-excitation problem
    params = ModelParams(1.0, g, radius, n_modes)
    reference = two_atom_reference(params, xi, phi, np.linspace(0.0, t_max, samples))
    lam = np.linalg.eigvalsh(dense(build_coupling_matrix(params)))
    bound = TWO_ATOM_TOLERANCE * EPS * (2 * n_modes + 2 + t_max * lam[-1] / math.sqrt(lam[0]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "density"
        assert main(["density", f"--n-modes={n_modes}", f"--samples={samples}", f"--g={g!r}",
                     f"--radius={radius!r}", f"--t-max={t_max!r}", f"--xi={xi!r}",
                     f"--phi={phi!r}", f"--out={out}"]) == 0
        _, columns, rows = read_csv(out / "density.csv")
    assert columns == list(reference)
    for name, got in zip(columns, np.array(rows, dtype=float).reshape(samples, -1).T):
        deviation = float(np.max(np.abs(got - reference[name])))
        assert deviation <= bound, (name, deviation / bound)
