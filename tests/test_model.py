import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dressedcavity.errors import ContractViolationError, DomainError
from dressedcavity.model import (BOLTZMANN, HBAR, LIGHT_SPEED, CouplingMatrix, ModelParams,
                                 build_coupling_matrix, build_mode_ladder, natural_from_si,
                                 si_from_natural)

from conftest import random_params

# Direct evaluation of hbar*omega/(k_B*T) with the exact SI constants.
BETA_OMEGA_300K = HBAR * 4.0e14 / (BOLTZMANN * 300.0)


class TestNaturalFromSi:
    def test_room_temperature_anchor(self):
        omega, radius, beta = natural_from_si(4.0e14, 1e-6, 300.0)
        assert omega == 1.0
        assert beta * omega == pytest.approx(BETA_OMEGA_300K, rel=1e-14)
        assert beta * omega == pytest.approx(10.184310109676986, rel=1e-12)

    def test_ln2_temperature_gives_beta_omega_ln2(self):
        # hbar*omega = k_B*T*ln2  <=>  T = hbar*omega/(k_B ln 2)
        omega_si = 4.0e14
        t_si = HBAR * omega_si / (BOLTZMANN * math.log(2.0))
        _, _, beta = natural_from_si(omega_si, 1e-6, t_si)
        assert beta == pytest.approx(math.log(2.0), rel=1e-14)

    def test_radius_ratio(self):
        _, radius, beta = natural_from_si(4.0e14, 1e-6)
        assert radius == pytest.approx(4.0e14 * 1e-6 / LIGHT_SPEED, rel=1e-15)
        assert radius == pytest.approx(1.3342563807926082, rel=1e-12)
        assert beta is None

    @pytest.mark.parametrize("args", [(-1.0, 1e-6, 300.0), (4.0e14, 0.0, 300.0),
                                      (4.0e14, 1e-6, -5.0)])
    def test_nonpositive_inputs_rejected(self, args):
        with pytest.raises(DomainError):
            natural_from_si(*args)

    @given(omega=st.floats(1e6, 1e18), radius=st.floats(1e-9, 1.0),
           temperature=st.floats(1e-3, 1e6))
    def test_round_trip(self, omega, radius, temperature):
        nat = natural_from_si(omega, radius, temperature)
        omega_si, radius_si, temperature_si = si_from_natural(*nat, frequency_scale=omega)
        assert omega_si == pytest.approx(omega, rel=1e-12)
        assert radius_si == pytest.approx(radius, rel=1e-12)
        assert temperature_si == pytest.approx(temperature, rel=1e-12)


class TestModeLadder:
    def test_unit_spacing(self):
        ladder = build_mode_ladder(ModelParams(1.0, 0.0, math.pi, 3))
        assert np.allclose(ladder.frequencies, [1.0, 2.0, 3.0])
        assert ladder.spacing == pytest.approx(1.0)

    def test_double_spacing(self):
        ladder = build_mode_ladder(ModelParams(1.0, 0.0, math.pi / 2, 2))
        assert np.allclose(ladder.frequencies, [2.0, 4.0])

    def test_free_space_span(self):
        ladder = build_mode_ladder(ModelParams(1.0, 0.01, 500.0 * math.pi, 1000))
        assert ladder.frequencies[-1] == pytest.approx(2.0)


class TestCouplingMatrix:
    def test_decoupled_is_diagonal(self):
        params = ModelParams(1.5, 0.0, math.pi, 4)
        ladder = build_mode_ladder(params)
        m = build_coupling_matrix(params, ladder).matrix
        assert np.allclose(m, np.diag([1.5 ** 2, 1.0, 4.0, 9.0, 16.0]))

    def test_worked_two_by_two(self):
        params = ModelParams(1.0, 0.02, math.pi, 1)
        m = build_coupling_matrix(params, build_mode_ladder(params)).matrix
        assert params.eta ** 2 == pytest.approx(0.04, rel=1e-15)
        assert np.allclose(m, [[1.04, -0.2], [-0.2, 1.0]], atol=1e-15)

    def test_symmetric_and_positive_definite_random(self, rng):
        for _ in range(100):
            params = random_params(rng)
            m = build_coupling_matrix(params, build_mode_ladder(params)).matrix
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolationError):
            CouplingMatrix(matrix=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_ladder_mismatch_rejected(self):
        params = ModelParams(1.0, 0.01, math.pi, 3)
        ladder = build_mode_ladder(ModelParams(1.0, 0.01, math.pi, 2))
        with pytest.raises(ContractViolationError):
            build_coupling_matrix(params, ladder)


@pytest.mark.parametrize("kwargs", [
    {"omega_bar": 0.0, "g": 0.1, "radius": 1.0, "n_modes": 1},
    {"omega_bar": 1.0, "g": -0.1, "radius": 1.0, "n_modes": 1},
    {"omega_bar": 1.0, "g": 0.1, "radius": -1.0, "n_modes": 1},
    {"omega_bar": 1.0, "g": 0.1, "radius": 1.0, "n_modes": 0},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(DomainError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("name", ["omega_bar", "g", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(name, value):
    kwargs = {"omega_bar": 1.0, "g": 0.1, "radius": 1.0, "n_modes": 1, name: value}
    with pytest.raises(DomainError):
        ModelParams(**kwargs)
