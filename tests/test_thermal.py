import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dressedcavity.dynamics as dynamics
from dressedcavity.errors import DomainError
from dressedcavity.model import ModelParams, build_mode_ladder, natural_from_si
from dressedcavity.spectral import dressed_spectrum
from dressedcavity.thermal import (OVERFLOW_THRESHOLD, SERIES_THRESHOLD, _bose_einstein_vector,
                                   bose_einstein, cavity_occupation_summary, occupation_series)


class TestBoseEinstein:
    def test_ln2_gives_unit_occupation(self):
        assert bose_einstein(omega=math.log(2.0), beta=1.0) == pytest.approx(1.0, rel=1e-14)

    def test_deep_quantum_limit(self):
        assert bose_einstein(omega=1.0, beta=1e4) == pytest.approx(0.0, abs=1e-300)
        assert bose_einstein(omega=1.0, beta=1e6) == 0.0  # overflow guard

    def test_classical_limit_series(self):
        x = 1e-8
        value = bose_einstein(omega=x, beta=1.0)
        assert value == pytest.approx(1.0 / x - 0.5, rel=1e-9)

    def test_series_matches_exact_at_threshold(self):
        for x in (9e-7, 1.1e-6):
            exact = 1.0 / math.expm1(x)
            assert bose_einstein(omega=x, beta=1.0) == pytest.approx(exact, rel=1e-10)

    def test_room_temperature_si_anchor(self):
        # 4.0e14 rad/s at 300 K: the formula value is ~3.8e-5, nowhere near 0.09
        omega, _, beta = natural_from_si(4.0e14, 1e-6, 300.0)
        value = bose_einstein(omega, beta)
        assert value == pytest.approx(3.77595418168579e-05, rel=1e-10)
        assert value < 1e-4

    @given(beta1=st.floats(0.1, 50.0), beta2=st.floats(0.1, 50.0))
    def test_monotone_in_beta(self, beta1, beta2):
        lo, hi = sorted((beta1, beta2))
        assert bose_einstein(1.0, lo) >= bose_einstein(1.0, hi)

    @pytest.mark.parametrize("kwargs", [{"omega": 0.0, "beta": 1.0},
                                        {"omega": 1.0, "beta": 0.0},
                                        {"omega": 1.0, "beta": 5e-324}])  # 1/x overflows
    def test_domain(self, kwargs):
        with pytest.raises(DomainError):
            bose_einstein(**kwargs)


class TestBoseEinsteinVector:
    def test_matches_scalar_across_branches(self):
        x = np.array([1e-9, 0.5 * SERIES_THRESHOLD, np.nextafter(SERIES_THRESHOLD, 0.0),
                      SERIES_THRESHOLD, 2.0 * SERIES_THRESHOLD, 0.3, 1.0, 40.0,
                      np.nextafter(OVERFLOW_THRESHOLD, 0.0), OVERFLOW_THRESHOLD,
                      np.nextafter(OVERFLOW_THRESHOLD, 1e3), 2.0 * OVERFLOW_THRESHOLD])
        for beta in (0.5, 1.0, 4.0):
            vector = _bose_einstein_vector(x / beta, beta)
            scalar = np.array([bose_einstein(w, beta) for w in x / beta])
            assert np.allclose(vector, scalar, rtol=1e-15, atol=0.0)
            assert np.array_equal(vector == 0.0, scalar == 0.0)

    @pytest.mark.parametrize("omegas, beta", [([1.0, 0.0], 1.0), ([1.0, 2.0], 0.0),
                                              ([1.0, 2.0], 5e-324)])
    def test_domain(self, omegas, beta):
        with pytest.raises(DomainError):
            _bose_einstein_vector(np.array(omegas), beta)

    def test_overflowing_beta_omega_is_empty(self):
        # beta*omega overflows to inf: the overflow branch, with no RuntimeWarning
        assert np.array_equal(_bose_einstein_vector(np.array([1.0, 2.0]), 1.7e308), [0.0, 0.0])


class TestOccupationSeries:
    def setup_method(self):
        self.params = ModelParams(omega_bar=1.0, g=0.02, radius=2.0, n_modes=12)
        self.ladder = build_mode_ladder(self.params)
        self.spectrum = dressed_spectrum(self.params)

    def test_initial_condition_exact(self):
        for beta in (0.1, 1.0, 100.0):
            series = occupation_series(self.spectrum, self.ladder, beta, 1.0,
                                       np.array([0.0, 1.0]))
            assert series.occupation[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_reduction(self):
        t = np.linspace(0.0, 30.0, 121)
        series = occupation_series(self.spectrum, self.ladder, 1e6, 1.0, t)
        from dressedcavity.dynamics import survival_series
        survival = survival_series(self.spectrum, t).survival
        assert np.max(np.abs(series.occupation - survival)) < 1e-6

    def test_monotone_in_temperature(self):
        t = np.linspace(0.5, 20.0, 40)
        occ_hot = occupation_series(self.spectrum, self.ladder, 0.5, 1.0, t).occupation
        occ_cold = occupation_series(self.spectrum, self.ladder, 2.0, 1.0, t).occupation
        assert np.all(occ_hot >= occ_cold - 1e-14)

    def test_blocks_match_one_shot(self, monkeypatch):
        # 7 samples per block (13 labels into 96 elements) and T = 100 leaves a ragged last block
        monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 96)
        t = np.linspace(0.0, 40.0, 100)
        series = occupation_series(self.spectrum, self.ladder, 0.7, 1.3, t)
        v = self.spectrum.components
        phases = np.exp(-1j * np.outer(self.spectrum.omega_dressed, t))
        power = np.abs(v @ (v[0][:, None] * phases)) ** 2
        nbar = np.array([bose_einstein(w, 0.7) for w in self.ladder.frequencies])
        one_shot = 1.3 * power[0] + nbar @ power[1:]
        assert np.max(np.abs(series.occupation - one_shot)) <= 1e-13

    def test_ladder_size_mismatch(self):
        wrong = build_mode_ladder(ModelParams(1.0, 0.02, 2.0, 5))
        with pytest.raises(DomainError):
            occupation_series(self.spectrum, wrong, 1.0, 1.0, np.array([0.0]))

    def test_negative_initial_occupation(self):
        with pytest.raises(DomainError):
            occupation_series(self.spectrum, self.ladder, 1.0, -1.0, np.array([0.0]))

    def test_initial_occupation_above_double_range_limit(self):
        # 1e301 quanta could overflow the weighted sum (a matmul overflow warning)
        with pytest.raises(DomainError):
            occupation_series(self.spectrum, self.ladder, 1.0, 1e301, np.array([0.0]))


class TestCavitySummary:
    def test_decoupled_is_flat(self):
        params = ModelParams(omega_bar=1.0, g=0.0, radius=1.0, n_modes=4)
        series = occupation_series(dressed_spectrum(params), build_mode_ladder(params),
                                   1.0, 1.0, np.linspace(0.0, 10.0, 50))
        summary = cavity_occupation_summary(series)
        assert summary == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_room_temperature_close_to_zero_temperature(self):
        # small cavity, beta*omega_bar ~ 10: thermal weights are negligible
        params = ModelParams(omega_bar=1.0, g=0.1, radius=1.334, n_modes=32)
        ladder = build_mode_ladder(params)
        spectrum = dressed_spectrum(params)
        t = np.linspace(0.0, 200.0, 2001)
        cold = occupation_series(spectrum, ladder, 1e6, 1.0, t)
        room = occupation_series(spectrum, ladder, 10.0, 1.0, t)
        avg_cold = cavity_occupation_summary(cold).time_average
        avg_room = cavity_occupation_summary(room).time_average
        assert avg_room >= avg_cold
        assert avg_room == pytest.approx(avg_cold, rel=0.02)

    def test_high_temperature_raises_average_severalfold(self):
        # beta*omega_bar ~ 0.03 floods the field modes; the time average
        # climbs to several times its zero-temperature value
        params = ModelParams(omega_bar=1.0, g=0.1, radius=1.334, n_modes=32)
        ladder = build_mode_ladder(params)
        spectrum = dressed_spectrum(params)
        t = np.linspace(0.0, 200.0, 2001)
        cold = cavity_occupation_summary(
            occupation_series(spectrum, ladder, 1e6, 1.0, t)).time_average
        hot = cavity_occupation_summary(
            occupation_series(spectrum, ladder, 0.03, 1.0, t)).time_average
        assert hot > 3.0 * cold


def test_free_space_thermalization(free_space_spectrum):
    # weak coupling in a huge cavity: the occupation settles at the
    # Bose-Einstein value of the atom frequency
    params = ModelParams(omega_bar=1.0, g=0.01, radius=500.0 * math.pi, n_modes=1000)
    ladder = build_mode_ladder(params)
    t = np.linspace(0.0, 300.0, 601)
    for beta in (1.0, 2.0):
        series = occupation_series(free_space_spectrum, ladder, beta, 1.0, t)
        long_time = series.occupation[series.t >= 150.0]
        target = bose_einstein(1.0, beta)
        assert np.mean(long_time) == pytest.approx(target, rel=0.05)
