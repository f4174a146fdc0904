import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dressedcavity.dynamics as dynamics
from dressedcavity.dynamics import amplitudes
from dressedcavity.errors import DomainError
from dressedcavity.model import RANGE_LIMIT, ModelParams, natural_from_si
from dressedcavity.thermal import (OVERFLOW_THRESHOLD, SERIES_THRESHOLD, bose_einstein,
                                   occupation_series, occupation_weights)

from conftest import dressed_spectrum


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
        # the formula each branch stands for: series below the threshold, 0 above overflow
        expected = np.array([1.0 / v - 0.5 + v / 12.0 if v < SERIES_THRESHOLD
                             else 0.0 if v > OVERFLOW_THRESHOLD else 1.0 / math.expm1(v)
                             for v in x])
        for beta in (0.5, 1.0, 4.0):
            vector = bose_einstein(x / beta, beta)
            scalar = np.array([bose_einstein(w, beta) for w in x / beta])
            for values in (vector, scalar):
                assert np.allclose(values, expected, rtol=1e-15, atol=0.0)
                assert np.array_equal(values == 0.0, expected == 0.0)
            assert all(type(bose_einstein(w, beta)) is float for w in x / beta)

    @pytest.mark.parametrize("omegas, beta", [([1.0, 0.0], 1.0), ([1.0, 2.0], 0.0),
                                              ([1.0, 2.0], 5e-324)])
    def test_domain(self, omegas, beta):
        with pytest.raises(DomainError):
            bose_einstein(np.array(omegas), beta)

    def test_overflowing_beta_omega_is_empty(self):
        # beta*omega overflows to inf: the overflow branch, with no RuntimeWarning
        assert np.array_equal(bose_einstein(np.array([1.0, 2.0]), 1.7e308), [0.0, 0.0])


class TestOccupationSeries:
    def setup_method(self):
        self.params = ModelParams(omega_bar=1.0, g=0.02, radius=2.0, n_modes=12)
        self.spectrum = dressed_spectrum(self.params)

    def series(self, beta, n0_init, t):
        return occupation_series(self.spectrum, occupation_weights(self.params, beta, n0_init),
                                 t).occupation

    def test_initial_condition_exact(self):
        weights = np.array([occupation_weights(self.params, beta, 1.0)
                            for beta in (0.1, 1.0, 100.0)])
        occupation = occupation_series(self.spectrum, weights, np.array([0.0, 1.0])).occupation
        assert occupation.shape == (3, 2)
        assert np.allclose(occupation[:, 0], 1.0, rtol=0.0, atol=1e-12)

    def test_zero_temperature_reduction(self):
        t = np.linspace(0.0, 30.0, 121)
        occupation = self.series(1e6, 1.0, t)
        survival = np.abs(amplitudes(self.spectrum, t, 0)) ** 2
        assert np.max(np.abs(occupation - survival)) < 1e-6

    def test_monotone_in_temperature(self):
        t = np.linspace(0.5, 20.0, 40)
        weights = np.array([occupation_weights(self.params, beta, 1.0) for beta in (0.5, 2.0)])
        occ_hot, occ_cold = occupation_series(self.spectrum, weights, t).occupation
        assert np.all(occ_hot >= occ_cold - 1e-14)

    def test_blocks_match_one_shot(self, monkeypatch):
        # 7 samples per block (13 labels into 96 elements) and T = 100 leaves a ragged last block
        monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 96)
        t = np.linspace(0.0, 40.0, 100)
        occupation = self.series(0.7, 1.3, t)
        v = self.spectrum.components
        phases = np.exp(-1j * np.outer(self.spectrum.omega_dressed, t))
        power = np.abs(v @ (v[0][:, None] * phases)) ** 2
        nbar = np.array([bose_einstein(w, 0.7) for w in self.params.mode_frequencies])
        one_shot = 1.3 * power[0] + nbar @ power[1:]
        assert np.max(np.abs(occupation - one_shot)) <= 1e-13

    def test_peak_holds_three_phase_tables(self, monkeypatch):
        # 500 samples per block at N = 400 and T = 1800: four blocks, the last
        # one ragged.  The pass holds one phase table, filled with cos and
        # then sin, and the all-label real and imaginary parts, so a fourth
        # table would read 4.  Blocks this wide keep numpy's fixed
        # 8192-element ufunc buffer to a few hundredths of a table.
        params = ModelParams(omega_bar=1.0, g=0.02, radius=2.0, n_modes=400)
        spectrum = dressed_spectrum(params)
        table = spectrum.size * 500
        monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", table)
        weights = occupation_weights(params, 1.0, 1.0)
        t = np.linspace(0.0, 40.0, 1800)
        tracemalloc.start()
        try:
            occupation_series(spectrum, weights, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * table * 8

    def test_stack_rows_equal_single_calls(self, monkeypatch):
        # ragged last block as above; each stacked row must be its single call bit for bit
        monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 96)
        t = np.linspace(0.0, 40.0, 100)
        weights = np.array([occupation_weights(self.params, beta, n0)
                            for beta, n0 in ((0.3, 0.0), (0.7, 1.3), (5.0, 2.0))])
        stacked = occupation_series(self.spectrum, weights, t).occupation
        assert stacked.shape == (3, t.size)
        for row, weight in zip(stacked, weights):
            alone = occupation_series(self.spectrum, weight.copy(), t).occupation
            assert np.array_equal(row, alone)
        single = occupation_series(self.spectrum, weights[1], t).occupation
        one = occupation_series(self.spectrum, weights[1:2], t).occupation
        assert single.shape == (t.size,) and one.shape == (1, t.size)
        assert np.array_equal(one[0], single)

    def test_shared_f00_equals_amplitudes(self, monkeypatch):
        # ragged last block as above; the pass's f00 is the label-0 amplitude
        # bit for bit, for one vector, a stack and an empty stack
        monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 96)
        t = np.linspace(0.0, 40.0, 100)
        f00 = amplitudes(self.spectrum, t, 0)
        weights = np.array([occupation_weights(self.params, beta, 1.0) for beta in (0.3, 5.0)])
        for stack in (weights[0], weights, np.empty((0, self.spectrum.size))):
            shared = occupation_series(self.spectrum, stack, t)
            assert shared.occupation.shape == stack.shape[:-1] + t.shape
            assert np.array_equal(shared.f00, f00)

    def test_result_is_not_a_tuple(self):
        # unpacking the result, as one unpacks a (P, T) stack, must fail loudly
        weights = np.array([occupation_weights(self.params, beta, 1.0) for beta in (0.5, 2.0)])
        with pytest.raises(TypeError):
            occupation, f00 = occupation_series(self.spectrum, weights, np.array([0.0, 1.0]))

    def test_weights_give_n0_then_bose_einstein(self):
        weights = occupation_weights(self.params, 0.7, 1.3)
        assert weights.shape == (self.spectrum.size,)
        assert weights[0] == 1.3
        assert np.array_equal(weights[1:], bose_einstein(self.params.mode_frequencies, 0.7))

    def test_ladder_size_mismatch(self):
        # weights of a 5-mode model against the 12-mode spectrum, alone and stacked
        wrong = occupation_weights(ModelParams(1.0, 0.02, 2.0, 5), 1.0, 1.0)
        for weights in (wrong, np.array([wrong, wrong]), wrong[None, None]):
            with pytest.raises(DomainError, match="need 13 entries per vector"):
                occupation_series(self.spectrum, weights, np.array([0.0]))

    def test_negative_initial_occupation(self):
        with pytest.raises(DomainError):
            occupation_weights(self.params, 1.0, -1.0)

    def test_initial_occupation_above_double_range_limit(self):
        # 1e301 quanta could overflow the weighted sum (a matmul overflow warning)
        with pytest.raises(DomainError):
            occupation_weights(self.params, 1.0, 1e301)


class TestCavitySummary:
    def test_decoupled_is_flat(self):
        params = ModelParams(omega_bar=1.0, g=0.0, radius=1.0, n_modes=4)
        occupation = occupation_series(dressed_spectrum(params),
                                       occupation_weights(params, 1.0, 1.0),
                                       np.linspace(0.0, 10.0, 50)).occupation
        assert occupation.shape == (50,)
        assert np.allclose(occupation, 1.0, rtol=0.0, atol=1e-12)

    def test_room_temperature_close_to_zero_temperature(self):
        # small cavity, beta*omega_bar ~ 10: thermal weights are negligible
        params = ModelParams(omega_bar=1.0, g=0.1, radius=1.334, n_modes=32)
        weights = np.array([occupation_weights(params, beta, 1.0) for beta in (1e6, 10.0)])
        t = np.linspace(0.0, 200.0, 2001)
        avg_cold, avg_room = np.mean(
            occupation_series(dressed_spectrum(params), weights, t).occupation, axis=1)
        assert avg_room >= avg_cold
        assert avg_room == pytest.approx(avg_cold, rel=0.02)

    def test_high_temperature_raises_average_severalfold(self):
        # beta*omega_bar ~ 0.03 floods the field modes; the time average
        # climbs to several times its zero-temperature value
        params = ModelParams(omega_bar=1.0, g=0.1, radius=1.334, n_modes=32)
        weights = np.array([occupation_weights(params, beta, 1.0) for beta in (1e6, 0.03)])
        t = np.linspace(0.0, 200.0, 2001)
        cold, hot = np.mean(occupation_series(dressed_spectrum(params), weights, t).occupation,
                            axis=1)
        assert hot > 3.0 * cold


def test_free_space_thermalization(free_space_spectrum):
    # weak coupling in a huge cavity: the occupation settles at the
    # Bose-Einstein value of the atom frequency
    params = ModelParams(omega_bar=1.0, g=0.01, radius=500.0 * math.pi, n_modes=1000)
    t = np.linspace(0.0, 300.0, 601)
    betas = (1.0, 2.0)
    weights = np.array([occupation_weights(params, beta, 1.0) for beta in betas])
    for beta, occupation in zip(betas,
                                occupation_series(free_space_spectrum, weights, t).occupation):
        long_time = occupation[t >= 150.0]
        target = bose_einstein(1.0, beta)
        assert np.mean(long_time) == pytest.approx(target, rel=0.05)


# Frequencies whose squares lie just inside the range rule's ends, 1e-150 and 1e150.
LOWEST, HIGHEST = math.nextafter(1e-75, 1.0), 1e75


def corner_model(omega_bar, g, n_modes, top):
    """The model with delta_omega^2 at the lower end of the range rule, or,
    with `top`, its mode span^2 at the upper end: the radius is stepped by
    ulps until the rounded spacing or span lies inside."""
    radius = math.pi * (n_modes / HIGHEST if top else 1.0 / LOWEST)
    for _ in range(8):
        try:
            return ModelParams(omega_bar, g, radius, n_modes)
        except DomainError:
            radius = math.nextafter(radius, math.inf if top else 0.0)
    raise AssertionError("no radius inside the range rule")


@settings(max_examples=300)
@given(omega_bar=st.sampled_from([LOWEST, HIGHEST]), coupling=st.sampled_from([0.0, 1e-3, 0.1]),
       n_modes=st.integers(1, 3), top=st.booleans(),
       beta=st.sampled_from([1.0 / RANGE_LIMIT, RANGE_LIMIT]),
       n0_init=st.sampled_from([0.0, 1e300]), t_max=st.sampled_from([1e-150, 1e150]))
def test_occupation_is_finite_at_the_range_corners(omega_bar, coupling, n_modes, top, beta,
                                                   n0_init, t_max):
    # every point a sweep resolves gets finite weights and a finite occupation
    # pass, so a model's stacked pass over its betas has no per-beta failure:
    # omega_bar^2, delta_omega^2 and the span^2 at 1e-150 or 1e150 (with one
    # mode, both ends of the spacing and of the span), beta at either end and
    # n0_init at 0 or its cap: 288 cases.
    params = corner_model(omega_bar, coupling * omega_bar, n_modes, top)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        weights = occupation_weights(params, beta, n0_init)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        series = occupation_series(dressed_spectrum(params), weights,
                                   np.linspace(0.0, t_max, 5))
    assert np.all(np.isfinite(series.occupation)) and np.all(np.isfinite(series.f00))
