import math

import numpy as np
import pytest

from dressedcavity.dynamics import (amplitudes, decay_rate_fit, survival_series,
                                    wigner_weisskopf_rate)
from dressedcavity.errors import FitWindowError, InsufficientDataError
from dressedcavity.model import ModelParams
from dressedcavity.spectral import DressedSpectrum, dressed_spectrum

from conftest import random_params

WORKED = ModelParams(omega_bar=1.0, g=0.02, radius=math.pi, n_modes=1)


def at(spec, t):
    """f_0nu over every label at the single time t."""
    return amplitudes(spec, [t])[:, 0]


def norm_residual(f):
    return abs(float(np.sum(np.abs(f) ** 2)) - 1.0)


def test_initial_amplitudes_are_delta():
    f = at(dressed_spectrum(WORKED), 0.0)
    assert f[0] == pytest.approx(1.0, abs=1e-14)
    assert abs(f[1]) < 1e-14
    assert abs(f[0]) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_decoupled_atom_keeps_phase():
    params = ModelParams(omega_bar=1.3, g=0.0, radius=math.pi, n_modes=3)
    spec = dressed_spectrum(params)
    for t in (0.3, 2.0, 17.5):
        f = at(spec, t)
        assert f[0] == pytest.approx(np.exp(-1.3j * t), abs=1e-12)
        assert abs(f[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_two_level_rabi_oscillation():
    # 2x2 closed form: |f_00|^2 = 1 - sin^2(2 theta) sin^2((Omega_1-Omega_0) t / 2)
    spec = dressed_spectrum(WORKED)
    theta = math.atan2(spec.components[1, 0], spec.components[0, 0])
    gap = spec.omega_dressed[1] - spec.omega_dressed[0]
    for t in np.linspace(0.0, 40.0, 101):
        expected = 1.0 - math.sin(2 * theta) ** 2 * math.sin(gap * t / 2.0) ** 2
        assert abs(at(spec, t)[0]) ** 2 == pytest.approx(expected, abs=1e-12)


def test_unitarity_random_draws(rng):
    for _ in range(100):
        spec = dressed_spectrum(random_params(rng))
        t = float(rng.uniform(0.0, 50.0))
        assert norm_residual(at(spec, t)) <= 1e-10


def test_survival_invariant_under_eigenvector_sign_flips(rng):
    spec = dressed_spectrum(ModelParams(1.0, 0.01, 4.0, 12))
    t = 3.7
    reference = abs(at(spec, t)[0])
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=spec.size)
        flipped = DressedSpectrum(omega_dressed=spec.omega_dressed,
                                  components=spec.components * signs[None, :])
        assert abs(at(flipped, t)[0]) == reference  # bitwise stable


def test_time_reversal_conjugation(rng):
    spec = dressed_spectrum(ModelParams(1.0, 0.03, 2.5, 8))
    for t in (0.1, 1.7, 12.0):
        forward = at(spec, t)
        backward = at(spec, -t)
        assert np.max(np.abs(backward - np.conj(forward))) < 1e-12


def test_amplitude_matrix_matches_single_times():
    spec = dressed_spectrum(ModelParams(1.0, 0.02, 3.0, 6))
    grid = np.array([0.0, 0.9, 4.2])
    mat = amplitudes(spec, grid)
    assert mat.shape == (spec.size, grid.size)
    for j, t in enumerate(grid):
        assert np.allclose(mat[:, j], at(spec, t), atol=1e-14)
    # an integer label drops the label axis and picks that row
    assert amplitudes(spec, grid, 0).shape == grid.shape
    assert np.allclose(amplitudes(spec, grid, 0), mat[0], atol=1e-14)


class TestSurvivalSeries:
    def test_single_point_grid(self):
        series = survival_series(dressed_spectrum(WORKED), np.array([0.0]))
        assert series.t[0] == 0.0
        assert series.survival[0] == pytest.approx(1.0, abs=1e-13)
        assert series.phase[0] == pytest.approx(0.0, abs=1e-13)

    def test_values_in_unit_interval(self):
        series = survival_series(dressed_spectrum(WORKED), np.linspace(0.0, 50.0, 500))
        assert np.all(series.survival >= 0.0)
        assert np.all(series.survival <= 1.0 + 1e-12)

    def test_nonincreasing_grid_rejected(self):
        with pytest.raises(InsufficientDataError):
            survival_series(dressed_spectrum(WORKED), np.array([0.0, 1.0, 1.0]))


class TestDecayRateFit:
    def test_decoupled_rate_is_zero(self):
        params = ModelParams(omega_bar=1.0, g=0.0, radius=math.pi, n_modes=2)
        series = survival_series(dressed_spectrum(params), np.linspace(0.0, 10.0, 50))
        fit = decay_rate_fit(series, (0.0, 10.0))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_synthetic_exponential(self):
        from dressedcavity.dynamics import SurvivalSeries
        t = np.linspace(0.0, 20.0, 200)
        series = SurvivalSeries(t=t, survival=np.exp(-0.37 * t), phase=np.zeros_like(t))
        fit = decay_rate_fit(series, (1.0, 18.0))
        assert fit.rate == pytest.approx(0.37, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_samples(self):
        series = survival_series(dressed_spectrum(WORKED), np.linspace(0.0, 10.0, 20))
        with pytest.raises(InsufficientDataError):
            decay_rate_fit(series, (3.0, 3.5))

    def test_nonpositive_survival_rejected(self):
        from dressedcavity.dynamics import SurvivalSeries
        t = np.linspace(0.0, 5.0, 20)
        series = SurvivalSeries(t=t, survival=np.maximum(0.5 - 0.2 * t, 0.0),
                                phase=np.zeros_like(t))
        with pytest.raises(FitWindowError):
            decay_rate_fit(series, (0.0, 5.0))

    def test_free_space_decay_matches_golden_rule(self, free_space_spectrum):
        series = survival_series(free_space_spectrum, np.linspace(0.0, 100.0, 2001))
        fit = decay_rate_fit(series, (5.0, 80.0))
        assert fit.r_squared >= 0.999
        assert fit.rate == pytest.approx(wigner_weisskopf_rate(0.01), rel=0.05)

    def test_fit_degrades_past_cavity_round_trip(self, free_space_spectrum):
        # revival at t = 2R ~ 3141.6 ruins the log-linear fit
        radius = 500.0 * math.pi
        t = np.linspace(2.0 * radius, 2.0 * radius + 120.0, 400)
        series = survival_series(free_space_spectrum, t)
        fit = decay_rate_fit(series, (t[0], t[-1]))
        assert fit.r_squared < 0.999


def test_convergence_rate_in_mode_cutoff():
    # Doubling N past the span threshold shrinks |f_00| changes roughly like
    # the removed spectral tail weight ~ g/(N delta_omega), not to 1e-6.
    probe = np.array([1.0, 5.0, 20.0])
    changes = []
    previous = None
    for n_modes in (8, 16, 32, 64):
        spec = dressed_spectrum(ModelParams(1.0, 0.01, 1.0, n_modes))
        f00 = np.abs(amplitudes(spec, probe)[0])
        if previous is not None:
            changes.append(np.max(np.abs(f00 - previous)))
        previous = f00
    assert changes[0] < 2e-3
    assert all(later < earlier for earlier, later in zip(changes, changes[1:]))
    # tail-weight bound: change <= 4 * g / (N * delta_omega)
    for n_modes, change in zip((8, 16, 32), changes):
        assert change <= 4.0 * 0.01 / (n_modes * math.pi)
