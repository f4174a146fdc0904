import math
import tracemalloc

import numpy as np
import pytest

import dressedcavity.dynamics as dynamics
from dressedcavity.dynamics import (amplitude_blocks, amplitudes, decay_rate_fit,
                                    wigner_weisskopf_rate)
from dressedcavity.errors import FitWindowError, InsufficientDataError
from dressedcavity.model import ModelParams
from dressedcavity.spectral import DressedSpectrum

from conftest import dressed_spectrum, random_params

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


def copied_blocks(spec, t, *selections):
    """Every block of one pass, its parts copied before the pass refills its buffers."""
    return [(block, *((re.copy(), im.copy()) for re, im in parts))
            for block, *parts in amplitude_blocks(spec, t, *selections)]


def test_selections_sharing_a_pass_match_their_own_passes(monkeypatch):
    # 7 samples per block (13 labels into 96 elements): T = 100 spans 15
    # blocks, the last one ragged
    monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 96)
    spec = dressed_spectrum(ModelParams(1.0, 0.02, 2.0, 12))
    t = np.linspace(0.0, 40.0, 100)
    selections = (slice(None), 0, [3, 1])
    shared = copied_blocks(spec, t, *selections)
    assert [block for block, *_ in shared][-1] == slice(98, 105)
    for k, labels in enumerate(selections):
        alone = copied_blocks(spec, t, labels)
        assert len(alone) == len(shared) == 15
        # each copy holds its own block's values, not the last block's
        assert not np.array_equal(shared[0][k + 1][0], shared[1][k + 1][0])
        assert not np.array_equal(alone[0][1][1], alone[1][1][1])
        for (block, *parts), (own_block, own) in zip(shared, alone):
            assert block == own_block
            assert np.array_equal(parts[k][0], own[0]) and np.array_equal(parts[k][1], own[1])


def test_row_pass_holds_one_phase_table(monkeypatch):
    # 500 samples per block at N = 400 and T = 1800: four blocks, the last
    # one ragged.  A row-0 pass fills one (N+1) x block table with the
    # phases, their cos and their sin in turn; separate cos and sin tables
    # would read 2.  The products of row 0 and the complex result are a few
    # hundredths of a table.
    spectrum = dressed_spectrum(ModelParams(omega_bar=1.0, g=0.02, radius=2.0, n_modes=400))
    table = spectrum.size * 500
    monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", table)
    t = np.linspace(0.0, 40.0, 1800)
    tracemalloc.start()
    try:
        amplitudes(spectrum, t, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table * 8


class TestSurvivalSeries:
    def test_single_point_grid(self):
        f00 = amplitudes(dressed_spectrum(WORKED), np.array([0.0]), 0)
        assert np.abs(f00[0]) ** 2 == pytest.approx(1.0, abs=1e-13)
        assert np.angle(f00[0]) == pytest.approx(0.0, abs=1e-13)

    def test_values_in_unit_interval(self):
        f00 = amplitudes(dressed_spectrum(WORKED), np.linspace(0.0, 50.0, 500), 0)
        survival = np.abs(f00) ** 2
        assert np.all(survival >= 0.0)
        assert np.all(survival <= 1.0 + 1e-12)


def survival_on(spec, t):
    """|f_00|^2 on the grid t."""
    return np.abs(amplitudes(spec, t, 0)) ** 2


class TestDecayRateFit:
    def test_decoupled_rate_is_zero(self):
        params = ModelParams(omega_bar=1.0, g=0.0, radius=math.pi, n_modes=2)
        t = np.linspace(0.0, 10.0, 50)
        rate, r_squared = decay_rate_fit(t, survival_on(dressed_spectrum(params), t), (0.0, 10.0))
        assert rate == pytest.approx(0.0, abs=1e-12)
        assert r_squared == pytest.approx(1.0)

    def test_recovers_synthetic_exponential(self):
        t = np.linspace(0.0, 20.0, 200)
        rate, r_squared = decay_rate_fit(t, np.exp(-0.37 * t), (1.0, 18.0))
        assert rate == pytest.approx(0.37, rel=1e-10)
        assert r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(InsufficientDataError):
            decay_rate_fit(t, survival_on(dressed_spectrum(WORKED), t), (3.0, 3.5))

    def test_nonpositive_survival_rejected(self):
        t = np.linspace(0.0, 5.0, 20)
        with pytest.raises(FitWindowError):
            decay_rate_fit(t, np.maximum(0.5 - 0.2 * t, 0.0), (0.0, 5.0))

    def test_free_space_decay_matches_golden_rule(self, free_space_spectrum):
        t = np.linspace(0.0, 100.0, 2001)
        rate, r_squared = decay_rate_fit(t, survival_on(free_space_spectrum, t), (5.0, 80.0))
        assert r_squared >= 0.999
        assert rate == pytest.approx(wigner_weisskopf_rate(0.01), rel=0.05)

    def test_fit_degrades_past_cavity_round_trip(self, free_space_spectrum):
        # revival at t = 2R ~ 3141.6 ruins the log-linear fit
        radius = 500.0 * math.pi
        t = np.linspace(2.0 * radius, 2.0 * radius + 120.0, 400)
        _, r_squared = decay_rate_fit(t, survival_on(free_space_spectrum, t), (t[0], t[-1]))
        assert r_squared < 0.999


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
