"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from dressedcavity.cli import RunConfig, main, run_tables
from dressedcavity.density import (EntangledStateSpec, ThermalBathSpec, reduced_density_closed,
                                   thermal_trace_oracle)
from dressedcavity.dynamics import amplitudes, decay_rate_fit, wigner_weisskopf_rate
from dressedcavity.entanglement import (entanglement_of_formation, family_concurrence,
                                        measures, partial_transpose)
from dressedcavity.model import ModelParams, build_coupling_matrix
from dressedcavity.spectral import diagonalize
from dressedcavity.thermal import bose_einstein, occupation_series, occupation_weights

from conftest import (FREE_SPACE, SMALL_CAVITY, dense, dressed_spectrum, interlacing_counts,
                      random_params, read_csv)

# Frozen oracle values (direct evaluation, see the module tests for provenance).
NBAR_BETA_1 = 0.5819767068693265
NBAR_BETA_2 = 0.15651764274966565
EOF_HALF = 0.35457890266526988
NEGATIVITY_FAMILY_POINT = 0.20710678118654757  # (sqrt(2) - 1) / 2


def check(num, name, conditions):
    ok = all(conditions.values())
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    failed = [key for key, value in conditions.items() if not value]
    assert ok, f"failed conditions: {failed}"


def test_criterion_1_temperature_independence():
    started = time.perf_counter()
    worst_closed = 0.0
    worst_cross = 0.0
    for n_oracle, n_max in itertools.product((1, 2), (2, 4)):
        spec = dressed_spectrum(ModelParams(1.0, 0.01, 1.0, n_oracle))
        for xi, phi in ((0.3, 1.1), (0.5, 0.0)):
            state = EntangledStateSpec(xi, phi)
            for t in (0.0, 0.7, 3.1):
                f00 = amplitudes(spec, [t])[0, 0]
                closed = reduced_density_closed(state, f00).matrix
                reference = None
                for beta in (0.2, 1.0, 5.0):
                    bath = ThermalBathSpec(beta=beta, n_max=n_max)
                    rho = thermal_trace_oracle(state, spec, bath, t).matrix
                    if reference is None:
                        reference = rho
                    worst_closed = max(worst_closed, float(np.max(np.abs(rho - closed))))
                    worst_cross = max(worst_cross, float(np.max(np.abs(rho - reference))))
    elapsed = time.perf_counter() - started
    check(1, "temperature independence of the reduced matrix", {
        f"oracle vs closed form <= 1e-12 (got {worst_closed:.2e})": worst_closed <= 1e-12,
        f"identical across beta <= 1e-12 (got {worst_cross:.2e})": worst_cross <= 1e-12,
        f"runtime < 10 s (got {elapsed:.1f})": elapsed < 10.0,
    })


def test_criterion_2_unitarity(rng):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = dressed_spectrum(random_params(rng))
        t = float(rng.uniform(0.0, 50.0))
        f = amplitudes(spec, [t])[:, 0]
        worst = max(worst, abs(float(np.sum(np.abs(f) ** 2)) - 1.0))
    elapsed = time.perf_counter() - started
    check(2, "unitarity of the amplitude set", {
        f"max residual <= 1e-10 over 100 draws (got {worst:.2e})": worst <= 1e-10,
        f"runtime seconds-scale (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_3_spectral_cross_validation():
    started = time.perf_counter()
    worst = 0.0
    counts_ok = True
    for n_modes, g, span in itertools.product((1, 5, 50, 200),
                                               (1e-3, 1e-2, 1e-1),
                                               (0.3, 1.0, 100.0)):
        params = ModelParams(omega_bar=1.0, g=g, radius=span * math.pi, n_modes=n_modes)
        matrix = build_coupling_matrix(params)
        spectrum = diagonalize(matrix)
        reference = np.sqrt(np.linalg.eigh(dense(matrix)).eigenvalues)
        worst = max(worst, float(np.max(
            np.abs(reference - spectrum.omega_dressed) / spectrum.omega_dressed)))
        below, inside, above = interlacing_counts(spectrum, params)
        counts_ok = counts_ok and all(c == 1 for c in inside) and below + above == 2
    elapsed = time.perf_counter() - started
    check(3, "secular eigensolver vs dense eigh", {
        f"relative agreement <= 1e-8 (got {worst:.2e})": worst <= 1e-8,
        "interlacing counts exact": counts_ok,
        f"runtime < 1 min (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_4_free_space_dissipation(free_space_spectrum):
    started = time.perf_counter()
    # golden rule from the model pieces: resonant element eta/2, density R/pi
    eta = FREE_SPACE.eta
    golden_rule = 2.0 * math.pi * (eta / 2.0) ** 2 * (FREE_SPACE.radius / math.pi)
    rate_oracle = wigner_weisskopf_rate(FREE_SPACE.g)
    t = np.linspace(0.0, 100.0, 2001)
    survival = np.abs(amplitudes(free_space_spectrum, t, 0)) ** 2
    rate, r_squared = decay_rate_fit(t, survival, (5.0, 80.0))
    elapsed = time.perf_counter() - started
    check(4, "free-space dissipation", {
        "golden-rule oracle confirms pi*g": abs(golden_rule - rate_oracle) <= 1e-12,
        f"fit quality >= 0.999 (got {r_squared:.6f})": r_squared >= 0.999,
        f"rate within 5% of oracle (got {rate:.5f} vs {rate_oracle:.5f})":
            abs(rate - rate_oracle) <= 0.05 * rate_oracle,
        f"runtime < 1 min (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_5_small_cavity_stability():
    started = time.perf_counter()
    spectrum = dressed_spectrum(SMALL_CAVITY)
    f00 = amplitudes(spectrum, np.linspace(0.0, 1000.0, 20001), 0)
    min_survival = float(np.min(np.abs(f00) ** 2))
    c0 = family_concurrence(0.5, 1.0)
    min_concurrence = family_concurrence(0.5, min_survival)
    # spot-check the closed form against the general spin-flip path at the dip
    f_at_dip = math.sqrt(min_survival)
    general = measures(reduced_density_closed(EntangledStateSpec(0.5, 0.0), f_at_dip)).concurrence
    elapsed = time.perf_counter() - started
    check(5, "small-cavity stability", {
        f"min survival >= 0.95 (got {min_survival:.4f})": min_survival >= 0.95,
        f"min concurrence >= 0.95 C(0) (got {min_concurrence:.4f})":
            min_concurrence >= 0.95 * c0,
        "general path agrees at the dip": abs(general - min_concurrence) <= 1e-12,
        f"runtime < 1 min (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_6_thermal_equilibrium(free_space_spectrum):
    started = time.perf_counter()
    t = np.linspace(0.0, 300.0, 601)
    betas = (1.0, 2.0)
    weights = np.array([occupation_weights(FREE_SPACE, beta, 1.0) for beta in betas])
    occupation = occupation_series(free_space_spectrum, weights, t).occupation
    means = {beta: float(np.mean(row[t >= 150.0])) for beta, row in zip(betas, occupation)}
    # the formula value at the SI anchor; the often-quoted 0.09 is excluded
    si_value = bose_einstein(1.0, 10.184310109676986)
    elapsed = time.perf_counter() - started
    check(6, "free-space thermal equilibrium", {
        f"beta=1 mean within 5% of {NBAR_BETA_1:.4f} (got {means[1.0]:.4f})":
            abs(means[1.0] - NBAR_BETA_1) <= 0.05 * NBAR_BETA_1,
        f"beta=2 mean within 5% of {NBAR_BETA_2:.4f} (got {means[2.0]:.4f})":
            abs(means[2.0] - NBAR_BETA_2) <= 0.05 * NBAR_BETA_2,
        f"300 K anchor is the formula value ~3.78e-5, not 0.09 (got {si_value:.3e})":
            abs(si_value - 3.77595418168579e-05) <= 1e-12 and si_value < 1e-4,
        f"runtime < 1 min (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_7_entanglement_measures():
    started = time.perf_counter()
    bell = reduced_density_closed(EntangledStateSpec(0.5, 0.0), 1.0)
    bell_m = measures(bell)
    f_half = math.sqrt(0.5)
    family = reduced_density_closed(EntangledStateSpec(0.5, 0.0), f_half)
    family_m = measures(family)
    pt_eigenvalues = np.linalg.eigvalsh(partial_transpose(family.matrix))
    negativity_oracle = float(np.sum(np.abs(pt_eigenvalues)) - np.sum(pt_eigenvalues))
    elapsed = time.perf_counter() - started
    check(7, "entanglement measures", {
        "Bell point C = 1": abs(bell_m.concurrence - 1.0) <= 1e-12,
        "Bell point EoF = 1": abs(bell_m.eof - 1.0) <= 1e-12,
        "Bell point N = 1": abs(bell_m.negativity - 1.0) <= 1e-12,
        f"family C = 0.5 (got {family_m.concurrence:.12f})":
            abs(family_m.concurrence - 0.5) <= 1e-12,
        f"family EoF = {EOF_HALF:.6f}": abs(family_m.eof - EOF_HALF) <= 1e-12,
        f"family N = {NEGATIVITY_FAMILY_POINT:.6f}":
            abs(family_m.negativity - NEGATIVITY_FAMILY_POINT) <= 1e-12,
        "general vs closed-form concurrence <= 1e-12":
            abs(family_m.concurrence - family_concurrence(0.5, 0.5)) <= 1e-12,
        "general vs eigensolver negativity <= 1e-12":
            abs(family_m.negativity - negativity_oracle) <= 1e-12,
        f"runtime seconds-scale (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_8_end_to_end_beta_invariance(tmp_path):
    started = time.perf_counter()
    # 1 K, 300 K, 1e5 K at the SI anchor frequency, through the CLI pipeline
    columns_by_temperature = {}
    for temperature in (1.0, 300.0, 1e5):
        out = tmp_path / f"T{temperature:g}"
        config = RunConfig(omega_bar=4.0e14, g=4.0e12, radius=1e-6,
                           temperature=temperature, si=True, n_modes=64,
                           t_max=20.0, samples=101, xi=0.5, phi=0.0, out=str(out))
        assert run_tables(config, ["entanglement"]) == 0
        _, columns, rows = read_csv(out / "entanglement.csv")
        idx = {name.split("[")[0]: i for i, name in enumerate(columns)}
        columns_by_temperature[temperature] = np.array(
            [[float(r[idx[k]]) for k in ("concurrence", "eof", "negativity")] for r in rows])
    values = list(columns_by_temperature.values())
    worst_csv = max(float(np.max(np.abs(v - values[0]))) for v in values[1:])

    # same statement via the brute-force thermal trace
    spec = dressed_spectrum(ModelParams(1.0, 0.01, 1.3342563807926082, 2))
    state = EntangledStateSpec(0.5, 0.0)
    worst_oracle = 0.0
    reference = None
    for beta in (3055.2930329030956, 10.184310109676986, 0.030552930329030957):
        bath = ThermalBathSpec(beta=beta, n_max=3)
        m = measures(thermal_trace_oracle(state, spec, bath, 1.7))
        triple = np.array([m.concurrence, m.eof, m.negativity])
        if reference is None:
            reference = triple
        worst_oracle = max(worst_oracle, float(np.max(np.abs(triple - reference))))
    elapsed = time.perf_counter() - started
    check(8, "measures identical across a temperature sweep", {
        f"CSV columns identical to 1e-15 (got {worst_csv:.2e})": worst_csv <= 1e-15,
        f"oracle-route measures identical to 1e-15 (got {worst_oracle:.2e})":
            worst_oracle <= 1e-15,
        f"runtime seconds-scale (got {elapsed:.1f})": elapsed < 60.0,
    })


def test_criterion_9_negative_control(tmp_path, capsys):
    started = time.perf_counter()
    spec = dressed_spectrum(ModelParams(1.0, 0.01, 1.0, 1))
    state = EntangledStateSpec(0.3, 1.1)
    f00 = amplitudes(spec, [0.7])[0, 0]
    closed = reduced_density_closed(state, f00).matrix
    deviations = []
    traces = []
    broken = {}
    for beta in (0.2, 1.0, 5.0):
        bath = ThermalBathSpec(beta=beta, n_max=3)
        rho = thermal_trace_oracle(state, spec, bath, 0.7,
                                   weight_scheme="per_level_partition").matrix
        broken[beta] = rho
        deviations.append(float(np.max(np.abs(rho - closed))))
        traces.append(float(np.trace(rho).real))
    beta_spread = float(np.max(np.abs(broken[0.2] - broken[5.0])))
    exit_code = main(["verify", "--negative-control", "--out", str(tmp_path / "verify")])
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    check(9, "negative control with the mistyped partition factor", {
        f"criterion-1 comparison fails (min dev {min(deviations):.2e})":
            min(deviations) > 1e-12,
        f"unit trace broken (traces {', '.join(f'{x:.3f}' for x in traces)})":
            all(abs(trace - 1.0) > 1e-6 for trace in traces),
        "beta dependence reappears": beta_spread > 1e-6,
        "cli verify --negative-control exits 2": exit_code == 2,
        f"runtime seconds-scale (got {elapsed:.1f})": elapsed < 60.0,
    })
