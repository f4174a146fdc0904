import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from dressedcavity.cli import (_KINDS, COMMANDS, RunConfig, build_parser, config_from_args,
                              main, parse_config_file, resolve_natural)
from dressedcavity.density import reduced_density_closed, survival_probability
from dressedcavity.dynamics import amplitudes
from dressedcavity.entanglement import measures
from dressedcavity.model import (BOLTZMANN, HBAR, ModelParams, build_coupling_matrix,
                                 natural_from_si)
from dressedcavity.reporting import csv_body
from dressedcavity.spectral import EPS
from dressedcavity.thermal import occupation_weights
import dressedcavity.cli as cli
import dressedcavity.dynamics as dynamics
import dressedcavity.spectral as spectral
import dressedcavity.thermal as thermal

from conftest import (SMALL_CAVITY, dense, dense_reference, dressed_spectrum, read_csv,
                      si_from_natural)


# An SI model that resolves: 4e14 rad/s in a 1 um sphere, g of 0.01 in natural units.
SI_INPUTS = ("--si", "--omega-bar", "4e14", "--radius", "1e-6", "--g", "4e12")


# A beta of -5, 0, 1e-151 or 1e151 set three ways, and the message part each gives.
BAD_BETAS = {
    **{f"beta_{beta}": (("--beta", beta), "beta must lie in [1e-150, 1e+150]")
       for beta in ("-5", "0", "1e-151", "1e151")},
    **{f"temperature_{t}": (("--temperature", t), "temperature must be positive")
       for t in ("-5", "0")},
    "temperature_1e151": (("--temperature", "1e151"), "got 1e-151 from temperature 1e+151"),
    "temperature_1e-151": (("--temperature", "1e-151"), "got 1e+151 from temperature 1e-151"),
    **{f"si_beta_{beta}": ((*SI_INPUTS, "--beta", beta), "beta must lie in [1e-150, 1e+150]")
       for beta in ("-5", "0")},
    "si_temperature_-5": ((*SI_INPUTS, "--temperature", "-5"), "temperature must be positive"),
    # hbar*omega_si/k_B is 3055 K at 4e14 rad/s: beta about 1e-151 and 1e151
    "si_temperature_hot": ((*SI_INPUTS, "--temperature", "3.06e154"),
                           "from temperature 3.06e+154"),
    "si_temperature_cold": ((*SI_INPUTS, "--temperature", "3.06e-148"),
                            "from temperature 3.06e-148"),
}


def run_cli(*args):
    return main([str(a) for a in args])


def floats(rows, col_index):
    return [float(r[col_index]) for r in rows]


def count_calls(monkeypatch, *names):
    """Count the calls `cli` makes to each named function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


TABLE_COMMANDS = ("spectrum", "dynamics", "density", "entanglement", "thermal")
# Every Hypothesis phase but explain: an example of the tests that drive `main`
# runs up to eight commands, so explaining a failure took minutes, while the
# failing example itself is reported all the same.
CLI_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)


class TestConfigHandling:
    def test_parse_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
# free-space run
omega_bar = 1.0
g = 0.01          # weak coupling
n_modes = 200
beta_list = 0.5, 2.0
si = false
""")
        values = parse_config_file(cfg)
        assert values == {"omega_bar": 1.0, "g": 0.01, "n_modes": 200,
                          "beta_list": (0.5, 2.0), "si": False}

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("coupling = 3\n")
        assert run_cli("spectrum", "--config", cfg) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("g 0.5", "expected 'key = value', got 'g 0.5'"),
        ("si = maybe", "bad value for si: not a boolean: 'maybe'"),
        ("n_modes = 8.5", "bad value for n_modes: invalid literal for int()"),
    ], ids=["no_equals", "not_boolean", "bad_int"])
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# a comment\n{line}\n")
        out = tmp_path / "out"
        assert run_cli("spectrum", "--config", cfg, "--n-modes", 4, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {cfg}:2: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.5\nxi = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("spectrum", "--config", cfg, "--g", 0.125,
                       "--n-modes", 1, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["g"] == 0.125
        assert manifest["config"]["xi"] == 0.25

    def test_every_field_is_a_flag_and_a_key(self, tmp_path):
        # one schema: each RunConfig field parses the same from a flag and a file
        sample = {"float": "0.25", "int": "3", "bool": "true", "str": "x", "tuple": "0.5,1.5"}
        texts = {key: sample[kind] for key, kind in _KINDS.items()}
        texts["jobs"] = "1"  # its one legal value
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()))
        flags = []
        for key, text in texts.items():
            flags.append("--" + key.replace("_", "-"))
            if _KINDS[key] != "bool":
                flags.append(text)
        parser = build_parser()
        from_file = config_from_args(parser.parse_args(["spectrum", "--config", str(cfg)]))
        from_flags = config_from_args(parser.parse_args(["spectrum", *flags]))
        assert from_file == from_flags
        assert from_flags != RunConfig()

    def test_flags_before_the_command(self, tmp_path):
        # one parser: a flag reads the same before or after the command
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["--n-modes", "8", "spectrum", "--out", str(before)]) == 0
        assert main(["spectrum", "--n-modes", "8", "--out", str(after)]) == 0
        assert (before / "spectrum.csv").read_bytes() == (after / "spectrum.csv").read_bytes()

    def test_help_lists_every_flag(self):
        text = build_parser().format_help()
        assert all(f"--{key.replace('_', '-')}" in text for key in _KINDS)
        assert "--config" in text and all(name in text for name in COMMANDS)

    def test_negative_first_list_value_needs_equals(self, tmp_path, capsys):
        # argparse reads "-0.5,0.5" as a flag, so the list has to be joined with "="
        assert run_cli("sweep", "--phi-grid", "-0.5,0.5", "--n-modes", 8, "--t-max", 2,
                       "--samples", 16, "--out", tmp_path / "spaced") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "expected one argument" in err
        assert not (tmp_path / "spaced").exists()
        out = tmp_path / "joined"
        assert run_cli("sweep", "--phi-grid=-0.5,0.5", "--n-modes", 8, "--t-max", 2,
                       "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert floats(rows, 2) == [-0.5, 0.5]
        # a lone value too, unless it is a plain decimal
        assert run_cli("spectrum", "--phi", "-1e-3", "--n-modes", 8,
                       "--out", tmp_path / "exponent") == 1
        assert "expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "exponent").exists()
        assert run_cli("spectrum", "--phi", "-0.001", "--n-modes", 8,
                       "--out", tmp_path / "decimal") == 0

    def test_si_conversion_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("thermal", "--si", "--omega-bar", 4.0e14, "--radius", 1e-6,
                       "--temperature", 300.0, "--g", 4.0e12, "--n-modes", 8,
                       "--samples", 16, "--t-max", 1.0, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        nat = manifest["natural_units"]
        assert nat["omega_bar"] == 1.0
        assert nat["g"] == pytest.approx(0.01)
        assert nat["radius"] == pytest.approx(1.3342563807926082)
        assert nat["beta"] == pytest.approx(HBAR * 4.0e14 / (BOLTZMANN * 300.0), rel=1e-12)
        assert manifest["si_inputs"]["temperature_si"] == 300.0

    def test_each_output_echoes_its_own_si_inputs(self, tmp_path):
        # every point of an SI sweep, and an SI table command, echo their own
        # SI inputs in the CSV's `#` lines and in the manifest
        si = ("--si", "--omega-bar", 4.0e14, "--g", 4.0e12, "--n-modes", 8, "--samples", 16,
              "--t-max", 2)
        sweep, table = tmp_path / "sweep", tmp_path / "thermal"
        assert run_cli("sweep", *si, "--radius-grid", "1e-6,2.5e-6",
                       "--temperature-grid", "300,77", "--out", sweep) == 0
        assert run_cli("thermal", *si, "--radius", 1.5e-6, "--temperature", 4.0,
                       "--out", table) == 0
        expected = {table / "thermal.csv": (4.0e14, 1.5e-6, 4.0)}
        for row in read_csv(sweep / "sweep.csv")[2]:  # temperature and radius of each index
            point = sweep / "points" / f"point_{int(row[0]):04d}" / "dynamics.csv"
            expected[point] = (4.0e14, float(row[4]), float(row[3]))
        assert sorted(inputs[1:] for inputs in expected.values()) == [
            (1e-6, 77.0), (1e-6, 300.0), (1.5e-6, 4.0), (2.5e-6, 77.0), (2.5e-6, 300.0)]
        for csv_path, (omega_bar, radius, temperature) in expected.items():
            metadata = read_csv(csv_path)[0]
            assert [float(metadata[key]) for key in ("omega_bar_si[rad/s]", "radius_si[m]",
                                                     "temperature_si[K]")] \
                == [omega_bar, radius, temperature], csv_path
            manifest = json.loads((csv_path.parent / "manifest.json").read_text())
            assert manifest["si_inputs"] == {"omega_bar_si": omega_bar, "radius_si": radius,
                                             "temperature_si": temperature}, csv_path
        natural = tmp_path / "natural"
        assert run_cli("thermal", "--n-modes", 8, "--samples", 16, "--out", natural) == 0
        assert not any("_si[" in key for key in read_csv(natural / "thermal.csv")[0])
        assert json.loads((natural / "manifest.json").read_text())["si_inputs"] is None

    def test_temperature_in_natural_mode_sets_beta(self):
        run = resolve_natural(RunConfig(temperature=4.0), np.linspace(0.0, 50.0, 2000))
        assert run.beta == pytest.approx(0.25)


class TestSpectrumCommand:
    def test_decoupled_omegas(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--g", 0.0, "--omega-bar", 1.3, "--radius", math.pi,
                       "--n-modes", 3, "--out", out) == 0
        _, columns, rows = read_csv(out / "spectrum.csv")
        assert columns[0].startswith("s[")
        omegas = floats(rows, 1)
        assert omegas == pytest.approx([1.0, 1.3, 2.0, 3.0], abs=1e-12)

    def test_worked_two_by_two(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--g", 0.02, "--radius", math.pi,
                       "--n-modes", 1, "--out", out) == 0
        _, _, rows = read_csv(out / "spectrum.csv")
        assert floats(rows, 1) == pytest.approx([0.9049875621120891, 1.104987562112089],
                                                rel=1e-12)

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_byte_identical_reruns(self, tmp_path, command):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(command, "--n-modes", 32, "--samples", 300, "--out", out) == 0
        csv = f"{command}.csv"
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--n-modes", 8, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["outputs"][0]
        assert entry["file"] == "spectrum.csv"
        assert entry["sha256"] == \
            hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
        assert manifest["convergence"]["eigensolver_residual"] <= 1e-9

    @pytest.mark.parametrize("argv", [
        *((command,) for command in TABLE_COMMANDS),
        ("verify",),
        ("sweep", "--xi-grid", "0.3,0.6", "--radius-grid", "1,2"),
    ], ids=[*TABLE_COMMANDS, "verify", "sweep"])
    def test_every_manifest_checksums_the_files_beside_it(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--n-modes", 8, "--t-max", 2, "--samples", 16,
                       "--out", out) == 0
        manifests = sorted(out.rglob("manifest.json"))
        assert len(manifests) == (5 if argv[0] == "sweep" else 1)
        for path in manifests:
            outputs = json.loads(path.read_text())["outputs"]
            assert [entry["file"] for entry in outputs] == \
                sorted(p.name for p in path.parent.glob("*.csv"))
            for entry in outputs:
                data = (path.parent / entry["file"]).read_bytes()
                assert entry["sha256"] == hashlib.sha256(data).hexdigest()
                assert entry["bytes"] == len(data)


class TestSeriesCommands:
    def test_dynamics_columns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("dynamics", "--n-modes", 16, "--t-max", 10, "--samples", 64,
                       "--out", out) == 0
        _, columns, rows = read_csv(out / "dynamics.csv")
        assert columns == ["t[natural-time]", "survival[probability]", "phase[rad]"]
        assert floats(rows, 1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_entanglement_header_and_t0(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("entanglement", "--xi", 0.5, "--n-modes", 16, "--t-max", 5,
                       "--samples", 32, "--out", out) == 0
        metadata, columns, rows = read_csv(out / "entanglement.csv")
        assert float(metadata["c0"]) == pytest.approx(1.0)
        assert floats(rows, 2)[0] == pytest.approx(1.0, abs=1e-10)  # concurrence at t=0
        assert floats(rows, 3)[0] == pytest.approx(1.0, abs=1e-8)   # eof at t=0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["min_concurrence"] == min(floats(rows, 2))

    def test_density_elements_sum_to_one(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("density", "--xi", 0.3, "--n-modes", 16, "--t-max", 5,
                       "--samples", 32, "--out", out) == 0
        _, _, rows = read_csv(out / "density.csv")
        for row in rows:
            assert sum(float(v) for v in row[1:4]) == pytest.approx(1.0, abs=1e-12)

    def test_small_cavity_min_survival_echoed_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("dynamics", "--radius", 1.0, "--g", 0.01, "--n-modes", 32,
                       "--t-max", 200, "--samples", 2000, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["min_survival"] >= 0.9  # stable regime
        assert "decay_fit" not in manifest  # no fit_window, no fit

    def test_free_space_decay_fit_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("dynamics", "--g", 0.01, "--radius", 100.0 * math.pi, "--n-modes", 200,
                       "--t-max", 100, "--samples", 1000, "--fit-window", "5,80",
                       "--out", out) == 0
        fit = json.loads((out / "manifest.json").read_text())["decay_fit"]
        assert fit["golden_rule_rate"] == math.pi * 0.01
        assert fit["rate"] == pytest.approx(fit["golden_rule_rate"], rel=0.05)
        assert fit["relative_deviation"] == pytest.approx(
            abs(fit["rate"] - fit["golden_rule_rate"]) / fit["golden_rule_rate"], rel=1e-12)
        assert fit["relative_deviation"] < 0.05 and fit["r_squared"] >= 0.999

    @pytest.mark.parametrize("radius, n_modes, t_max", [(1.0, 64, 1000.0),
                                                        (50.0 * math.pi, 100, 300.0)],
                             ids=["small_cavity", "free_space"])
    def test_survival_columns_agree_within_their_rounding(self, tmp_path, radius, n_modes,
                                                          t_max):
        # dynamics.csv squares np.abs(f00) as x * x, entanglement.csv squares
        # hypot(re, im) by libm pow.  Each modulus lies within an ulp of |f_00|
        # (eps relative), so each square of it within 2 eps; the two squarings
        # round by eps/2 and by at most an ulp: 2 * 2 eps + eps/2 + eps apart
        survival = []
        for command in ("dynamics", "entanglement"):
            out = tmp_path / command
            assert run_cli(command, "--radius", radius, "--n-modes", n_modes, "--t-max", t_max,
                           "--samples", 4001, "--out", out) == 0
            survival.append(np.array(floats(read_csv(out / f"{command}.csv")[2], 1)))
        squared_abs, hypot_pow = survival
        assert np.all(np.abs(squared_abs - hypot_pow)
                      <= 5.5 * EPS * np.maximum(squared_abs, hypot_pow))

    def test_failed_decay_fit_is_recorded(self, tmp_path, capsys, monkeypatch):
        # survival that has decayed to zero inside the window has no logarithm
        # to fit; the run records why and keeps its exit code
        table = cli._dynamics_table
        monkeypatch.setattr(cli, "_dynamics_table",
                            lambda run, spectrum, f00:
                            table(run, spectrum, np.where(run.t_grid > 1.0, 0.0, f00)))
        out = tmp_path / "out"
        assert run_cli("dynamics", "--n-modes", 8, "--t-max", 5, "--samples", 50,
                       "--fit-window", "0.5,4", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["decay_fit"] == {"error": "survival is nonpositive inside the fit window"}
        assert manifest["min_survival"] == 0.0
        assert capsys.readouterr().err == ""

    def test_thermal_metadata(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("thermal", "--beta", 2.0, "--n0-init", 1.0, "--n-modes", 16,
                       "--t-max", 5, "--samples", 32, "--out", out) == 0
        metadata, columns, rows = read_csv(out / "thermal.csv")
        assert float(metadata["beta[1/natural-frequency]"]) == 2.0
        assert float(metadata["n0_init"]) == 1.0
        assert columns == ["t[natural-time]", "occupation[quanta]"]
        assert floats(rows, 1)[0] == pytest.approx(1.0, abs=1e-12)


class TestSampleBlocks:
    """`density` and `entanglement` form the closed form, its checks and the
    measures one block of `cli.MEASURE_BLOCK` samples at a time."""

    CONFIG = RunConfig(g=0.05, n_modes=16, xi=0.3, phi=0.7, t_max=40.0, samples=50)
    ARGV = ("--g", 0.05, "--n-modes", 16, "--xi", 0.3, "--phi", 0.7, "--t-max", 40,
            "--samples", 50)

    def test_block_size_moves_no_byte(self, tmp_path, monkeypatch):
        # blocks of 7 samples: T = 50 spans 8 blocks, the last one ragged.  The
        # reference is the whole-stack route: one closed-form stack of every
        # sample, then one measures call on it.
        run = resolve_natural(self.CONFIG, np.linspace(0.0, self.CONFIG.t_max,
                                                   self.CONFIG.samples))
        f00 = amplitudes(dressed_spectrum(run.params), run.t_grid, 0)
        closed = reduced_density_closed(run.state, f00)
        m, rho = measures(closed), closed.matrix
        expected = {
            "entanglement": (run.t_grid, survival_probability(f00), m.concurrence, m.eof,
                             m.negativity),
            "density": (run.t_grid, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 2, 2].real,
                        rho[:, 2, 1].real, rho[:, 2, 1].imag),
        }
        files, default = {}, cli.MEASURE_BLOCK
        for size in (default, 7):
            monkeypatch.setattr(cli, "MEASURE_BLOCK", size)
            for command, reference in expected.items():
                out = tmp_path / f"{command}-{size}"
                assert run_cli(command, *self.ARGV, "--out", out) == 0
                files[command, size] = (out / f"{command}.csv").read_bytes()
                _, _, rows = read_csv(out / f"{command}.csv")
                columns = np.array(rows, dtype=float).T
                assert len(columns) == len(reference)
                for column, whole in zip(columns, reference):
                    assert np.array_equal(column, whole)
        for command in expected:
            assert files[command, 7] == files[command, default]

    @pytest.mark.parametrize("command, modulus, message", [
        # the modulus check of the closed form
        ("density", 1.5, "survival amplitudes must have modulus <= 1, got |f_00|^2=2.25 "
                         "at sample 23"),
        # |f_00|^2 = 1 + 1e-9 passes it, but rho[00,00] = -1e-9 fails positivity
        ("entanglement", 1.0 + 5e-10, "density matrix at sample 23 is not positive "
                                      "semidefinite"),
    ])
    def test_errors_name_the_sample_of_the_series(self, tmp_path, capsys, monkeypatch,
                                                  command, modulus, message):
        # blocks of 7 samples: sample 23 is the third of the fourth block
        monkeypatch.setattr(cli, "MEASURE_BLOCK", 7)

        def broken(spectrum, t, labels=slice(None)):
            f = amplitudes(spectrum, t, labels)
            if labels == 0:
                f[23] = modulus
            return f
        monkeypatch.setattr(cli, "amplitudes", broken)
        out = tmp_path / "out"
        assert run_cli(command, *self.ARGV, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"physics contract violation: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["entanglement", "density"])
    def test_rows_cost_few_bytes_per_sample(self, command):
        # tracemalloc peak of building and rendering the rows at T and at T
        # plus 12 blocks.  The whole-stack route held 640-690 bytes per sample
        # (the complex (T, 4, 4) stack, its Hermiticity temporaries, every
        # column as Python floats).  Blocked, what grows with T is f_00, the
        # float columns, which the rows' zip holds until the body is done, and
        # the rendered body (its buffer, then the string): measured at 189
        # (entanglement) and 310 (density) bytes per sample over these T, so
        # the bound leaves 29% headroom over the larger.
        table = COMMANDS[command]
        peaks = []
        for samples in (2 * cli.MEASURE_BLOCK, 14 * cli.MEASURE_BLOCK):
            run = resolve_natural(self.CONFIG, np.linspace(0.0, self.CONFIG.t_max, samples))
            spectrum = dressed_spectrum(run.params)
            tracemalloc.start()
            try:
                csv_body(table.columns, table.build(run, spectrum).rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (12 * cli.MEASURE_BLOCK) <= 400


class TestPhasePrecision:
    def test_lost_phase_precision_warns_once(self, tmp_path, capsys):
        # Omega*t ~ 1e102 keeps no digit of the phase; the run says so once
        out = tmp_path / "out"
        assert run_cli("dynamics", "--t-max", "1e100", "--samples", 5, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["phase_precision"] > 1e-6
        assert len(manifest["warnings"]) == 1
        assert capsys.readouterr().err == f"warning: {manifest['warnings'][0]}\n"

    @pytest.mark.parametrize("argv", [
        *((command,) for command in TABLE_COMMANDS),
        # acceptance parameters: free-space decay, small-cavity stability, criterion 8 in SI
        ("dynamics", "--radius", 500.0 * math.pi, "--n-modes", 1000, "--t-max", 100),
        ("entanglement", "--radius", 1.0, "--n-modes", 64, "--t-max", 1000),
        ("entanglement", "--si", "--omega-bar", 4.0e14, "--g", 4.0e12, "--radius", 1e-6,
         "--temperature", 300.0, "--n-modes", 64, "--t-max", 20, "--samples", 101),
    ], ids=[*TABLE_COMMANDS, "free_space", "small_cavity", "si_criterion_8"])
    def test_ordinary_runs_do_not_warn(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == []
        assert 0.0 < manifest["convergence"]["phase_precision"] < 1e-6
        assert capsys.readouterr().err == ""

    def test_sweep_warns_once_per_model(self, tmp_path, capsys):
        # 2 models (radius 1 at points 0, 2, 3, 5) at t_max = 1e9: every point
        # manifest lists its model's warning, and stderr says it once a model
        out = tmp_path / "out"
        assert run_cli("sweep", "--radius-grid", "1,2,1", "--temperature-grid", "1,2",
                       "--t-max", "1e9", "--samples", 16, "--n-modes", 8, "--out", out) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
        by_radius = {}
        for index in range(6):
            manifest = json.loads((out / "points" / f"point_{index:04d}" / "manifest.json")
                                  .read_text())
            assert len(manifest["warnings"]) == 1
            by_radius.setdefault(manifest["config"]["radius"], set()).update(
                manifest["warnings"])
        assert [len(warnings) for warnings in by_radius.values()] == [1, 1]
        assert lines == [f"warning: {warning}" for radius in (1.0, 2.0)
                         for warning in by_radius[radius]]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == []


class TestResolutionDiagnostics:
    @pytest.mark.parametrize("g, radius, n_modes, in_ladder", [
        (0.01, 1.0, 32, False),            # small cavity: omega_bar below the first mode pi
        (0.01, 500.0 * math.pi, 1000, True),  # free space: the ladder spans [0.002, 2]
    ], ids=["small_cavity", "free_space"])
    def test_manifest_records_what_the_run_resolved(self, tmp_path, capsys, g, radius,
                                                    n_modes, in_ladder):
        out = tmp_path / "out"
        assert run_cli("dynamics", "--g", g, "--radius", radius, "--n-modes", n_modes,
                       "--t-max", 200, "--samples", 400, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        convergence = manifest["convergence"]
        assert convergence["modes_per_linewidth"] == pytest.approx(g * radius, rel=1e-12)
        assert convergence["omega_bar_in_ladder"] is in_ladder
        assert convergence["recurrence_time"] == 2.0 * radius
        # past 2R the small cavity shows its recurrences, which is what it is run for
        assert manifest["warnings"] == [] and capsys.readouterr().err == ""


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("verify", "--out", out) == 0
        captured = capsys.readouterr()
        assert "VERIFY PASS" in captured.out
        assert captured.err == ""
        _, _, rows = read_csv(out / "verify.csv")
        assert len(rows) == 9  # 3 betas x 3 times
        assert all(row[-1] == "PASS" for row in rows)
        assert max(float(row[2]) for row in rows) < 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == []
        assert 0.0 < manifest["convergence"]["phase_precision"] < 1e-14

    def test_lost_phase_precision_warns(self, tmp_path, capsys):
        # Omega*t ~ 3e100 keeps no digit of the phase, and both routes round
        # it alike, so the cells still pass; the run must say so
        out = tmp_path / "out"
        assert run_cli("verify", "--t-list", "1e100", "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("VERIFY PASS")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["convergence"]["phase_precision"] > 1e-12
        assert len(manifest["warnings"]) == 1
        assert captured.err == f"warning: {manifest['warnings'][0]}\n"

    def test_negative_control_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("verify", "--negative-control", "--out", out) == 2
        assert "VERIFY FAIL" in capsys.readouterr().out
        metadata, _, rows = read_csv(out / "verify.csv")
        assert metadata["weight_scheme"] == "per_level_partition"
        assert any(row[-1] == "FAIL" for row in rows)

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        assert run_cli("verify", "--n-max", 16, "--n-modes-oracle", 3,
                       "--out", tmp_path / "out") == 3
        assert "resource cap" in capsys.readouterr().err

    def test_cap_reach_three_modes(self, tmp_path, capsys):
        # 10^3 = 1000 backgrounds fit under the 1024 cap; 11^3 = 1331 do not
        out = tmp_path / "n9"
        assert run_cli("verify", "--n-modes-oracle", 3, "--n-max", 9, "--out", out) == 0
        _, _, rows = read_csv(out / "verify.csv")
        assert len(rows) == 9 and all(row[-1] == "PASS" for row in rows)
        capsys.readouterr()
        out = tmp_path / "n10"
        assert run_cli("verify", "--n-modes-oracle", 3, "--n-max", 10, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap exceeded:") and "1331" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--t-list", "--beta-list"])
    def test_zero_cells_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run_cli("verify", flag, "", "--out", out) == 1
        captured = capsys.readouterr()
        assert "VERIFY" not in captured.out
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--samples", 10 ** 12), ("--n-modes", 10 ** 76),
                                             ("--samples", 10 ** 19), ("--n-modes", 10 ** 19)],
                             ids=["samples", "n_modes", "samples-past-numpy",
                                  "n_modes-past-numpy"])
    def test_sizes_of_the_configured_model_do_not_enter(self, tmp_path, capsys, flag, value):
        # verify resolves only its oracle model on t_list: a samples-long grid
        # (7.28 TiB at 10^12, which numpy refuses without allocating it; past
        # numpy's largest array at 10^19), a mode span beyond the model's domain
        # cap or a model past the spectral cap is never built
        assert run_cli("verify", "--out", tmp_path / "default") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("verify", flag, value, "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("VERIFY PASS") and captured.err == ""
        assert (out / "verify.csv").read_bytes() == \
            (tmp_path / "default" / "verify.csv").read_bytes()

    @pytest.mark.parametrize("n_modes_oracle, model", [
        (0, ()), (0, ("--radius", -1)), (4, ()), (4, ("--radius", -1))],
        ids=["alone", "bad-model", "four-alone", "four-bad-model"])
    def test_zero_oracle_modes_names_the_key(self, tmp_path, capsys, n_modes_oracle, model):
        # n_modes_oracle is checked before the oracle model is resolved, so a
        # value outside 1..3 is reported as such, also beside a bad model value
        out = tmp_path / "out"
        assert run_cli("verify", "--n-modes-oracle", n_modes_oracle, *model, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == ("physics contract violation: n_modes_oracle must be in 1..3, "
                       f"got {n_modes_oracle}\n")
        assert not out.exists()

    def test_block_size_moves_no_byte(self, tmp_path, capsys, monkeypatch):
        # blocks of 2 samples: the 5 times of t_list span 3 closed-form
        # blocks, the last one ragged
        times = ("--t-list", "0,0.7,3.1,5.5,9.2")
        assert run_cli("verify", *times, "--out", tmp_path / "default") == 0
        monkeypatch.setattr(cli, "MEASURE_BLOCK", 2)
        assert run_cli("verify", *times, "--out", tmp_path / "blocks") == 0
        rows = read_csv(tmp_path / "blocks" / "verify.csv")[2]
        assert [float(row[1]) for row in rows[::3]] == [0.0, 0.7, 3.1, 5.5, 9.2]
        assert (tmp_path / "blocks" / "verify.csv").read_bytes() == \
            (tmp_path / "default" / "verify.csv").read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 32 and out[:16] == out[16:]

    def test_non_finite_beta_list_exits_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("verify", "--beta-list", "nan,1", "--out", out) == 2
        captured = capsys.readouterr()
        assert "VERIFY" not in captured.out
        assert captured.err.startswith("physics contract violation:")
        assert "finite" in captured.err
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize("case", ["out_is_file", "out_below_file", "config_is_directory",
                                      "config_not_utf8"])
    def test_unusable_path_is_usage_error(self, tmp_path, capsys, case):
        existing = tmp_path / "existing"
        existing.write_text("x\n")
        config = tmp_path / "latin1.cfg"
        config.write_bytes("g = 0.01  # \u00b5\n".encode("latin-1"))
        argv = {"out_is_file": ("--out", existing),
                "out_below_file": ("--out", existing / "sub"),
                "config_is_directory": ("--config", tmp_path, "--out", tmp_path / "out"),
                "config_not_utf8": ("--config", config, "--out", tmp_path / "out")}[case]
        assert run_cli("spectrum", "--n-modes", 4, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, verdict", [
        (("verify",), 0),
        (("verify", "--negative-control"), 2),
        (("sweep", "--xi-grid", "0.3,0.6", "--n-modes", 8, "--t-max", 2, "--samples", 16), 0),
    ], ids=["verify", "verify_negative", "sweep"])
    def test_closed_stdout_keeps_the_verdict(self, tmp_path, capsys, monkeypatch, argv, verdict):
        # a reader that exits early (`| head -1`) makes writes to stdout raise
        # BrokenPipeError; the outputs are written and the exit code stays the run's
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = tmp_path / "out"
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert run_cli(*argv, "--out", out) == verdict
            monkeypatch.undo()
        assert capsys.readouterr().err == ""
        assert (out / "manifest.json").exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_physics_violation(self, tmp_path, capsys):
        assert run_cli("spectrum", "--omega-bar", -1.0, "--out", tmp_path / "out") == 2
        assert "physics contract" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("dynamics", "--omega-bar", "nan"),
        ("thermal", "--g", "inf"),
        ("entanglement", "--phi", "nan"),
        ("thermal", "--beta", "nan"),
        ("thermal", "--temperature", "inf"),
        ("thermal", "--n0-init", "nan"),
        ("dynamics", "--t-max", "nan"),
        ("entanglement", "--t-max", "inf"),
        ("verify", "--t-list", "0.7,nan"),
        ("sweep", "--fit-window", "nan,inf"),
        ("sweep", "--xi-grid", "0.5,nan"),
    ])
    def test_non_finite_input_exits_2_without_csv(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert run_cli(command, flag, value, "--n-modes", 8, "--samples", 16,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and "finite" in err
        assert err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize("t_max", ["-5", "0", "1e-151", "1e151"])
    @pytest.mark.parametrize("command", ["spectrum", "dynamics", "density", "entanglement",
                                         "thermal", "verify", "sweep"])
    def test_nonpositive_t_max_exits_2_without_csv(self, tmp_path, capsys, command, t_max):
        out = tmp_path / "out"
        assert run_cli(command, f"--t-max={t_max}", "--xi-grid", "0.5", "--n-modes", 8,
                       "--samples", 16, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and "t_max must lie in" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("verify", ("--t-list", "0.5,1e151")),                # Omega*t could overflow
        ("thermal", ("--temperature", "5e-324")),             # beta = 1/T overflows
        ("thermal", ("--si", "--omega-bar", "1", "--radius", "1",
                     "--temperature", "5e-324")),             # k_B*T underflows
        ("thermal", ("--beta", "5e-324")),                    # nbar ~ 1/(beta*omega) overflows
        ("thermal", ("--n0-init", "1e301")),                  # the weighted sum overflows
        ("verify", ("--beta-list", "1e151")),                 # beta*omega*n could overflow
        ("spectrum", ("--omega-bar", "5e-324", "--g", "5e-324")),  # span/omega_bar overflows
        ("verify", ("--beta-list", "1e-151")),                # below the range rule
    ])
    def test_values_outside_double_range_exit_2(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        assert run_cli(command, *flags, "--n-modes", 8, "--samples", 16, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and err.count("\n") == 1
        assert not out.exists()

    def test_unresolvable_spectrum_names_the_resolution(self, tmp_path, capsys):
        # 1 rad/s in a 1 m sphere puts the modes ~1e9 above omega_bar
        out = tmp_path / "out"
        assert run_cli("spectrum", "--si", "--omega-bar", 1, "--radius", 1, "--n-modes", 2,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and err.count("\n") == 1
        assert "np.float64" not in err
        assert "double-precision resolution eps*max|M|" in err
        assert "the mode span dwarfs omega_bar" in err and "omega_k^2" not in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e162, 1e200])
    def test_underflowing_ladder_names_its_squares(self, tmp_path, capsys, radius):
        # delta_omega^2 is below 1e-150: at R = 1e162 the squares are subnormal
        # and keep a few bits, at R = 1e200 they underflow to 0
        out = tmp_path / "out"
        assert run_cli("dynamics", "--radius", radius, "--n-modes", 8, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and err.count("\n") == 1
        assert "delta_omega^2 must lie in [1e-150, 1e+150]" in err
        assert not out.exists()

    def test_unresolved_ladder_names_its_squares(self, tmp_path, capsys):
        # at R = 1e19 the square d_1 = 9.9e-38 lies inside the squared range but
        # below eps*max|M| = 1.4e-37, and the lowest eigenvalue (omega_bar^2 d_1 / a,
        # about 1.6e-133) comes out 0; no span dwarfs anything
        out = tmp_path / "out"
        assert run_cli("spectrum", "--omega-bar", 1e-59, "--g", 0.001, "--radius", 1e19,
                       "--n-modes", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and err.count("\n") == 1
        assert "eps*max|M| = 1.4e-37: the squared mode frequencies omega_k^2 fall below it" in err
        assert "dwarfs" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, line", [
        (("--omega-bar", "5.723102760478449e-29", "--g", "3.8214964719660635e+47",
          "--radius", "1.7093685461432977e-62", "--n-modes", "3"), 2,
         "physics contract violation: lowest squared frequency"),
        (("--omega-bar", "2.8861534134200247e+62", "--g", "3.0958675620496877e+41",
          "--radius", "2.6919333974724982e-61", "--n-modes", "2"), 0,
         "warning: phase precision"),
    ], ids=["three_modes", "two_modes"])
    def test_overflowing_secular_solve_prints_one_line(self, tmp_path, capsys, flags, code,
                                                       line):
        # entries near 1e78 overflow the unscaled solve's starts and steps; the
        # exactly rescaled solve warns nothing, names the real cause of the first
        # model and solves the second, whose only line is its phase warning
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectrum", *flags, "--out", out) == code
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        if code:
            assert "the mode span dwarfs omega_bar" in err and "did not converge" not in err
            assert not out.exists()
        else:
            residual = json.loads((out / "manifest.json").read_text())["convergence"][
                "eigensolver_residual"]
            assert residual <= 4.0 * EPS

    @pytest.mark.parametrize("flags", [("--g", "1e20"), ("--g", "0.01", "--radius", "3e10")],
                             ids=["strong", "fine_ladder"])
    def test_spacing_within_the_deflation_tolerance_is_named(self, tmp_path, capsys, flags):
        # the ladder ascends, but tol = 8 eps max|M| exceeds its coupled spacings
        out = tmp_path / "out"
        assert run_cli("spectrum", *flags, "--n-modes", 64, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation: the smallest coupled mode spacing ")
        assert "within the deflation tolerance 8*eps*max|M|" in err and err.count("\n") == 1
        assert "ascend" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [(), ("--omega-bar", "4e14"), ("--radius", "1e-6"),
                                       ("--omega-bar", "4e14", "--radius-grid", "")])
    def test_si_without_both_scales_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--si", *flags, "--n-modes", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--omega-bar" in err and "--radius" in err
        assert not out.exists()

    def test_si_scales_from_config_file_or_radius_grid(self, tmp_path):
        cfg = tmp_path / "si.cfg"
        cfg.write_text("si = true\nomega_bar = 4.0e14\nradius = 1e-6\n")
        assert run_cli("spectrum", "--config", cfg, "--n-modes", 2,
                       "--out", tmp_path / "file") == 0
        assert run_cli("sweep", "--si", "--omega-bar", 4.0e14, "--radius-grid", "1e-6,2e-6",
                       "--g", 4.0e12, "--n-modes", 2, "--t-max", 2, "--samples", 16,
                       "--out", tmp_path / "sweep") == 0

    def test_spectral_cap_exits_3_without_output(self, tmp_path, capsys, monkeypatch):
        # 65^2 doubles of components are 33800 bytes, over a 32 KiB cap
        monkeypatch.setattr(spectral, "SPECTRAL_BYTES_CAP", 1 << 15)
        out = tmp_path / "out"
        assert run_cli("spectrum", "--n-modes", 64, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap exceeded:") and err.count("\n") == 1
        assert not out.exists()
        assert run_cli("spectrum", "--n-modes", 63, "--out", out) == 0

    def test_spectral_cap_is_a_sweep_error_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "SPECTRAL_BYTES_CAP", 1 << 15)
        calls = count_calls(monkeypatch, "_pipeline", "build_coupling_matrix")
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.3,0.6", "--n-modes", 64, "--t-max", 2,
                       "--samples", 16, "--out", out) == 2
        _, _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 and all("MiB cap" in row[-1] for row in rows)
        # both points report the one failed stage, refused before the model is built
        assert calls == {"_pipeline": 1, "build_coupling_matrix": 0}

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type "
         "float64", "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and "
                    "data type float64"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_3_without_csv(self, tmp_path, capsys, monkeypatch, message,
                                              line):
        # the backstop for a size no cap bounds yet, such as --samples 1000000000000
        def exhausted(config, t_grid):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "resolve_natural", exhausted)
        out = tmp_path / "out"
        assert run_cli("dynamics", "--out", out) == 3
        assert capsys.readouterr().err == f"resource cap exceeded: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("dynamics", "--samples", 10 ** 19), ("spectrum", "--n-modes", 10 ** 19),
        ("sweep", "--xi-grid", 0.5, "--samples", 10 ** 19), ("density", "--n-modes", 10 ** 8)],
        ids=["samples", "n_modes", "sweep-samples", "n_modes-1e8"])
    def test_sizes_are_refused_before_any_array(self, tmp_path, capsys, monkeypatch, argv):
        # a grid past numpy's largest array, and a model past the spectral cap,
        # are refused with exit 3 before the grid or the model's arrays exist
        calls = count_calls(monkeypatch, "build_coupling_matrix")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run_cli(*argv, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("resource cap exceeded:") and err.count("\n") == 1
        assert calls == {"build_coupling_matrix": 0} and peak < 1 << 20
        assert not out.exists()

    def test_sweep_records_a_model_past_the_cap_as_error_rows(self, tmp_path, capsys,
                                                            monkeypatch):
        calls = count_calls(monkeypatch, "build_coupling_matrix")
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.3,0.6", "--n-modes", 10 ** 19,
                       "--out", out) == 2
        assert "all 2 sweep points failed" in capsys.readouterr().err
        _, _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 and all("MiB cap" in row[-1] for row in rows)
        assert calls == {"build_coupling_matrix": 0} and not (out / "points").exists()

    @pytest.mark.parametrize("case", sorted(BAD_BETAS))
    @pytest.mark.parametrize("command", [*TABLE_COMMANDS, "verify", "sweep"])
    def test_beta_out_of_range_exits_2(self, tmp_path, capsys, command, case):
        # a table command or verify writes nothing; a sweep writes one error
        # row per point and no point directory
        out = tmp_path / "out"
        argv, message = BAD_BETAS[case]
        code = run_cli(command, *argv, "--xi-grid", "0.3,0.6", "--n-modes", 8, "--t-max", 2,
                       "--samples", 16, "--out", out)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("physics contract violation:")
        assert err.count("\n") == 1
        if command == "sweep":
            _, _, rows = read_csv(out / "sweep.csv")
            assert len(rows) == 2 and all(row[-1].startswith("error:") and message in row[-1]
                                          for row in rows)
            assert not (out / "points").exists()
        else:
            assert message in err
            assert not out.exists()

    @pytest.mark.parametrize("n0_init", ["-1", "1e301"])
    @pytest.mark.parametrize("command", [*TABLE_COMMANDS, "verify", "sweep"])
    def test_n0_init_out_of_range_exits_2_without_output(self, tmp_path, capsys, command,
                                                          n0_init):
        out = tmp_path / "out"
        assert run_cli(command, f"--n0-init={n0_init}", "--xi-grid", "0.3,0.6", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation: n0_init must lie in [0, 1e+300]")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("beta", [1e-150, 1e150])
    def test_thermal_at_the_range_ends_is_finite(self, tmp_path, beta):
        out = tmp_path / "out"
        assert run_cli("thermal", "--beta", beta, "--n0-init", 1e300, "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "thermal.csv")
        occupation = np.array(floats(rows, 1))
        assert len(rows) == 16 and np.all(np.isfinite(occupation))
        assert occupation[0] == pytest.approx(1e300, rel=4.0 * EPS)  # n0_init at t = 0

    def test_zero_temperature_exits_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("thermal", "--temperature", 0, "--n-modes", 8, "--samples", 16,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and "temperature" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("dynamics", "--samples", 0, "--n-modes", 8, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "samples" in err
        assert not out.exists()


class TestSweepCommand:
    def test_temperature_sweep_constant_entanglement_columns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--temperature-grid", "0.5,1.0,2.0", "--n-modes", 16,
                       "--t-max", 5, "--samples", 32, "--out", out) == 0
        _, columns, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        c0 = {row[9] for row in rows}
        min_survival = {row[6] for row in rows}
        assert len(c0) == 1
        assert len(min_survival) == 1  # dynamics cannot depend on temperature
        occ = floats(rows, 10)
        assert occ[0] < occ[1] < occ[2]  # hotter runs hold more quanta

    def test_xi_sweep_concurrence_scaling(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.1,0.5,0.9", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        c0 = floats(rows, 9)
        xis = floats(rows, 1)
        for xi, c in zip(xis, c0):
            assert c == pytest.approx(2.0 * math.sqrt(xi * (1.0 - xi)), rel=1e-12)

    def test_point_artifacts_and_status(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--g-grid", "0.0,0.02", "--temperature", 2.0, "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert all(row[-1] == "ok" for row in rows)
        assert (out / "points" / "point_0000" / "dynamics.csv").exists()
        assert (out / "points" / "point_0001" / "manifest.json").exists()
        # a point writes through the same dynamics command as a standalone run
        # with the sweep's default fit window, [0.05, 0.8] * t_max
        alone = tmp_path / "alone"
        assert run_cli("dynamics", "--g", 0.0, "--temperature", 2.0, "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--fit-window", "0.1,1.6",
                       "--out", alone) == 0
        assert (out / "points" / "point_0000" / "dynamics.csv").read_bytes() == \
            (alone / "dynamics.csv").read_bytes()
        point = json.loads((out / "points" / "point_0000" / "manifest.json").read_text())
        standalone = json.loads((alone / "manifest.json").read_text())
        for manifest in (point, standalone):
            del manifest["config"]["out"], manifest["wall_clock_seconds"]
        assert point == standalone
        assert json.loads((out / "manifest.json").read_text())["models"] == 2

    def test_one_spectral_stage_per_model(self, tmp_path, monkeypatch):
        # xi and temperature leave the model as it is: 2 radii are 2 spectra
        # and 2 decay fits, and each radius makes one occupation pass over
        # both temperatures, which also gives f_00; its phase tables are
        # built twice (the unitarity probe, then that pass) and its dynamics
        # body is rendered once for its six points
        calls = count_calls(monkeypatch, "diagonalize", "occupation_series", "decay_rate_fit",
                            "csv_body")
        passes = []
        for module in (dynamics, thermal):
            def entered(*args, _original=module.amplitude_blocks, **kwargs):
                passes.append(args[0])
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "amplitude_blocks", entered)
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.2,0.5,0.8", "--temperature-grid", "0.5,2.0",
                       "--radius-grid", "1.0,2.0", "--n-modes", 8, "--t-max", 2,
                       "--samples", 16, "--out", out) == 0
        # csv_body: one dynamics body per model, then sweep.csv
        assert calls == {"diagonalize": 2, "occupation_series": 2, "decay_rate_fit": 2,
                         "csv_body": 3}
        assert len(passes) == 4 and len(set(map(id, passes))) == 2
        _, _, rows = read_csv(out / "sweep.csv")
        assert [int(row[0]) for row in rows] == list(range(12))  # index order, not run order
        assert all(row[-1] == "ok" for row in rows)
        for row in rows:  # gamma and r_squared are the point's own dynamics fit
            point = out / "points" / f"point_{int(row[0]):04d}" / "manifest.json"
            fit = json.loads(point.read_text())["decay_fit"]
            assert [float(row[7]), float(row[8])] == [fit["rate"], fit["r_squared"]]
        assert json.loads((out / "manifest.json").read_text())["models"] == 2

        # a radius that repeats: radius 1.0 holds points 0, 2, 3 and 5, not
        # all adjacent, and they still share one spectral stage and one body
        calls.update(dict.fromkeys(calls, 0))
        out = tmp_path / "repeat"
        assert run_cli("sweep", "--temperature-grid", "0.5,2.0", "--radius-grid", "1.0,2.0,1.0",
                       "--n-modes", 8, "--t-max", 2, "--samples", 16, "--out", out) == 0
        assert calls["diagonalize"] == 2
        assert json.loads((out / "manifest.json").read_text())["models"] == 2
        _, _, rows = read_csv(out / "sweep.csv")
        assert [int(row[0]) for row in rows] == list(range(6))
        assert [float(row[4]) for row in rows] == [1.0, 2.0, 1.0, 1.0, 2.0, 1.0]
        bodies = {1.0: set(), 2.0: set()}
        for row in rows:
            text = (out / "points" / f"point_{int(row[0]):04d}" / "dynamics.csv").read_text()
            bodies[float(row[4])].add("".join(line for line in text.splitlines(keepends=True)
                                              if not line.startswith("#")))
        assert [len(shared) for shared in bodies.values()] == [1, 1]
        assert bodies[1.0] != bodies[2.0]

    def test_holds_one_spectrum_at_a_time(self, tmp_path):
        # the (N+1)^2 components of one model (8 MB at N = 1000) are freed
        # before the next model's spectral stage allocates its own
        peaks = []
        tracemalloc.start()
        try:
            for radii in ("100.0", "100.0,200.0"):
                tracemalloc.reset_peak()
                assert run_cli("sweep", "--radius-grid", radii, "--n-modes", 1000,
                               "--t-max", 5, "--samples", 64, "--out", tmp_path / radii) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]

    def test_failed_occupation_fails_only_its_points(self, tmp_path):
        # beta = 1e-301 is below the range rule, so its points fail when they
        # resolve and write nothing; the other temperature of the same model
        # still gives ok rows
        out = tmp_path / "out"
        assert run_cli("sweep", "--temperature-grid", "1.0,1e301", "--xi-grid", "0.3,0.6",
                       "--n-modes", 8, "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        status = {(float(row[1]), float(row[3])): row[-1] for row in rows}
        assert status[0.3, 1.0] == status[0.6, 1.0] == "ok"
        assert status[0.3, 1e301] == ("error: beta must lie in [1e-150, 1e+150], got "
                                      f"{1.0 / 1e301} from temperature 1e+301")
        assert status[0.6, 1e301] == status[0.3, 1e301]
        points = sorted(path.name for path in (out / "points").iterdir())
        assert points == ["point_0000", "point_0002"]

    def test_every_temperature_out_of_range_fails_every_point(self, tmp_path, capsys):
        # beta = 1e-301 and 1e151: no point resolves, so no point writes
        out = tmp_path / "out"
        assert run_cli("sweep", "--temperature-grid", "1e301,1e-151", "--xi-grid", "0.3,0.6",
                       "--n-modes", 8, "--t-max", 2, "--samples", 16, "--out", out) == 2
        _, _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 4
        assert all(row[-1].startswith("error: beta must lie in [1e-150, 1e+150]")
                   and "from temperature" in row[-1] for row in rows)
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation: all 4 sweep points failed")
        assert not (out / "points").exists()
        alone = tmp_path / "alone"
        assert run_cli("dynamics", "--temperature", "1e301", "--n-modes", 8, "--t-max", 2,
                       "--samples", 16, "--out", alone) == 2
        err = capsys.readouterr().err
        assert err == ("physics contract violation: beta must lie in [1e-150, 1e+150], got "
                       f"{1.0 / 1e301} from temperature 1e+301\n")
        assert not alone.exists()

    def test_radius_sweep_crosses_regimes(self, tmp_path):
        # small cavity holds the excitation; free space lets it decay away
        out = tmp_path / "out"
        assert run_cli("sweep", "--radius-grid", f"1.0,{120 * math.pi}", "--n-modes", 400,
                       "--t-max", 300, "--samples", 600, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        min_survival = floats(rows, 6)
        assert min_survival[0] > 0.9
        assert min_survival[1] < 0.05

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_zero_jobs_is_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.5", "--jobs", jobs, "--n-modes", 8,
                       "--samples", 16, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "jobs" in err and "one process" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--fit-window", "5,1"),                          # reversed
        ("--fit-window", "3,3"),                          # empty
        ("--samples", "1"),                               # nothing in either window
        ("--fit-window", "49.99,60", "--samples", "10"),  # one sample in the fit window
    ])
    def test_unusable_window_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("sweep", "--xi-grid", "0.5", "--n-modes", 8, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "window" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_no_grid_is_usage_error(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", tmp_path / "out") == 1
        assert "sweep needs" in capsys.readouterr().err

    def test_all_points_failed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--radius-grid=-1,-2", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 2
        _, _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 and all(row[-1].startswith("error:") for row in rows)
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and err.count("\n") == 1

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "out"
        # radius 0 is invalid; the sweep must record the failure and continue
        assert run_cli("sweep", "--radius-grid", "1.0,-1.0", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert rows[0][-1] == "ok"
        assert rows[1][-1].startswith("error:")


# Edge values every float flag is fuzzed with, beside ordinary ones.
EDGE_FLOATS = (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, -1e-300,
               1e300, -1e300, 1.7976931348623157e308)
NUMBER = st.sampled_from(EDGE_FLOATS) | st.floats(-10.0, 100.0)


def comma_list(min_size, max_size):
    return st.lists(NUMBER, min_size=min_size, max_size=max_size).map(
        lambda values: ",".join(map(repr, values)))


FLOAT_FLAGS = ("omega_bar", "g", "radius", "xi", "phi", "beta", "temperature", "n0_init",
               "t_max")
FLAGS = {
    **{name: NUMBER.map(repr) for name in FLOAT_FLAGS},
    "n_modes": st.integers(-1, 16).map(str),
    "samples": st.integers(-1, 32).map(str),
    "n_modes_oracle": st.integers(0, 3).map(str),
    "n_max": st.integers(0, 3).map(str),
    "beta_list": comma_list(0, 3),
    "t_list": comma_list(0, 3),
    "fit_window": comma_list(0, 3),
    "si": st.just(None),
    "negative_control": st.just(None),
}
GRIDS = {f"{axis}_grid": comma_list(1, 2) for axis in ("xi", "phi", "temperature", "radius", "g")}


@settings(max_examples=120, deadline=None, phases=CLI_PHASES)
@given(command=st.sampled_from(["spectrum", "dynamics", "density", "entanglement", "thermal",
                                "verify", "sweep"]),
       names=st.lists(st.sampled_from(sorted(FLAGS)), max_size=6, unique=True),
       data=st.data())
def test_fuzzed_cli_exits_cleanly(command, names, data):
    # every input ends in exit 0 with finite tables, or in a documented nonzero exit
    if command == "sweep":
        names += data.draw(st.lists(st.sampled_from(sorted(GRIDS)), min_size=1, max_size=2,
                                    unique=True))
    argv = [command]
    for name in names:
        value = data.draw((FLAGS | GRIDS)[name], label=name)
        flag = "--" + name.replace("_", "-")
        argv.append(flag if value is None else f"{flag}={value}")
    if "n_modes" not in names:
        argv.append("--n-modes=8")
    if "samples" not in names:
        argv.append("--samples=16")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, f"--out={out}"])
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert err.getvalue().count("\n") <= 1
            return
        for csv in out.rglob("*.csv"):
            for row in read_csv(csv)[2]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # status text or an empty fit column
                    assert math.isfinite(value), (csv.name, row)


# Values that resolve and never deflate: across the cap, the size alone
# decides the outcome.
CAPPED_FLAGS = {
    "g": st.floats(1e-3, 0.1),
    "radius": st.floats(0.5, 50.0),
    "xi": st.floats(0.0, 1.0),
    "temperature": st.floats(0.1, 10.0),
    "t_max": st.floats(0.5, 50.0),
    "samples": st.integers(5, 32),  # a sweep's fit window then holds 3 samples
}


@settings(max_examples=60, deadline=None, phases=CLI_PHASES)
@given(command=st.sampled_from([*TABLE_COMMANDS, "sweep"]), n_modes=st.integers(32, 96),
       names=st.lists(st.sampled_from(sorted(CAPPED_FLAGS)), max_size=4, unique=True),
       grids=st.lists(st.sampled_from(["xi", "temperature", "radius", "g"]), min_size=1,
                      max_size=2, unique=True),
       data=st.data())
def test_fuzzed_sizes_across_the_spectral_cap(command, n_modes, names, grids, data):
    # with the cap at 32 KiB, (n_modes + 1)^2 doubles of components exceed it
    # from n_modes = 64 on, and are refused before they are allocated
    argv = [command, f"--n-modes={n_modes}"]
    if "samples" not in names:
        argv.append("--samples=16")
    for name in names:
        argv.append(f"--{name.replace('_', '-')}={data.draw(CAPPED_FLAGS[name], label=name)!r}")
    if command == "sweep":
        for axis in grids:
            values = data.draw(st.lists(CAPPED_FLAGS[axis], min_size=1, max_size=2), label=axis)
            argv.append(f"--{axis}-grid={','.join(map(repr, values))}")
    capped = 8 * (n_modes + 1) ** 2 > 1 << 15
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(spectral, "SPECTRAL_BYTES_CAP", 1 << 15):
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, f"--out={out}"])
        lines = err.getvalue().splitlines()
        if not capped:
            assert code == 0, lines
            for csv in out.rglob("*.csv"):
                for row in read_csv(csv)[2]:
                    # "" is an unset value (temperature) or a failed decay fit
                    assert all(math.isfinite(float(cell)) for cell in row
                               if cell not in ("", "ok"))
        elif command == "sweep":
            assert code == 2 and len(lines) == 1 and "sweep points failed" in lines[0]
            rows = read_csv(out / "sweep.csv")[2]
            assert rows and all(row[-1].startswith("error:") and "MiB cap" in row[-1]
                                for row in rows)
            assert not (out / "points").exists()
        else:
            assert code == 3 and len(lines) == 1
            assert lines[0].startswith("resource cap exceeded:") and "MiB cap" in lines[0]
            assert not out.exists()


@settings(max_examples=60, deadline=None, phases=CLI_PHASES)
@given(command=st.sampled_from([*TABLE_COMMANDS, "sweep"]),
       n_modes=st.builds(lambda mantissa, exponent: mantissa * 10 ** exponent,
                         st.integers(1, 10), st.integers(0, 399)),
       radius=st.sampled_from([1.0, 1e150, 1e300]))
@example(command="spectrum", n_modes=10 ** 400, radius=1.0)
@example(command="sweep", n_modes=10 ** 400, radius=1.0)
# the largest span^2 inside 1e150 (the cap refuses it), and the next past it
@example(command="spectrum", n_modes=3 * 10 ** 74, radius=1.0)
@example(command="spectrum", n_modes=4 * 10 ** 74, radius=1.0)
# an n_modes past double range at a delta_omega^2 below 1e-150
@example(command="spectrum", n_modes=10 ** 309, radius=1e300)
def test_fuzzed_n_modes_up_to_1e400(command, n_modes, radius):
    # at radius 1e150 and 1e300 delta_omega^2 is below 1e-150, so no model
    # is accepted (exit 2).  At radius 1, with the cap at 32 KiB, only
    # n_modes <= 63 builds a model; a larger one is refused by the cap
    # (exit 3), or, when its mode span^2 is past 1e150, by the squared-
    # frequency limit (exit 2); in a sweep either refusal fills sweep.csv
    # with error rows (exit 2).  Nothing large is allocated.
    argv = [command, f"--n-modes={n_modes}", f"--radius={radius!r}", "--samples=16",
            "--t-max=2"]
    if command == "sweep":
        argv.append("--xi-grid=0.3,0.6")
    built = []

    def counted(params):
        built.append(params.n_modes)
        return build_coupling_matrix(params)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(spectral, "SPECTRAL_BYTES_CAP", 1 << 15), \
            mock.patch.object(cli, "build_coupling_matrix", counted), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        tracemalloc.start()
        try:
            code = main([*argv, f"--out={Path(tmp) / 'out'}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        wrote_sweep = (Path(tmp) / "out" / "sweep.csv").exists()
    text = err.getvalue()
    span = Fraction(n_modes) * Fraction(math.pi / radius)
    assert code in (0, 2, 3)
    assert text == "" or (text.count("\n") == 1 and text.endswith("\n")), text
    assert code == 0 or text, code
    assert (code == 0) == (n_modes <= 63 and radius == 1.0), (code, text)
    assert (code == 3) == (n_modes > 63 and radius == 1.0 and command != "sweep"
                           and span * span <= 10 ** 150), (code, text)
    assert n_modes <= 63 or not built
    if command == "sweep":
        assert wrote_sweep
    assert peak < 1 << 20


# Tolerances of the dense-reference test, in units of u = eps * (1 + Omega_max * t_max),
# the rounding of the largest phase Omega * t.  Against a 40-digit mpmath eigensolve
# and sum on 320 models drawn from the test's ranges, `_refined_eigh` gave correctly
# rounded eigenvalues and eigenvector entries within eps/4, and the reference's
# f_0nu(t) lay within 0.89 u of the exact amplitudes.  Each route may err by twice
# that, 2 u, so the two f_0nu may differ by 4 u; a column may then differ by 4 u times
# its sensitivity to f below.  The phase is compared modulo 2 pi as the chord
# |f_00| |e^{i phase} - e^{i phase_ref}|, at most 2 |df_00|; the occupation's
# sensitivity is 2 sum_nu w_nu.
AMPLITUDE_TOLERANCE = 4.0
COLUMN_SENSITIVITY = {
    "s[index]": 0.0,  # the same range on both sides
    "t[natural-time]": 0.0,  # the same linspace on both sides
    "survival[probability]": 2.0,  # |d|f|^2| <= 2 |df|
    "phase[rad]": 2.0,
    "rho_00_00[probability]": 2.0,
    "rho_01_01[probability]": 2.0,
    "rho_10_10[probability]": 2.0,
    "re_rho_10_01[dimensionless]": 1.0,  # sqrt(xi (1 - xi)) <= 1/2
    "im_rho_10_01[dimensionless]": 1.0,
    "concurrence[dimensionless]": 2.0,
    "eof[ebits]": 2.0 / math.log(2.0),  # dEoF/dC <= 1/ln 2
    "negativity[dimensionless]": 4.0,  # d/drho00 in [-1, 0], d/d|rho[10,01]| <= 2
    "occupation[quanta]": 2.0,  # times sum_nu w_nu
}
# The `spectrum` columns hold the secular solver's normwise accuracy: a border entry
# at or below 8 eps max|M| deflates, which may move an eigenvalue lam_s by about
# 8 eps lam_max and a component by 8 eps lam_max / gap_s, gap_s the distance to the
# nearest other eigenvalue.  On 8000 models from the test's ranges of N and R, g drawn
# so that a share of them deflate some entries, the worst deviations from
# `_refined_eigh` were 3.6 eps (lam_max / (2 Omega_s) + Omega_s) for Omega_s (a
# relative 1024 eps near a deflated entry) and 7.9 eps lam_max / gap_s for t_0^s;
# each bound below is about twice that.
OMEGA_TOLERANCE = 8.0
COMPONENT_TOLERANCE = 16.0


def component_bounds(lam):
    """The bound on each t_0^s of the eigenvalues lam: 16 eps lam_max / gap_s."""
    gap = np.min(np.abs(lam[:, None] - lam) + np.diag(np.full(lam.size, np.inf)), axis=1)
    with np.errstate(divide="ignore"):  # a degenerate pair leaves its components free
        return COMPONENT_TOLERANCE * EPS * lam[-1] / gap


def two_ragged_blocks(size):
    """A block width that cuts range(size), size >= 3, into two blocks, the last shorter."""
    return size // 2 + 1


def sweep_number(text):
    """A `sweep.csv` result cell: None when empty."""
    return float(text) if text else None


@settings(phases=CLI_PHASES)
@given(n_modes=st.integers(4, 24), samples=st.integers(3, 48), g=st.floats(0.0, 0.5),
       radius=st.floats(0.5, 100.0), t_max=st.floats(0.5, 50.0), xi=st.floats(0.0, 1.0),
       phi=st.floats(-10.0, 10.0), beta=st.floats(0.05, 20.0), n0_init=st.floats(0.0, 10.0),
       window=st.tuples(st.floats(0.0, 0.5), st.floats(0.1, 1.0)),
       temperatures=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)))
def test_every_table_column_matches_the_dense_reference(n_modes, samples, g, radius, t_max,
                                                        xi, phi, beta, n0_init, window,
                                                        temperatures):
    # the time series and the measures run in two sample blocks, and the residual
    # and (when no border entry deflates) the secular solve in two blocks of rows,
    # each time with a ragged last one
    params = ModelParams(1.0, g, radius, n_modes)
    t = np.linspace(0.0, t_max, samples)
    f00, reference = dense_reference(params, xi, phi, beta, n0_init, t)
    omega = reference["Omega_s[natural-frequency]"]
    lam = omega ** 2
    tolerance = AMPLITUDE_TOLERANCE * EPS * (1.0 + omega[-1] * t_max)
    bounds = {name: sensitivity * tolerance for name, sensitivity in COLUMN_SENSITIVITY.items()}
    bounds["occupation[quanta]"] *= float(np.sum(occupation_weights(params, beta, n0_init)))
    bounds["Omega_s[natural-frequency]"] = OMEGA_TOLERANCE * EPS * (lam[-1] / (2.0 * omega)
                                                                    + omega)
    bounds["t_0_s[dimensionless]"] = component_bounds(lam)
    lo, hi = window[0] * t_max, min(window[0] + window[1], 1.0) * t_max
    argv = [f"--n-modes={n_modes}", f"--samples={samples}", f"--g={g!r}", f"--radius={radius!r}",
            f"--t-max={t_max!r}", f"--xi={xi!r}", f"--phi={phi!r}", f"--beta={beta!r}",
            f"--n0-init={n0_init!r}", f"--fit-window={lo!r},{hi!r}"]
    width, rows = two_ragged_blocks(samples), two_ragged_blocks(n_modes + 1)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dynamics, "BLOCK_ELEMENTS", width * (n_modes + 1)), \
            mock.patch.object(spectral, "BLOCK_ELEMENTS", rows * (n_modes + 1)), \
            mock.patch.object(cli, "MEASURE_BLOCK", width):
        for command in TABLE_COMMANDS:
            out = Path(tmp) / command
            assert main([command, *argv, f"--out={out}"]) == 0
            _, columns, table = read_csv(out / f"{command}.csv")
            for name, got in zip(columns, np.array(table, dtype=float).T):
                want = reference[name]
                if name == "phase[rad]":
                    got, want = (np.abs(f00) * np.exp(1j * phase) for phase in (got, want))
                deviation = np.abs(got - want)
                assert np.all(deviation <= bounds[name]), \
                    (command, name, float(np.max(deviation / bounds[name])))

        # the decay fit: a least-squares line through the reference's ln S over the
        # window.  Its slope is linear in ln S, so a survival within its bound dS
        # moves the rate by at most max|d ln S| sum|x - mean x| / sum (x - mean x)^2,
        # with |d ln S| <= dS / min S over the window.  Over 3000 drawn examples the
        # worst rate sat at 0.094 of this bound, and the sweep's occupation mean below
        # at 0.55 of the occupation bound.
        fit = json.loads((Path(tmp) / "dynamics" / "manifest.json").read_text())["decay_fit"]
        inside = (t >= lo) & (t <= hi)
        x, survival = t[inside], reference["survival[probability]"][inside]
        if x.size < 3 or np.any(survival <= 0.0):
            assert "error" in fit and "rate" not in fit
        else:
            assert "error" not in fit, fit
            dx, ln_s = x - np.mean(x), np.log(survival)
            rate = -float(dx @ (ln_s - np.mean(ln_s)) / (dx @ dx))
            bound = (bounds["survival[probability]"] / np.min(survival)
                     * np.sum(np.abs(dx)) / (dx @ dx))
            assert abs(fit["rate"] - rate) <= bound, abs(fit["rate"] - rate) / bound

        # a two-point sweep, one model at two temperatures: each point is the
        # standalone `dynamics` run with that point's flags and the sweep's window
        sweep = Path(tmp) / "sweep"
        code = main(["sweep", *argv, f"--out={sweep}",
                     "--temperature-grid=" + ",".join(map(repr, temperatures))])
        if x.size < 3:  # the sweep checks its window before any point runs
            assert code == 1 and not sweep.exists()
            return
        assert code == 0
        _, columns, points = read_csv(sweep / "sweep.csv")
        late = t >= 0.5 * t_max
        for index, (temperature, point) in enumerate(zip(temperatures, points)):
            row = dict(zip(columns, point))
            alone = Path(tmp) / f"dynamics-{index}"
            assert main(["dynamics", *argv, f"--temperature={temperature!r}",
                         f"--out={alone}"]) == 0
            assert ((sweep / "points" / f"point_{index:04d}" / "dynamics.csv").read_bytes()
                    == (alone / "dynamics.csv").read_bytes())
            manifest = json.loads((alone / "manifest.json").read_text())
            shared = json.loads((sweep / "points" / f"point_{index:04d}"
                                 / "manifest.json").read_text())
            for key in ("survival_floor_bound", "survival_time_average"):
                assert shared[key] == manifest[key]
            assert row["status"] == "ok"
            assert float(row["min_survival[probability]"]) == manifest["min_survival"]
            assert sweep_number(row["gamma[natural-frequency]"]) == \
                manifest["decay_fit"].get("rate")
            assert sweep_number(row["r_squared[dimensionless]"]) == \
                manifest["decay_fit"].get("r_squared")
            occupation = dense_reference(params, xi, phi, 1.0 / temperature, n0_init,
                                         t)[1]["occupation[quanta]"]
            weight = float(np.sum(occupation_weights(params, 1.0 / temperature, n0_init)))
            deviation = abs(float(row["occupation_long_time_mean[quanta]"])
                            - float(np.mean(occupation[late])))
            assert deviation <= COLUMN_SENSITIVITY["occupation[quanta]"] * weight * tolerance


@settings(phases=CLI_PHASES)
@given(n_modes=st.integers(1, 48), samples=st.integers(1, 400), t_max=st.floats(0.5, 400.0),
       g=st.one_of(st.floats(0.0, 0.02), st.floats(0.1, 0.5)),
       radius=st.one_of(st.floats(0.5, 3.0), st.floats(20.0, 100.0)))
@example(n_modes=SMALL_CAVITY.n_modes, samples=2001, t_max=1000.0, g=SMALL_CAVITY.g,
         radius=SMALL_CAVITY.radius)
def test_survival_stays_above_its_certified_floor(n_modes, samples, t_max, g, radius):
    # For the solver's own weights w_s the triangle inequality gives
    # |f_00| >= 2 w_max - sum w >= 2 w_max - 1 - |sum w - 1| at every t, and the run's
    # f_00 lies within the amplitude tolerance of that exact sum; the survival moves
    # by at most its sensitivity 2 times the sum of the two.  The infinite-time mean
    # sum w_s^2 moves by at most 4 t^3 per unit of each t_0^s (each within its
    # component bound, and trivially within 1), plus the sum's rounding.
    params = ModelParams(1.0, g, radius, n_modes)
    argv = [f"--n-modes={n_modes}", f"--samples={samples}", f"--g={g!r}",
            f"--radius={radius!r}", f"--t-max={t_max!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("spectrum", "dynamics"):
            assert main([command, *argv, f"--out={Path(tmp) / command}"]) == 0
        _, _, rows = read_csv(Path(tmp) / "spectrum" / "spectrum.csv")
        manifest = json.loads((Path(tmp) / "dynamics" / "manifest.json").read_text())
    _, omega, t0 = np.array(rows, dtype=float).T
    w = t0 ** 2
    tolerance = COLUMN_SENSITIVITY["survival[probability]"] * (
        AMPLITUDE_TOLERANCE * EPS * (1.0 + omega[-1] * t_max) + abs(float(np.sum(w)) - 1.0))
    assert manifest["min_survival"] >= manifest["survival_floor_bound"] - tolerance, \
        (manifest["min_survival"], manifest["survival_floor_bound"], tolerance)

    reference = dense_reference(params, 0.5, 0.0, 1.0, 1.0, np.zeros(1))[1]
    t0_ref = reference["t_0_s[dimensionless]"]
    lam = reference["Omega_s[natural-frequency]"] ** 2
    bound = (4.0 * np.sum(np.maximum(t0, t0_ref) ** 3 * np.minimum(component_bounds(lam), 1.0))
             + (n_modes + 4) * EPS)
    deviation = abs(manifest["survival_time_average"] - float(np.sum(t0_ref ** 4)))
    assert deviation <= bound, (deviation, bound)


# Metamorphic relations: exact symmetries of the model, each checked through `main`
# on small models (N <= 32, T <= 64).  The tolerances are worst-case counts, in eps,
# of the roundings that separate the two runs (the affinity's doubled); over 210
# random configs the largest deviations reached at most a third of them.
SMALL_MODEL = {
    "n_modes": st.integers(1, 32),
    "samples": st.integers(1, 64),
    "g": st.floats(0.0, 0.5),
    "radius": st.floats(0.5, 100.0),
    "t_max": st.floats(0.5, 50.0),
}
# A population, at most rho_00_00 = 1 - xi S - (1 - xi) S, takes two products and
# two differences of values <= 1 on each side, 4 u = 2 eps per side.
POPULATION_ROUNDING = 4.0
# The coherence sqrt(xi (1 - xi)) e^{-i phi} S, with sqrt(xi (1 - xi)) <= 1/2: phi and
# -phi are reduced modulo the rounded 2 pi, the negative one with one rounded sum
# (pi eps), and the rounded 2 pi misses 2 pi by under pi eps, so the two phases are
# negatives within 2 pi eps; e^{-i phi} and the four products forming the element
# add 8 eps.
COHERENCE_ROUNDING = 0.5 * (2.0 * math.pi + 8.0)
# Each measure of a 4x4 state of norm <= 1 passes eigh, the products forming
# sqrt(rho) rho~ sqrt(rho) and an svd (the negativity one eigvalsh), each
# backward stable to about n u = 2 eps: 16 eps per side bounds the chain.
MEASURE_ROUNDING = 16.0


def small_model_argv(model):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in model.items()]


def table_columns(command, argv, out):
    """A table command's columns by name, as float arrays, from a run of `main`."""
    assert main([command, *argv, f"--out={out}"]) == 0
    _, names, rows = read_csv(out / f"{command}.csv")
    return dict(zip(names, np.array(rows, dtype=float).reshape(len(rows), len(names)).T))


# The atom swap's column pairs: (column, its partner in the swapped run, sign, bound).
ATOM_SWAP = {
    "density": (("t[natural-time]", "t[natural-time]", 1, "exact"),
                ("rho_00_00[probability]", "rho_00_00[probability]", 1, "population"),
                ("rho_01_01[probability]", "rho_10_10[probability]", 1, "population"),
                ("rho_10_10[probability]", "rho_01_01[probability]", 1, "population"),
                ("re_rho_10_01[dimensionless]", "re_rho_10_01[dimensionless]", 1, "coherence"),
                ("im_rho_10_01[dimensionless]", "im_rho_10_01[dimensionless]", -1,
                 "coherence")),
    "entanglement": tuple((name, name, 1, bound) for name, bound in (
        ("t[natural-time]", "exact"), ("survival[probability]", "exact"),
        ("concurrence[dimensionless]", "concurrence"), ("eof[ebits]", "eof"),
        ("negativity[dimensionless]", "negativity"))),
}


@settings(phases=CLI_PHASES)
@given(model=st.fixed_dictionaries(SMALL_MODEL), xi=st.floats(0.0, 1.0),
       phi=st.floats(-10.0, 10.0))
def test_atom_swap_exchanges_the_populations(model, xi, phi):
    # (xi, phi) -> (1 - xi, -phi) relabels the atoms: rho_01_01 and rho_10_10 trade
    # places, rho_00_00 and the survival stay, and the coherence turns into its
    # conjugate, whose modulus the three measures read.  The swapped run's own
    # 1 - xi may miss xi by an ulp, which shifts a population by at most `shift`
    # and the coherence weight by `weight_shift`, computed as the closed form
    # computes it; near xi = 0 the square root magnifies that ulp.
    swapped = 1.0 - xi
    shift = abs(xi - (1.0 - swapped))
    weight_shift = abs(math.sqrt(xi * (1.0 - xi)) - math.sqrt(swapped * (1.0 - swapped)))
    bounds = {"exact": 0.0, "population": POPULATION_ROUNDING * EPS + shift,
              "coherence": COHERENCE_ROUNDING * EPS + weight_shift}
    # C = 2 |rho[10,01]|; dEoF/dC <= 1/ln 2, plus the binary entropy's rounding on
    # each side; the negativity sqrt(rho00^2 + 4|c|^2) - rho00 has slope at most 1
    # in rho00 and 2 in |c|
    bounds["concurrence"] = 2.0 * MEASURE_ROUNDING * EPS + 2.0 * bounds["coherence"]
    bounds["eof"] = bounds["concurrence"] / math.log(2.0) + 8.0 * EPS
    bounds["negativity"] = (2.0 * MEASURE_ROUNDING * EPS + bounds["population"]
                            + 2.0 * bounds["coherence"])
    argv = small_model_argv(model)
    with tempfile.TemporaryDirectory() as tmp:
        for command, pairs in ATOM_SWAP.items():
            one = table_columns(command, [*argv, f"--xi={xi!r}", f"--phi={phi!r}"],
                                Path(tmp) / f"{command}-one")
            two = table_columns(command, [*argv, f"--xi={swapped!r}", f"--phi={-phi!r}"],
                                Path(tmp) / f"{command}-two")
            assert len(one) == len(pairs)
            for name, partner, sign, bound in pairs:
                deviation = np.abs(one[name] - sign * two[partner])
                assert np.all(deviation <= bounds[bound]), \
                    (command, name, float(np.max(deviation)), bounds[bound])


@settings(phases=CLI_PHASES)
@given(model=st.fixed_dictionaries(SMALL_MODEL), beta=st.floats(0.05, 20.0))
def test_thermal_is_affine_in_n0_init(model, beta):
    # n_0'(t) = |f_00|^2 n0_init + the field's share, so raising n0_init from 1 to
    # 2 adds the survival.  Both occupations contract the same powers |f_0nu|^2,
    # so they differ by exactly |f_00|^2 before rounding.  Each is a dot product
    # of N + 1 nonnegative terms, within (N + 1) u of its value; the difference
    # rounds by u of itself; and the pass's re^2 + im^2 and the `dynamics`
    # survival hypot(re, im)^2 each lie within 3 u of |f_00|^2.  The bound
    # doubles that sum.
    argv = [*small_model_argv(model), f"--beta={beta!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        one, two = (table_columns("thermal", [*argv, f"--n0-init={n0}"],
                                  Path(tmp) / f"thermal-{n0}")["occupation[quanta]"]
                    for n0 in (1, 2))
        survival = table_columns("dynamics", argv, Path(tmp) / "dynamics")[
            "survival[probability]"]
    u = 0.5 * EPS
    bound = 2.0 * ((model["n_modes"] + 1) * u * (one + two) + u * np.abs(two - one)
                   + 6.0 * u * survival)
    deviation = np.abs(two - one - survival)
    assert np.all(deviation <= bound), float(np.max(deviation / bound))


# Power-of-two units: omega_bar and g times 2^k, R, t_max and beta over 2^k.  Each
# scaling is exact in binary floating point while no value leaves the normal range,
# so the coupling matrix scales by exactly 4^k, every frequency by 2^k and every time
# by 2^-k, and the products Omega t and beta omega keep their bits.  |k| <= 64 keeps
# the squared frequencies (at most 4^64 (32 pi / 0.5)^2, about 1e43) and the times
# far inside model.RANGE_LIMIT; a g of 0 or at least 1e-60 stays
# normal through the model's products and the SI conversion.
SCALED_COLUMNS = {"t[natural-time]": -1, "Omega_s[natural-frequency]": 1}
NORMAL_G = st.one_of(st.just(0.0), st.floats(1e-60, 0.5))


@settings(phases=CLI_PHASES)
# libm's pow rounded omega_bar ** 2 here one ulp off its scaled square
@example(model={"n_modes": 1, "samples": 1, "g": 0.5, "radius": 4.0, "t_max": 1.0,
                "omega_bar": 0.6365730206603428, "beta": 1.0, "xi": 0.0, "phi": 0.0}, k=-1)
@given(model=st.fixed_dictionaries(
           {**SMALL_MODEL, "g": NORMAL_G,
            "omega_bar": st.floats(0.3, 3.0), "beta": st.floats(0.05, 20.0),
            "xi": st.floats(0.0, 1.0), "phi": st.floats(-10.0, 10.0)}),
       k=st.integers(-64, 64).filter(bool))
def test_power_of_two_units_keep_every_bit(model, k):
    # Every column is bit-identical to the k = 0 run, but t, which is exactly 2^-k
    # times it, and Omega_s, exactly 2^k times it.  A column that moves means some
    # tolerance in the program is absolute where it should be relative.
    power = {"omega_bar": 1, "g": 1, "radius": -1, "t_max": -1, "beta": -1}
    scaled = {name: math.ldexp(value, power[name] * k) if name in power else value
              for name, value in model.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for command in TABLE_COMMANDS:
            tables = []
            for index, values in enumerate((model, scaled)):
                out = Path(tmp) / f"{command}-{index}"
                assert main([command, *small_model_argv(values), f"--out={out}"]) == 0
                tables.append(read_csv(out / f"{command}.csv")[1:])
            (names, one), (_, two) = tables
            for name, first, second in zip(names, zip(*one), zip(*two)):
                if name in SCALED_COLUMNS:
                    first = tuple(repr(math.ldexp(float(v), SCALED_COLUMNS[name] * k))
                                  for v in first)
                assert first == second, (command, name)


# The SI round trip rounds R four times (R c / omega_si, then R_si omega_si / c), g
# twice (g omega_si, then g_si / omega_si) and beta four times (k_B beta, hbar omega_si
# over it, k_B T_si, hbar omega_si over that; hbar omega_si is one product both ways),
# so each comes back within that many u = eps/2 of its value, to first order.
SI_ROUNDINGS = {"radius": 4, "g": 2, "beta": 4}


@settings(phases=CLI_PHASES)
@given(model=st.fixed_dictionaries(
           {**SMALL_MODEL, "g": NORMAL_G, "beta": st.floats(0.05, 20.0),
            "xi": st.floats(0.0, 1.0), "phi": st.floats(-10.0, 10.0),
            "n0_init": st.floats(0.0, 10.0)}),
       omega_si=st.floats(1e6, 1e18))
def test_si_run_reproduces_the_natural_run(model, omega_si):
    # --si with omega_si, g_si = g omega_si, R_si = R c / omega_si and T_si with
    # hbar omega_si / (k_B T_si) = beta resolves to omega_bar = 1 and to R', g', beta'
    # within SI_ROUNDINGS of R, g, beta.  The two runs then solve coupling matrices M
    # and M' = M + dM.  Each run's f_0nu lies within 2 u_t of its exact value,
    # u_t = eps (1 + Omega_max t_max) as in the dense-reference test, and the exact
    # amplitudes, entries of exp(-i sqrt(M) t), differ by at most
    # |t| ||sqrt(M') - sqrt(M)|| <= |t| ||dM|| / (Omega_0 + Omega_0') (the square root
    # of a positive definite matrix is Lipschitz with that constant).  Each column
    # may then differ by its COLUMN_SENSITIVITY times that, plus its own rounding on
    # both sides, at most the measures' 2 MEASURE_ROUNDING eps; the occupation also by
    # max |dw| over the weights (the |f_0nu|^2 add up to 1) and by its two dot
    # products' (N + 1) u rounding.  Omega_s moves by |dlam_s| / (Omega_s + Omega_s')
    # with |dlam_s| <= ||dM|| (Weyl), t_0^s by sqrt(2) ||dM|| / (gap_s - 2 ||dM||)
    # (Davis-Kahan), each plus the solver's accuracy of the dense-reference test on
    # both sides.
    _, radius_si, temperature_si = si_from_natural(1.0, model["radius"], model["beta"],
                                                   omega_si)
    g_si = model["g"] * omega_si
    omega_bar, radius, beta = natural_from_si(omega_si, radius_si, temperature_si)
    assert omega_bar == 1.0
    u = 0.5 * EPS
    for name, back in (("radius", radius), ("g", g_si / omega_si), ("beta", beta)):
        rounding = SI_ROUNDINGS[name] * u
        assert abs(back - model[name]) <= rounding * (1.0 + rounding) * model[name], name
    n_modes = model["n_modes"]
    natural = ModelParams(1.0, model["g"], model["radius"], n_modes)
    converted = ModelParams(1.0, g_si / omega_si, radius, n_modes)
    change = float(np.linalg.norm(dense(build_coupling_matrix(converted))
                                  - dense(build_coupling_matrix(natural)), 2))
    weights = occupation_weights(natural, model["beta"], model["n0_init"])
    weight_change = float(np.max(np.abs(occupation_weights(converted, beta, model["n0_init"])
                                        - weights)))
    si_model = {**model, "omega_bar": omega_si, "g": g_si, "radius": radius_si,
                "temperature": temperature_si}
    del si_model["beta"]
    with tempfile.TemporaryDirectory() as tmp:
        tables = {command: [table_columns(command, argv, Path(tmp) / f"{command}-{side}")
                            for side, argv in (("natural", small_model_argv(model)),
                                               ("si", ["--si", *small_model_argv(si_model)]))]
                  for command in TABLE_COMMANDS}
    one, two = tables["spectrum"]
    omega, omega_si_run = one["Omega_s[natural-frequency]"], two["Omega_s[natural-frequency]"]
    lam = omega ** 2
    t = tables["dynamics"][0]["t[natural-time]"]
    amplitude = (AMPLITUDE_TOLERANCE * EPS * (1.0 + max(omega[-1], omega_si_run[-1])
                                               * model["t_max"])
                 + np.abs(t) * change / (omega[0] + omega_si_run[0]))
    rounding = 2.0 * MEASURE_ROUNDING * EPS
    bounds = {name: sensitivity * amplitude + rounding
              for name, sensitivity in COLUMN_SENSITIVITY.items()}
    bounds["s[index]"] = bounds["t[natural-time]"] = 0.0  # one range and one linspace
    bounds["occupation[quanta]"] = (COLUMN_SENSITIVITY["occupation[quanta]"] * amplitude
                                    * float(np.sum(weights)) + weight_change
                                    + 2.0 * (n_modes + 1) * u * float(np.sum(weights))
                                    + rounding)
    gap = np.min(np.abs(lam[:, None] - lam) + np.diag(np.full(lam.size, np.inf)), axis=1)
    bounds["Omega_s[natural-frequency]"] = (
        2.0 * OMEGA_TOLERANCE * EPS * (lam[-1] / (2.0 * omega) + omega)
        + change / (omega + omega_si_run))
    with np.errstate(divide="ignore"):
        bounds["t_0_s[dimensionless]"] = np.where(
            gap > 2.0 * change,
            2.0 * COMPONENT_TOLERANCE * EPS * lam[-1] / gap
            + math.sqrt(2.0) * change / (gap - 2.0 * change), np.inf)
    survival = tables["dynamics"][0]["survival[probability]"]
    for command, (one, two) in tables.items():
        for name, got in two.items():
            want = one[name]
            if name == "phase[rad]":
                got, want = (np.sqrt(survival) * np.exp(1j * phase) for phase in (got, want))
            deviation = np.abs(got - want)
            assert np.all(deviation <= bounds[name]), \
                (command, name, float(np.max(deviation / bounds[name])))
