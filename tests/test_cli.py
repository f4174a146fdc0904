import json
import math

import numpy as np
import pytest

from dressedcavity.cli import RunConfig, main, parse_config_file, resolve_natural
from dressedcavity.model import BOLTZMANN, HBAR
from dressedcavity.reporting import read_csv, sha256_of


def run_cli(*args):
    return main([str(a) for a in args])


def floats(rows, col_index):
    return [float(r[col_index]) for r in rows]


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

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.5\nxi = 0.25\n")
        out = tmp_path / "out"
        assert run_cli("spectrum", "--config", cfg, "--g", 0.125,
                       "--n-modes", 1, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["g"] == 0.125
        assert manifest["config"]["xi"] == 0.25

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

    def test_temperature_in_natural_mode_sets_beta(self):
        run = resolve_natural(RunConfig(temperature=4.0))
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

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("spectrum", "--n-modes", 32, "--out", out) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("spectrum", "--n-modes", 8, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["outputs"][0]
        assert entry["file"] == "spectrum.csv"
        assert entry["sha256"] == sha256_of(out / "spectrum.csv")
        assert manifest["convergence"]["eigensolver_residual"] <= 1e-9


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

    def test_thermal_metadata(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("thermal", "--beta", 2.0, "--n0-init", 1.0, "--n-modes", 16,
                       "--t-max", 5, "--samples", 32, "--out", out) == 0
        metadata, columns, rows = read_csv(out / "thermal.csv")
        assert float(metadata["beta[1/natural-frequency]"]) == 2.0
        assert float(metadata["n0_init"]) == 1.0
        assert columns == ["t[natural-time]", "occupation[quanta]"]
        assert floats(rows, 1)[0] == pytest.approx(1.0, abs=1e-12)


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("verify", "--out", out) == 0
        assert "VERIFY PASS" in capsys.readouterr().out
        _, _, rows = read_csv(out / "verify.csv")
        assert len(rows) == 9  # 3 betas x 3 times
        assert all(row[-1] == "PASS" for row in rows)
        assert max(float(row[2]) for row in rows) < 1e-12

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


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_physics_violation(self, tmp_path, capsys):
        assert run_cli("spectrum", "--omega-bar", -1.0, "--out", tmp_path / "out") == 2
        assert "physics contract" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("dynamics", "--omega-bar", "nan"),
        ("thermal", "--g", "inf"),
        ("entanglement", "--phi", "nan"),
    ])
    def test_non_finite_input_exits_2_without_csv(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert run_cli(command, flag, value, "--n-modes", 8, "--samples", 16,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("physics contract violation:") and "finite" in err
        assert err.count("\n") == 1
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
        assert run_cli("sweep", "--g-grid", "0.0,0.02", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert all(row[-1] == "ok" for row in rows)
        assert (out / "points" / "point_0000" / "dynamics.csv").exists()
        assert (out / "points" / "point_0001" / "manifest.json").exists()

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, 1), (parallel, 2)):
            assert run_cli("sweep", "--radius-grid", "1.0,2.0", "--jobs", jobs,
                           "--n-modes", 8, "--t-max", 2, "--samples", 16,
                           "--out", out) == 0
        assert (serial / "sweep.csv").read_text().splitlines()[3:] == \
            (parallel / "sweep.csv").read_text().splitlines()[3:]

    def test_radius_sweep_crosses_regimes(self, tmp_path):
        # small cavity holds the excitation; free space lets it decay away
        out = tmp_path / "out"
        assert run_cli("sweep", "--radius-grid", f"1.0,{120 * math.pi}", "--n-modes", 400,
                       "--t-max", 300, "--samples", 600, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        min_survival = floats(rows, 6)
        assert min_survival[0] > 0.9
        assert min_survival[1] < 0.05

    def test_no_grid_is_usage_error(self, tmp_path, capsys):
        assert run_cli("sweep", "--out", tmp_path / "out") == 1
        assert "sweep needs" in capsys.readouterr().err

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "out"
        # radius 0 is invalid; the sweep must record the failure and continue
        assert run_cli("sweep", "--radius-grid", "1.0,-1.0", "--n-modes", 8,
                       "--t-max", 2, "--samples", 16, "--out", out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert rows[0][-1] == "ok"
        assert rows[1][-1].startswith("error:")
