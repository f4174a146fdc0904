"""Seeded workload plans for the dressedcavity benchmark, and the checks that
decide whether each command's outputs are correct.

A plan is a config file plus a fixed list of CLI commands.  The seed only
jitters physical parameters inside each regime; sizes (modes, samples, Fock
truncation, grid shape) are fixed so the cost of a pass does not depend on
the seed.  Checks compare against tolerances, not bytes, so they keep
holding when a later solver change moves the last bits.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `python -m dressedcavity.cli <argv>` run in the work dir."""

    label: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[Path, str], list[str]]  # (output dir, stdout) -> problems


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    config: dict
    commands: tuple[Command, ...]

    @property
    def config_name(self) -> str:
        return _config_name(self.workload)

    def config_text(self) -> str:
        lines = [f"# {self.workload} inputs generated from seed {self.seed}"]
        for key, value in self.config.items():
            text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def _config_name(workload: str) -> str:
    return f"{workload}.cfg"


def _command(plan_name: str, label: str, subcommand: str, check, expect_exit: int = 0,
             extra: tuple[str, ...] = ()) -> Command:
    argv = (subcommand, "--config", _config_name(plan_name), "--out", label) + extra
    return Command(label=label, argv=argv, expect_exit=expect_exit, check=check)


# ----------------------------------------------------------------- readers

def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by dressedcavity; `#` lines skipped."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict[str, np.ndarray]:
    """Numeric columns keyed by name without the [unit] suffix."""
    header, rows = _table(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name.split("[")[0]: data[:, i] for i, name in enumerate(header)}


def _body(path: Path) -> str:
    """CSV text without the metadata lines (which echo per-point inputs)."""
    return "\n".join(line for line in path.read_text(encoding="utf-8").splitlines()
                     if not line.startswith("#"))


def _residual_problems(out: Path, keys=("eigensolver_residual", "unitarity_residual")) -> list[str]:
    convergence = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["convergence"]
    return [f"{out.name}: {key} = {convergence.get(key)!r} > {RESIDUAL_TOL}"
            for key in keys if not convergence.get(key, math.inf) <= RESIDUAL_TOL]


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# --------------------------------------------------------------- workloads

def free_space(seed: int) -> Plan:
    """Golden-rule decay and thermal occupation at N=2000 in the free-space regime."""
    rng = random.Random(seed)
    config = {"g": rng.uniform(0.008, 0.012),
              "radius": 1000.0 * math.pi * rng.uniform(0.99, 1.01),
              "n_modes": 2000, "xi": rng.uniform(0.2, 0.8),
              "phi": rng.uniform(0.0, 2.0 * math.pi), "beta": rng.uniform(0.5, 2.0),
              "n0_init": rng.uniform(0.5, 1.5), "t_max": 100.0, "samples": 2000}
    rate = math.pi * config["g"]

    def check_dynamics(out: Path, stdout: str) -> list[str]:
        problems = _residual_problems(out)
        cols = _columns(out / "dynamics.csv")
        t, survival = cols["t"], cols["survival"]
        _expect(problems, t.size == config["samples"], f"dynamics rows {t.size}")
        _expect(problems, abs(survival[0] - 1.0) <= 1e-12, f"survival(0) = {survival[0]!r}")
        window = (t >= 5.0) & (t <= 80.0)
        x, y = t[window], np.log(survival[window])
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
        _expect(problems, abs(-slope - rate) <= 0.05 * rate,
                f"decay rate {-slope!r} not within 5% of pi*g = {rate!r}")
        _expect(problems, r2 >= 0.999, f"decay fit R^2 = {r2!r} < 0.999")
        return problems

    def check_thermal(out: Path, stdout: str) -> list[str]:
        problems = _residual_problems(out)
        occupation = _columns(out / "thermal.csv")["occupation"]
        _expect(problems, occupation.size == config["samples"], f"thermal rows {occupation.size}")
        _expect(problems, abs(occupation[0] - config["n0_init"]) <= 1e-10,
                f"occupation(0) = {occupation[0]!r}, n0_init = {config['n0_init']!r}")
        return problems

    name = "free_space"
    return Plan(name, seed, config, (
        _command(name, "dynamics", "dynamics", check_dynamics),
        _command(name, "thermal", "thermal", check_thermal)))


def small_cavity(seed: int) -> Plan:
    """Near-frozen survival and concurrence at N=64 with 20000 time samples."""
    rng = random.Random(seed)
    config = {"g": rng.uniform(0.008, 0.010), "radius": rng.uniform(0.9, 1.0),
              "n_modes": 64, "xi": rng.uniform(0.2, 0.8),
              "phi": rng.uniform(0.0, 2.0 * math.pi), "beta": rng.uniform(0.5, 2.0),
              "t_max": 1000.0, "samples": 20000}
    c0 = 2.0 * math.sqrt(config["xi"] * (1.0 - config["xi"]))

    def check_entanglement(out: Path, stdout: str) -> list[str]:
        problems = _residual_problems(out)
        cols = _columns(out / "entanglement.csv")
        survival, concurrence = cols["survival"], cols["concurrence"]
        _expect(problems, survival.size == config["samples"], f"entanglement rows {survival.size}")
        _expect(problems, survival.min() >= 0.95, f"min survival {survival.min()!r} < 0.95")
        deviation = float(np.max(np.abs(concurrence - c0 * survival)))
        _expect(problems, deviation <= 1e-10, f"concurrence off 2 sqrt(xi(1-xi)) S by {deviation!r}")
        return problems

    def check_density(out: Path, stdout: str) -> list[str]:
        problems = _residual_problems(out)
        cols = _columns(out / "density.csv")
        trace = cols["rho_00_00"] + cols["rho_01_01"] + cols["rho_10_10"]
        _expect(problems, trace.size == config["samples"], f"density rows {trace.size}")
        deviation = float(np.max(np.abs(trace - 1.0)))
        _expect(problems, deviation <= 1e-12, f"density trace off 1 by {deviation!r}")
        return problems

    name = "small_cavity"
    return Plan(name, seed, config, (
        _command(name, "entanglement", "entanglement", check_entanglement),
        _command(name, "density", "density", check_density)))


def oracle_verify(seed: int) -> Plan:
    """Brute-force thermal trace against the closed form, plus the negative control."""
    rng = random.Random(seed)
    config = {"g": rng.uniform(0.008, 0.012), "radius": rng.uniform(0.9, 1.0),
              "xi": rng.uniform(0.2, 0.8), "phi": rng.uniform(0.0, 2.0 * math.pi),
              "n_modes_oracle": 3, "n_max": 3,
              "beta_list": sorted(rng.uniform(0.5, 2.0) for _ in range(3)),
              "t_list": [0.0, rng.uniform(0.5, 2.0), rng.uniform(3.0, 6.0)]}
    cells = len(config["beta_list"]) * len(config["t_list"])

    def check_verify(out: Path, stdout: str) -> list[str]:
        problems = _residual_problems(out, keys=("eigensolver_residual",))
        _, rows = _table(out / "verify.csv")
        statuses = [row[-1] for row in rows]
        _expect(problems, statuses == ["PASS"] * cells, f"verify cells {statuses}")
        _expect(problems, stdout.rstrip().endswith("VERIFY PASS"), "no VERIFY PASS line")
        return problems

    def check_negative(out: Path, stdout: str) -> list[str]:
        return [] if "VERIFY FAIL" in stdout else ["negative control printed no VERIFY FAIL"]

    name = "oracle_verify"
    return Plan(name, seed, config, (
        _command(name, "verify", "verify", check_verify),
        _command(name, "verify_negative", "verify", check_negative, expect_exit=2,
                 extra=("--negative-control",))))


def sweep_shared_spectrum(seed: int) -> Plan:
    """A 3x3 xi x temperature sweep whose nine points share one spectrum."""
    rng = random.Random(seed)
    config = {"g": rng.uniform(0.008, 0.012),
              "radius": 500.0 * math.pi * rng.uniform(0.99, 1.01),
              "n_modes": 1000, "t_max": 100.0, "samples": 2000, "jobs": 1,
              "xi_grid": sorted(rng.uniform(0.2, 0.8) for _ in range(3)),
              "temperature_grid": sorted(1.0 / rng.uniform(0.5, 2.0) for _ in range(3))}
    points = len(config["xi_grid"]) * len(config["temperature_grid"])

    def check_sweep(out: Path, stdout: str) -> list[str]:
        problems = []
        header, rows = _table(out / "sweep.csv")
        col = {name.split("[")[0]: i for i, name in enumerate(header)}
        _expect(problems, len(rows) == points, f"sweep rows {len(rows)}")
        groups: dict[tuple[str, str], set[str]] = {}
        for row in rows:
            _expect(problems, row[col["status"]] == "ok", f"point {row[0]}: {row[col['status']]}")
            xi = float(row[col["xi"]])
            deviation = abs(float(row[col["c0"]]) - 2.0 * math.sqrt(xi * (1.0 - xi)))
            _expect(problems, deviation <= 1e-12, f"point {row[0]}: c0 off by {deviation!r}")
            point = out / "points" / f"point_{int(row[0]):04d}"
            problems += _residual_problems(point)
            key = (row[col["radius"]], row[col["g"]])
            groups.setdefault(key, set()).add(_body(point / "dynamics.csv"))
        _expect(problems, all(len(bodies) == 1 for bodies in groups.values()),
                "dynamics.csv differs between points sharing a spectral key")
        return problems

    name = "sweep_shared_spectrum"
    return Plan(name, seed, config, (_command(name, "sweep", "sweep", check_sweep),))


WORKLOADS = {plan.__name__: plan for plan in
             (free_space, small_cavity, oracle_verify, sweep_shared_spectrum)}
