"""Command-line front end: config parsing, the physics pipeline, CSV/JSON
artifacts with run manifests, and parameter sweeps.

Subcommands: spectrum, dynamics, density, entanglement, thermal, verify,
sweep.  The first five are `TableCommand` rows of the command table
`COMMANDS` (CSV file, columns, row builder) and share one runner: resolve,
spectral stage (`_pipeline`), rows, CSV, manifest.  `verify` runs the same
spectral stage on the model with `n_modes_oracle` modes.  `sweep` runs the
`dynamics` row at every grid point, after checking once that the shared
time grid holds enough samples for its fit.  `RunConfig` is the one config
schema: file keys and flags are its fields, coerced by `_coerce`; every
float in it is checked finite, and t_max in range, before any output is
written.

Exit codes: 0 success, 1 usage error (including a sweep fit window that
holds fewer than 3 samples), 2 physics-contract violation (including a
failed verify, a non-finite or out-of-range config number and a sweep
whose every point failed), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .density import (EntangledStateSpec, ThermalBathSpec, reduced_density_closed,
                      thermal_trace_oracle)
from .dynamics import SurvivalSeries, amplitudes, decay_rate_fit, survival_series
from .entanglement import family_concurrence, measures
from .errors import DomainError, PhysicsError, ResourceCapError
from .model import ModelParams, build_coupling_matrix, build_mode_ladder, natural_from_si
from .reporting import write_csv, write_manifest
from .spectral import diagonalize
from .thermal import bose_einstein, occupation_series

VERIFY_TOLERANCE = 1e-12
# t_max lies in [1/TIME_LIMIT, TIME_LIMIT] and |t_list| below TIME_LIMIT:
# with the model's squared frequencies capped at 1e150 every phase Omega*t
# stays finite, and the squared times of the decay fit stay normal doubles.
TIME_LIMIT = 1e150

# Fixed sweep axis order; rows follow the cartesian product in this order.
SWEEP_AXES = ("xi", "phi", "temperature", "radius", "g")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """All run inputs.  Values are natural units unless si is set, in which
    case omega_bar is rad/s, radius is meters, and temperature is kelvin."""

    omega_bar: float = 1.0
    g: float = 0.01
    radius: float = 1.0
    n_modes: int = 64
    xi: float = 0.5
    phi: float = 0.0
    beta: float = 1.0
    temperature: float | None = None
    n0_init: float = 1.0
    t_max: float = 50.0
    samples: int = 2000
    fit_window: tuple[float, float] | None = None
    n_modes_oracle: int = 1
    n_max: int = 3
    beta_list: tuple[float, ...] = (0.2, 1.0, 5.0)
    t_list: tuple[float, ...] = (0.0, 0.7, 3.1)
    negative_control: bool = field(default=False, metadata={
        "help": "verify with the deliberately broken bath normalization"})
    si: bool = field(default=False, metadata={
        "help": "interpret omega-bar/radius/temperature as rad/s, m, K"})
    out: str = field(default="runs", metadata={"help": "output directory"})
    jobs: int = field(default=1, metadata={"help": "parallel workers for sweep"})
    xi_grid: tuple[float, ...] | None = None
    phi_grid: tuple[float, ...] | None = None
    temperature_grid: tuple[float, ...] | None = None
    radius_grid: tuple[float, ...] | None = None
    g_grid: tuple[float, ...] | None = None


# Each field's kind, read from its annotation (a string under postponed
# evaluation): float, int, bool, str, or tuple for a comma-separated list.
_KINDS = {f.name: f.type.split(" |")[0].split("[")[0] for f in dataclasses.fields(RunConfig)}


@dataclass(frozen=True)
class NaturalRun:
    """A config resolved to natural units, ready for the physics modules."""

    params: ModelParams
    state: EntangledStateSpec
    beta: float
    n0_init: float
    t_grid: np.ndarray
    si_inputs: dict | None


def resolve_natural(config: RunConfig) -> NaturalRun:
    if config.temperature is not None and config.temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {config.temperature}")
    si_inputs = None
    if config.si:
        converted = natural_from_si(config.omega_bar, config.radius, config.temperature)
        si_inputs = {"omega_bar_si": config.omega_bar, "radius_si": config.radius,
                     "temperature_si": config.temperature}
        omega_bar, radius = converted.omega, converted.radius
        g = config.g / config.omega_bar
        beta = converted.beta if converted.beta is not None else config.beta
    else:
        omega_bar, g, radius = config.omega_bar, config.g, config.radius
        beta = 1.0 / config.temperature if config.temperature is not None else config.beta
    if not math.isfinite(beta):
        raise DomainError(f"temperature {config.temperature} gives a non-finite beta {beta}")
    params = ModelParams(omega_bar=omega_bar, g=g, radius=radius, n_modes=config.n_modes)
    state = EntangledStateSpec(xi=config.xi, phi=config.phi)
    t_grid = np.linspace(0.0, config.t_max, config.samples)
    return NaturalRun(params=params, state=state, beta=beta,
                      n0_init=config.n0_init, t_grid=t_grid, si_inputs=si_inputs)


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` file; `#` starts a comment, lists are comma separated."""
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _KINDS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value.strip(), where=f"{path}:{lineno}")
    return values


def _coerce(key: str, text: str, where: str):
    kind = _KINDS[key]
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind == "tuple":
            return tuple(float(v) for v in text.split(",") if v.strip())
        return text
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key}: {exc}") from None


def _check_finite(config: RunConfig) -> None:
    """Every float of the config, and every list entry, must be finite."""
    for key, kind in _KINDS.items():
        value = getattr(config, key)
        if kind not in ("float", "tuple") or value is None:
            continue
        if not all(math.isfinite(v) for v in (value if kind == "tuple" else (value,))):
            raise DomainError(f"{key} must be finite, got {value}")


def _metadata(run: NaturalRun, extra: dict | None = None) -> dict:
    md = {"omega_bar[natural-frequency]": run.params.omega_bar,
          "g[natural-frequency]": run.params.g,
          "radius[natural-length]": run.params.radius,
          "n_modes": run.params.n_modes,
          "beta[1/natural-frequency]": run.beta}
    if run.si_inputs is not None:
        md.update({"omega_bar_si[rad/s]": run.si_inputs["omega_bar_si"],
                   "radius_si[m]": run.si_inputs["radius_si"],
                   "temperature_si[K]": run.si_inputs["temperature_si"]})
    md.update(extra or {})
    return md


def _pipeline(run: NaturalRun):
    """Shared spectral stage plus the residuals the manifest reports."""
    ladder = build_mode_ladder(run.params)
    matrix = build_coupling_matrix(run.params, ladder)
    spectrum = diagonalize(matrix)
    eig_residual = spectrum.reconstruction_residual(matrix)
    # Unitarity spot check on a coarse subgrid keeps the cost flat in n_modes.
    probe = run.t_grid[:: max(1, run.t_grid.size // 16)]
    amp = amplitudes(spectrum, probe)
    unitarity = float(np.max(np.abs(np.sum(np.abs(amp) ** 2, axis=0) - 1.0)))
    return ladder, spectrum, {
        "n_modes": run.params.n_modes,
        "mode_span_over_omega_bar": ladder.frequencies[-1] / run.params.omega_bar,
        "eigensolver_residual": eig_residual,
        "unitarity_residual": unitarity,
    }


def _write_manifest(out_dir: Path, config: RunConfig, started: float, csv: Path,
                    run: NaturalRun | None = None, convergence: dict | None = None,
                    **fields) -> None:
    """Every command's manifest: the shared header, the natural units and
    convergence of a resolved run, then the command's own fields."""
    payload = {"tool": "dressedcavity", "version": __version__,
               "config": dataclasses.asdict(config)}
    if run is not None:
        payload.update(natural_units={"omega_bar": run.params.omega_bar, "g": run.params.g,
                                      "radius": run.params.radius, "beta": run.beta},
                       si_inputs=run.si_inputs, convergence=convergence)
    payload.update(fields, wall_clock_seconds=time.monotonic() - started)
    write_manifest(out_dir, payload, [csv])


class Table(NamedTuple):
    """A row builder's CSV rows, extra metadata and manifest fields, and the
    survival series behind the `dynamics` rows, which `sweep` fits."""

    rows: Iterable
    metadata: dict | None = None
    manifest: dict | None = None
    series: SurvivalSeries | None = None


@dataclass(frozen=True)
class TableCommand:
    """A command table row: CSV file, columns, `build(run, ladder, spectrum) -> Table`."""

    file: str
    columns: tuple[str, ...]
    build: Callable[..., Table]

    def execute(self, config: RunConfig):
        """resolve -> spectral stage -> rows -> CSV -> manifest; returns
        (run, ladder, spectrum, table) for callers that derive more."""
        started = time.monotonic()
        run = resolve_natural(config)
        out_dir = Path(config.out)
        ladder, spectrum, convergence = _pipeline(run)
        table = self.build(run, ladder, spectrum)
        csv = write_csv(out_dir / self.file, self.columns, table.rows,
                        metadata=_metadata(run, table.metadata))
        _write_manifest(out_dir, config, started, csv, run, convergence, **(table.manifest or {}))
        return run, ladder, spectrum, table

    def __call__(self, config: RunConfig) -> int:
        self.execute(config)
        return 0


def _spectrum_rows(run, ladder, spectrum) -> Table:
    return Table([(s, spectrum.omega_dressed[s], spectrum.components[0, s])
                  for s in range(spectrum.size)])


def _dynamics_rows(run, ladder, spectrum) -> Table:
    series = survival_series(spectrum, run.t_grid)
    return Table(zip(series.t, series.survival, series.phase),
                 manifest={"min_survival": float(np.min(series.survival))}, series=series)


def _density_rows(run, ladder, spectrum) -> Table:
    f00 = amplitudes(spectrum, run.t_grid, 0)
    rows = []
    for t, f in zip(run.t_grid, f00):
        rho = reduced_density_closed(run.state, f, f).matrix
        rows.append((t, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real,
                     rho[2, 1].real, rho[2, 1].imag))
    return Table(rows, {"xi": run.state.xi, "phi": run.state.phi})


def _entanglement_rows(run, ladder, spectrum) -> Table:
    f00 = amplitudes(spectrum, run.t_grid, 0)
    rows = []
    for t, f in zip(run.t_grid, f00):
        m = measures(reduced_density_closed(run.state, f, f))
        rows.append((t, float(abs(f) ** 2), m.concurrence, m.eof, m.negativity))
    return Table(rows, {"xi": run.state.xi, "phi": run.state.phi,
                        "c0": family_concurrence(run.state.xi, 1.0)})


def _thermal_rows(run, ladder, spectrum) -> Table:
    series = occupation_series(spectrum, ladder, run.beta, run.n0_init, run.t_grid)
    return Table(zip(series.t, series.occupation),
                 {"n0_init": run.n0_init,
                  "equilibrium_bose_einstein": bose_einstein(run.params.omega_bar, run.beta)})


def cmd_verify(config: RunConfig) -> int:
    """Brute-force trace vs closed form over the configured beta list.

    Each (beta, t) cell reports the max elementwise deviation from the
    closed form and from the first beta's oracle output; all cells must pass
    at 1e-12 for exit code 0.
    """
    if not config.beta_list or not config.t_list:
        raise UsageError("verify needs at least one value in each of beta_list and t_list")
    started = time.monotonic()
    run = resolve_natural(config)
    out_dir = Path(config.out)
    baths = [ThermalBathSpec(beta=beta, n_max=config.n_max,
                             n_modes_oracle=config.n_modes_oracle)
             for beta in config.beta_list]
    oracle_params = dataclasses.replace(run.params, n_modes=config.n_modes_oracle)
    _, spectrum, convergence = _pipeline(dataclasses.replace(run, params=oracle_params))
    scheme = "per_level_partition" if config.negative_control else "normalized"

    rows = []
    all_pass = True
    for t in config.t_list:
        f00 = amplitudes(spectrum, [t])[0, 0]
        closed = reduced_density_closed(run.state, f00, f00).matrix
        reference: np.ndarray | None = None
        for bath in baths:
            oracle = thermal_trace_oracle(run.state, spectrum, bath, t,
                                          weight_scheme=scheme).matrix
            if reference is None:
                reference = oracle
            dev_closed = float(np.max(np.abs(oracle - closed)))
            dev_cross = float(np.max(np.abs(oracle - reference)))
            ok = dev_closed <= VERIFY_TOLERANCE and dev_cross <= VERIFY_TOLERANCE
            all_pass = all_pass and ok
            rows.append((bath.beta, t, dev_closed, dev_cross, "PASS" if ok else "FAIL"))

    csv = write_csv(out_dir / "verify.csv",
                    ["beta[1/natural-frequency]", "t[natural-time]",
                     "max_dev_vs_closed[dimensionless]", "max_dev_vs_first_beta[dimensionless]",
                     "status"],
                    rows,
                    metadata={"n_modes_oracle": config.n_modes_oracle, "n_max": config.n_max,
                              "weight_scheme": scheme, "tolerance": VERIFY_TOLERANCE,
                              "xi": run.state.xi, "phi": run.state.phi})
    _write_manifest(out_dir, config, started, csv, run, convergence, verify_passed=all_pass)
    for row in rows:
        print(f"beta={row[0]:g} t={row[1]:g} dev_closed={row[2]:.3e} "
              f"dev_cross={row[3]:.3e} {row[4]}")
    print("VERIFY", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 2


def _sweep_point(task) -> tuple:
    """One `sweep.csv` row, in its column order."""
    index, config, window = task
    axes = (index, *(getattr(config, axis) for axis in SWEEP_AXES))
    try:
        run, ladder, spectrum, table = COMMANDS["dynamics"].execute(config)
        occ = occupation_series(spectrum, ladder, run.beta, run.n0_init, run.t_grid)
        long_time = occ.occupation[occ.t >= 0.5 * config.t_max]
        gamma = r_squared = None
        try:
            fit = decay_rate_fit(table.series, window)
            gamma, r_squared = fit.rate, fit.r_squared
        except PhysicsError:
            pass  # recorded as empty columns; not a point failure
        return (*axes, table.manifest["min_survival"], gamma, r_squared,
                family_concurrence(config.xi, 1.0), float(np.mean(long_time)), "ok")
    except (PhysicsError, ResourceCapError) as exc:
        return (*axes, None, None, None, None, None, f"error: {exc}")


def cmd_sweep(config: RunConfig) -> int:
    started = time.monotonic()
    out_dir = Path(config.out)
    grids = {axis: getattr(config, f"{axis}_grid") for axis in SWEEP_AXES}
    active = [(axis, values) for axis, values in grids.items() if values]
    if not active:
        raise UsageError("sweep needs at least one of "
                         + ", ".join(f"{axis}_grid" for axis in SWEEP_AXES))
    # Every point shares this grid.  Its last sample is t_max, so a grid with
    # three samples in the fit window also has one in the long-time window
    # t >= t_max/2 that the occupation mean averages over.
    t = np.linspace(0.0, config.t_max, config.samples)
    lo, hi = window = config.fit_window or (0.05 * config.t_max, 0.8 * config.t_max)
    held = int(np.count_nonzero((t >= lo) & (t <= hi)))
    if held < 3:
        raise UsageError(f"fit window [{lo:g}, {hi:g}] holds {held} of the {t.size} samples "
                         f"on [0, {config.t_max:g}]; the decay fit needs at least 3")
    tasks = []
    for index, combo in enumerate(itertools.product(*(values for _, values in active))):
        point = dataclasses.replace(
            config, out=str(out_dir / "points" / f"point_{index:04d}"),
            **{f"{axis}_grid": None for axis in SWEEP_AXES},
            **{axis: value for (axis, _), value in zip(active, combo)})
        tasks.append((index, point, window))

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    columns = ["index", "xi[dimensionless]", "phi[rad]", "temperature[config-units]",
               "radius[config-units]", "g[config-units]", "min_survival[probability]",
               "gamma[natural-frequency]", "r_squared[dimensionless]", "c0[dimensionless]",
               "occupation_long_time_mean[quanta]", "status"]
    csv = write_csv(out_dir / "sweep.csv", columns, rows,
                    metadata={"axes": ",".join(axis for axis, _ in active),
                              "points": len(tasks), "jobs": config.jobs})
    failures = sum(1 for row in rows if row[-1] != "ok")
    _write_manifest(out_dir, config, started, csv, points=len(tasks), failures=failures)
    print(f"sweep: {len(tasks)} points, {failures} failures -> {csv}")
    if failures == len(tasks):
        print(f"physics contract violation: all {failures} sweep points failed (see {csv})",
              file=sys.stderr)
        return 2
    return 0


COMMANDS = {
    "spectrum": TableCommand("spectrum.csv", ("s[index]", "Omega_s[natural-frequency]",
                                              "t_0_s[dimensionless]"), _spectrum_rows),
    "dynamics": TableCommand("dynamics.csv", ("t[natural-time]", "survival[probability]",
                                              "phase[rad]"), _dynamics_rows),
    "density": TableCommand("density.csv", (
        "t[natural-time]", "rho_00_00[probability]", "rho_01_01[probability]",
        "rho_10_10[probability]", "re_rho_10_01[dimensionless]", "im_rho_10_01[dimensionless]"),
        _density_rows),
    "entanglement": TableCommand("entanglement.csv", (
        "t[natural-time]", "survival[probability]", "concurrence[dimensionless]",
        "eof[ebits]", "negativity[dimensionless]"), _entanglement_rows),
    "thermal": TableCommand("thermal.csv", ("t[natural-time]", "occupation[quanta]"),
                            _thermal_rows),
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """`--config` plus one flag per `RunConfig` field, coerced by `_coerce`."""
    parser.add_argument("--config", type=Path, help="key = value config file")
    for spec in dataclasses.fields(RunConfig):
        flag = "--" + spec.name.replace("_", "-")
        if _KINDS[spec.name] == "bool":
            parser.add_argument(flag, action="store_true", default=None,
                                help=spec.metadata.get("help"))
        else:
            parser.add_argument(flag, type=functools.partial(_coerce, spec.name, where=flag),
                                help=spec.metadata.get("help"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dressedcavity",
                     description="Dressed-atom bipartite entanglement at finite temperature")
    parser.add_argument("--version", action="version", version=f"dressedcavity {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name)
        _add_common_flags(sub)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        if not args.config.exists():
            raise UsageError(f"config file not found: {args.config}")
        values.update(parse_config_file(args.config))
    values.update({key: getattr(args, key) for key in _KINDS
                   if getattr(args, key) is not None})
    config = RunConfig(**values)
    if config.fit_window is not None and (len(config.fit_window) != 2
                                          or config.fit_window[0] >= config.fit_window[1]):
        raise UsageError("fit_window needs exactly two values lo,hi with lo < hi")
    if config.samples < 1:
        raise UsageError(f"samples must be >= 1, got {config.samples}")
    if config.jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {config.jobs}")
    _check_finite(config)
    if not 1.0 / TIME_LIMIT <= config.t_max <= TIME_LIMIT:
        raise DomainError(f"t_max must lie in [{1.0 / TIME_LIMIT:g}, {TIME_LIMIT:g}], "
                          f"got {config.t_max}")
    if any(abs(t) > TIME_LIMIT for t in config.t_list):
        raise DomainError(f"t_list entries must lie within +-{TIME_LIMIT:g}, got {config.t_list}")
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        return COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except PhysicsError as exc:
        print(f"physics contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
