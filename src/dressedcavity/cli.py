"""Command-line front end: config parsing, the physics pipeline, CSV/JSON
artifacts with run manifests, and parameter sweeps.

Commands: spectrum, dynamics, density, entanglement, thermal, verify,
sweep, the keys of the command table `COMMANDS`.  One parser takes the
commands as its positional arguments and one flag per `RunConfig` field,
before or after them.  The first five are `TableCommand` rows (CSV file,
columns, row builder), the keys of `TABLES`; one invocation may name
several of them, each once, in one contiguous list, while `verify` and
`sweep` run alone.  `run_tables` resolves the config once, on the linspace
of `samples` times up to t_max, runs one spectral stage, a `Stage`, builds
every named table from it, then hands each to `TableCommand.write`, which
renders the rows once and ends in the one output step every command ends
with, `_write_outputs`: CSV, then manifest.  One named table writes into
`out`; several write each into `out/<command>/`, and each of those files
equals the one its command writes alone, less the manifest's wall clock
and `config.out`.  A `Stage` holds what `_pipeline` gives (the spectrum,
its convergence and its warnings) and forms the survival amplitude f_00
and the occupation pass over its betas at most once each, on first use;
when it has betas, f_00 comes from that pass, bit for bit the row-0
pass's, so `dynamics thermal` builds one phase table per block beside the
unitarity probe.
`verify` resolves only its oracle model, the config with `n_modes_oracle`
modes, on its `t_list`, and runs `_pipeline` on it; `n_modes` and
`samples` do not enter it.
The spectral stage's `convergence` records what the run resolved: modes
per linewidth pi*g/delta_omega, whether omega_bar lies inside the mode
ladder, the cavity recurrence time 2R, and `phase_precision`, the radians
the phases Omega*t at the largest |t| lose to rounding; above
PHASE_TOLERANCE (above VERIFY_TOLERANCE for `verify`) the run warns on
stderr, once per invocation (a sweep once per model), and in each
manifest's `warnings`, and the exit code does not change.  The
`dynamics`, `density` and `entanglement` rows and `verify`'s closed form
are built from f_00 itself.  `density`, `entanglement` and `verify` read
it through one generator, `_closed_form_blocks`, which yields the
closed-form matrices one block of MEASURE_BLOCK samples at a time; the
closed form is elementwise in f_00, so each table forms its own.
`verify` compares each block's matrices with the oracle's; `density` and
`entanglement` write each block's elements, checks and measures into (T,)
float columns, so no (T, 4, 4) stack is held, and hand their rows to
`csv_body` as a `zip` over those columns, as `dynamics` and `thermal` do,
so no column is ever a T-long list of Python floats.  Every named table
is built before any is written, so a table that fails leaves no output.
When `fit_window` is set, `dynamics` fits the decay rate of the survival
over it and records the fit against the
golden rule pi*g in its manifest's `decay_fit` (the error message when the
fit fails; the exit code does not change); `entanglement` records
`min_concurrence`, as `dynamics` records `min_survival`, and both record
the survival floor that holds at every real t and the infinite-time mean
survival, from the atom weights alone (`_stability_bounds`); `entanglement`
scales the floor by c0 into a concurrence floor.  `sweep` checks
once that the shared time grid holds enough samples for its fit window,
sets that window on every point and resolves every grid point, in index
order, into a dict keyed by its resolved `ModelParams`, then runs one
serial loop over those models.  Each gets one `Stage` over its distinct
betas, whose occupation pass also gives f_00; the `dynamics` table is
built from that stage, and its `decay_fit` fills the gamma and r_squared
columns.  All of the model's points go through one `TableCommand.write`
call, the step a standalone `dynamics` run ends with: the body is
rendered once, and every point writes it and its manifest.
`jobs` is kept only because existing configs set it; 1 is its one legal
value.  `RunConfig` is the one config schema: file keys and flags are its
fields, coerced by `_coerce`; every float in it is checked finite, and
t_max, t_list and n0_init in range, before any output is written; beta is
checked in range when a run resolves (`require_beta`), so in a sweep a
beta out of range fails only its own points.

Exit codes: 0 success, 1 usage error (including a command list that names
`verify` or `sweep` beside another command, a table twice or is split by
flags, a sweep fit window that
holds fewer than 3 samples, --si without both --omega-bar and --radius,
jobs other than 1, an unreadable config file and an output path that
cannot be written; a reader that closes stdout early changes no exit code), 2
physics-contract violation (including a failed verify, a non-finite or
out-of-range config number and a sweep whose every point failed), 3
resource cap exceeded (including a time grid past numpy's largest array, a
model past the spectral cap, refused before its arrays are built, and a
MemoryError, the backstop for a size no cap bounds yet).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .density import (EntangledStateSpec, ThermalBathSpec, reduced_density_closed,
                      survival_probability, thermal_trace_oracle)
from .dynamics import amplitudes, decay_rate_fit, wigner_weisskopf_rate
from .entanglement import family_concurrence, measures
from .errors import DomainError, PhysicsError, ResourceCapError
from .model import RANGE_LIMIT, ModelParams, build_coupling_matrix, natural_from_si, require_beta
from .reporting import csv_body, write_csv, write_manifest
from .spectral import EPS, diagonalize, require_component_budget
from .thermal import (OCCUPATION_LIMIT, OccupationSeries, bose_einstein, occupation_series,
                      occupation_weights)

VERIFY_TOLERANCE = 1e-12
# Radians of phase Omega*t a table command may lose to rounding before it warns.
PHASE_TOLERANCE = 1e-6
# Samples per closed-form block of `density`, `entanglement` and `verify`:
# bounds the (block, 4, 4) closed-form stacks and the LAPACK temporaries of
# `measures` on a long series.  The closed form is elementwise and every
# block is its own eigh/svd batch, so the width moves no bit.
MEASURE_BLOCK = 1024

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
    jobs: int = field(default=1, metadata={
        "help": "1, the only legal value: sweep runs its points in one process"})
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
    """A config resolved to natural units, ready for the physics modules:
    the config it was resolved from, which its consumers read for `n0_init`,
    `fit_window`, `out` and the SI inputs, and what resolution computed from
    it: the model, the state, beta and the caller's time grid."""

    config: RunConfig
    params: ModelParams
    state: EntangledStateSpec
    beta: float
    t_grid: np.ndarray


def resolve_natural(config: RunConfig, t_grid: np.ndarray) -> NaturalRun:
    """The config in natural units, with the time grid the caller built;
    the run carries the config, so it copies no field of it.  beta obeys the
    model's range rule (`require_beta`)."""
    if config.temperature is not None and config.temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {config.temperature}")
    if config.si:
        omega_bar, radius, beta = natural_from_si(config.omega_bar, config.radius,
                                                  config.temperature)
        g = config.g / config.omega_bar
        beta = config.beta if beta is None else beta
    else:
        omega_bar, g, radius = config.omega_bar, config.g, config.radius
        beta = 1.0 / config.temperature if config.temperature is not None else config.beta
    require_beta(beta, config.temperature)
    params = ModelParams(omega_bar=omega_bar, g=g, radius=radius, n_modes=config.n_modes)
    state = EntangledStateSpec(xi=config.xi, phi=config.phi)
    return NaturalRun(config=config, params=params, state=state, beta=beta, t_grid=t_grid)


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` file; `#` starts a comment, lists are comma separated."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    if run.config.si:
        md.update({"omega_bar_si[rad/s]": run.config.omega_bar, "radius_si[m]": run.config.radius,
                   "temperature_si[K]": run.config.temperature})
    md.update(extra or {})
    return md


def _time_grid(config: RunConfig) -> np.ndarray:
    """The `samples` times linspace(0, t_max, samples).  A grid whose bytes
    numpy cannot index, which it refuses with a ValueError before it
    allocates, is a ResourceCapError."""
    try:
        return np.linspace(0.0, config.t_max, config.samples)
    except ValueError as exc:  # samples >= 1 and t_max is finite: only the size is left
        raise ResourceCapError(f"a time grid of {config.samples} samples is larger than the "
                               "largest array numpy can index") from exc


def _pipeline(run: NaturalRun, tolerance: float = PHASE_TOLERANCE,
              consequence: str = "every time series built on the phases is rounding noise"):
    """Shared spectral stage plus the residuals the manifest reports, and a
    warning when the phases on run.t_grid have lost more than `tolerance`.
    A model whose components exceed the spectral cap is refused before its
    O(N) arrays are built."""
    require_component_budget(run.params.n_modes)
    matrix = build_coupling_matrix(run.params)
    spectrum = diagonalize(matrix)
    eig_residual = spectrum.reconstruction_residual(matrix)
    # Unitarity spot check on a coarse subgrid keeps the cost flat in n_modes.
    probe = run.t_grid[:: max(1, run.t_grid.size // 16)]
    amp = amplitudes(spectrum, probe)
    unitarity = float(np.max(np.abs(np.sum(np.abs(amp) ** 2, axis=0) - 1.0)))
    # radians the phases Omega*t lose to rounding at the largest |t|
    phase_precision = float(np.max(np.abs(run.t_grid))) * spectrum.omega_dressed[-1] * EPS
    warnings = []
    if phase_precision > tolerance:
        warnings.append(f"phase precision max|t|*Omega_max*eps = {phase_precision:.3g} rad "
                        f"exceeds {tolerance:g}; {consequence}")
    return spectrum, {
        "n_modes": run.params.n_modes,
        "mode_span_over_omega_bar": run.params.span / run.params.omega_bar,
        "modes_per_linewidth": math.pi * run.params.g / run.params.delta_omega,
        "omega_bar_in_ladder": run.params.delta_omega <= run.params.omega_bar <= run.params.span,
        "recurrence_time": 2.0 * run.params.radius,
        "eigensolver_residual": eig_residual,
        "unitarity_residual": unitarity,
        "phase_precision": phase_precision,
    }, warnings


def _write_outputs(csv: Path, body: str, metadata: dict, config: RunConfig, started: float,
                   run: NaturalRun | None = None, convergence: dict | None = None,
                   warnings: Sequence[str] = (), **fields) -> Path:
    """Every command's output step: the CSV (`body` under the `metadata`
    lines), then beside it the manifest: the shared header, the natural
    units, SI inputs and convergence of a resolved run, the warnings, then
    the command's own fields.  `config` is the one the manifest echoes,
    which for `verify` is not the oracle run's.  The caller that owns the
    run prints the warnings (`_warn`)."""
    write_csv(csv, body, metadata)
    payload = {"tool": "dressedcavity", "version": __version__,
               "config": dataclasses.asdict(config), "warnings": list(warnings)}
    if run is not None:
        si = {"omega_bar_si": run.config.omega_bar, "radius_si": run.config.radius,
              "temperature_si": run.config.temperature}
        payload.update(natural_units={"omega_bar": run.params.omega_bar, "g": run.params.g,
                                      "radius": run.params.radius, "beta": run.beta},
                       si_inputs=si if run.config.si else None, convergence=convergence)
    payload.update(fields, wall_clock_seconds=time.monotonic() - started)
    write_manifest(csv, payload)
    return csv


def _warn(warnings: Sequence[str]) -> None:
    """One stderr line per warning of a run (of a model, in a sweep)."""
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _say(*lines: str) -> None:
    """Print lines on stdout.  A reader that closed the pipe early (`| head`)
    leaves the outputs and the exit code as they are; as the Python docs'
    note on SIGPIPE advises, stdout then points at devnull, so the
    interpreter's final flush stays quiet."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class Stage:
    """One spectral stage of a resolved run, and what the tables build on it.

    `_pipeline` runs once, here: `spectrum`, `convergence` and `warnings`.
    `occupation`, the occupation pass over the weights of `betas` at the
    run's n0_init, and `f00`, f_00 on run.t_grid, are formed at most once
    each, on first use.  With betas, f_00 is the occupation pass's, bit for
    bit the row-0 pass's; without, it is the row-0 pass.  The stage holds
    the spectrum, so a sweep that drops each model's stage holds one at a
    time."""

    def __init__(self, run: NaturalRun, betas: Iterable[float] = ()):
        self.run, self.betas = run, tuple(betas)
        self.spectrum, self.convergence, self.warnings = _pipeline(run)

    @functools.cached_property
    def occupation(self) -> OccupationSeries:
        """One pass: a (len(betas), T) occupation, rows in the order of `betas`, and f_00."""
        run = self.run
        return occupation_series(
            self.spectrum,
            [occupation_weights(run.params, beta, run.config.n0_init) for beta in self.betas],
            run.t_grid)

    @functools.cached_property
    def f00(self) -> np.ndarray:
        if self.betas:
            return self.occupation.f00
        return amplitudes(self.spectrum, self.run.t_grid, 0)


class Table(NamedTuple):
    """A row builder's CSV rows, extra metadata and manifest fields.  The
    rows are read once, by `csv_body`."""

    rows: Iterable
    metadata: dict | None = None
    manifest: dict | None = None


@dataclass(frozen=True)
class TableCommand:
    """A command table row: CSV file, columns, `build(stage) -> Table`."""

    file: str
    columns: tuple[str, ...]
    build: Callable[[Stage], Table]

    def write(self, runs: Iterable[NaturalRun], started: float, table: Table,
              stage: Stage) -> None:
        """Render the table's rows once; write that body under each run's
        metadata, and its manifest with the stage's convergence and
        warnings, in the run's `config.out`."""
        body = csv_body(self.columns, table.rows)
        for run in runs:
            _write_outputs(Path(run.config.out) / self.file, body, _metadata(run, table.metadata),
                           run.config, started, run, stage.convergence, stage.warnings,
                           **(table.manifest or {}))


def run_tables(config: RunConfig, names: Sequence[str]) -> int:
    """resolve -> one `Stage` -> every named table -> each table's `write`,
    into `out` for one name and into `out/<command>/` for several; then the
    stage's warnings, printed once.  The occupation pass runs at the run's
    beta when `thermal` is named."""
    started = time.monotonic()
    run = resolve_natural(config, _time_grid(config))
    stage = Stage(run, (run.beta,) if "thermal" in names else ())
    tables = [TABLES[name].build(stage) for name in names]
    for name, table in zip(names, tables):
        out = run if len(names) == 1 else dataclasses.replace(
            run, config=dataclasses.replace(config, out=str(Path(config.out) / name)))
        TABLES[name].write([out], started, table, stage)
    _warn(stage.warnings)
    return 0


def _spectrum_rows(stage: Stage) -> Table:
    spectrum = stage.spectrum
    return Table([(s, spectrum.omega_dressed[s], spectrum.components[0, s])
                  for s in range(spectrum.size)])


def _decay_fit(run: NaturalRun, survival: np.ndarray) -> dict:
    """The decay rate of the survival on run.t_grid over the config's
    fit_window against the golden rule pi*g, or the message of the
    PhysicsError the fit raised."""
    try:
        rate, r_squared = decay_rate_fit(run.t_grid, survival, run.config.fit_window)
    except PhysicsError as exc:
        return {"error": str(exc)}
    golden = wigner_weisskopf_rate(run.params.g)
    return {"rate": rate, "r_squared": r_squared, "golden_rule_rate": golden,
            "relative_deviation": abs(rate - golden) / golden if golden else None}


def _stability_bounds(spectrum) -> dict:
    """What the atom weights w_s = (t_0^s)^2, which sum to 1, say of the
    survival |f_00(t)|^2 at every real t, with no phase pass: the triangle
    inequality on f_00 = sum_s w_s exp(-i Omega_s t) gives
    |f_00| >= w_max - (1 - w_max), so the floor max(0, 2 w_max - 1)^2, and
    the infinite-time mean of |f_00|^2 is sum_s w_s^2 (a deflated pair has
    t_0^s = 0 and drops out)."""
    w = spectrum.components[0] ** 2
    return {"survival_floor_bound": max(0.0, 2.0 * float(np.max(w)) - 1.0) ** 2,
            "survival_time_average": float(np.sum(w * w))}


def _dynamics_table(stage: Stage) -> Table:
    """The `dynamics` table of the stage's f_00 on run.t_grid: survival
    |f_00|^2 and phase arg f_00, with the survival's minimum, the
    spectrum's `_stability_bounds` and, when the config's fit_window is
    set, the survival's decay fit."""
    run, f00 = stage.run, stage.f00
    survival, phase = np.abs(f00) ** 2, np.angle(f00)
    manifest = {"min_survival": float(np.min(survival)), **_stability_bounds(stage.spectrum)}
    if run.config.fit_window is not None:
        manifest["decay_fit"] = _decay_fit(run, survival)
    return Table(zip(run.t_grid, survival, phase), manifest=manifest)


def _closed_form_blocks(run: NaturalRun, f00: np.ndarray):
    """f_00 on run.t_grid cut into slices of MEASURE_BLOCK samples, the
    last one ragged: yields each slice `block`, f_00[block] and its
    closed-form matrices, whose modulus check names a sample by its index
    in the series."""
    for start in range(0, f00.size, MEASURE_BLOCK):
        block = slice(start, start + MEASURE_BLOCK)
        yield block, f00[block], reduced_density_closed(run.state, f00[block], start)


def _density_rows(stage: Stage) -> Table:
    run = stage.run
    columns = np.empty((5, run.t_grid.size))
    for block, _, closed in _closed_form_blocks(run, stage.f00):
        rho = closed.matrix
        columns[:, block] = (rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 2, 2].real,
                             rho[:, 2, 1].real, rho[:, 2, 1].imag)
    return Table(zip(run.t_grid, *columns), {"xi": run.state.xi, "phi": run.state.phi})


def _entanglement_rows(stage: Stage) -> Table:
    run = stage.run
    columns = np.empty((4, run.t_grid.size))  # survival, concurrence, eof, negativity
    for block, f00, closed in _closed_form_blocks(run, stage.f00):
        m = measures(closed, block.start)
        columns[:, block] = (survival_probability(f00), m.concurrence, m.eof, m.negativity)
    c0, bounds = family_concurrence(run.state.xi, 1.0), _stability_bounds(stage.spectrum)
    # C(t) = c0 |f_00(t)|^2 on the family, so the survival floor scales to a concurrence floor
    return Table(zip(run.t_grid, *columns), {"xi": run.state.xi, "phi": run.state.phi, "c0": c0},
                 {"min_concurrence": float(np.min(columns[1])), **bounds,
                  "concurrence_floor_bound": c0 * bounds["survival_floor_bound"]})


def _thermal_rows(stage: Stage) -> Table:
    run = stage.run
    occupation = stage.occupation.occupation[stage.betas.index(run.beta)]
    return Table(zip(run.t_grid, occupation),
                 {"n0_init": run.config.n0_init,
                  "equilibrium_bose_einstein": bose_einstein(run.params.omega_bar, run.beta)})


def cmd_verify(config: RunConfig) -> int:
    """Brute-force trace vs closed form over the configured beta list.

    The baths (`beta_list`, `n_max`) are checked first, then
    `n_modes_oracle` (1..3), so a bad one of them is named as such beside a
    bad model value; then only the oracle model, the config with
    `n_modes_oracle` modes, is resolved, on the times of `t_list`, so
    `n_modes` and `samples` do not enter, and the oracle traces the modes
    of its spectrum.  The closed form comes from `_closed_form_blocks`.
    Each (beta, t) cell reports the max elementwise deviation from the
    closed form and from the first beta's oracle output; all cells must
    pass at 1e-12 for exit code 0.
    """
    if not config.beta_list or not config.t_list:
        raise UsageError("verify needs at least one value in each of beta_list and t_list")
    started = time.monotonic()
    baths = [ThermalBathSpec(beta=beta, n_max=config.n_max) for beta in config.beta_list]
    if not 1 <= config.n_modes_oracle <= 3:
        raise DomainError(f"n_modes_oracle must be in 1..3, got {config.n_modes_oracle}")
    run = resolve_natural(dataclasses.replace(config, n_modes=config.n_modes_oracle),
                          np.array(config.t_list))
    spectrum, convergence, warnings = _pipeline(
        run, VERIFY_TOLERANCE,
        "both routes share the rounded phases, so their agreement shows nothing")
    scheme = "per_level_partition" if config.negative_control else "normalized"

    rows = []
    for block, _, stack in _closed_form_blocks(run, amplitudes(spectrum, run.t_grid, 0)):
        for t, closed in zip(config.t_list[block], stack.matrix):
            oracles = [thermal_trace_oracle(run.state, spectrum, bath, t,
                                            weight_scheme=scheme).matrix for bath in baths]
            for bath, oracle in zip(baths, oracles):
                dev_closed = float(np.max(np.abs(oracle - closed)))
                dev_cross = float(np.max(np.abs(oracle - oracles[0])))
                ok = dev_closed <= VERIFY_TOLERANCE and dev_cross <= VERIFY_TOLERANCE
                rows.append((bath.beta, t, dev_closed, dev_cross, "PASS" if ok else "FAIL"))
    all_pass = all(row[4] == "PASS" for row in rows)

    _write_outputs(Path(config.out) / "verify.csv",
                   csv_body(["beta[1/natural-frequency]", "t[natural-time]",
                             "max_dev_vs_closed[dimensionless]",
                             "max_dev_vs_first_beta[dimensionless]", "status"], rows),
                   {"n_modes_oracle": config.n_modes_oracle, "n_max": config.n_max,
                    "weight_scheme": scheme, "tolerance": VERIFY_TOLERANCE,
                    "xi": run.state.xi, "phi": run.state.phi},
                   config, started, run, convergence, warnings, verify_passed=all_pass)
    _warn(warnings)
    _say(*(f"beta={row[0]:g} t={row[1]:g} dev_closed={row[2]:.3e} "
           f"dev_cross={row[3]:.3e} {row[4]}" for row in rows),
         "VERIFY " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 2


def _error_row(axes: tuple, exc: Exception) -> tuple:
    """The `sweep.csv` row of a failed point: its axes, empty results, the error."""
    return (*axes, None, None, None, None, None, f"error: {exc}")


def _sweep_model(points: list) -> list:
    """The `sweep.csv` rows of one model's resolved (axes, run) points; each
    run carries its point's config.

    The points share one time grid, run.t_grid, and one n0_init, which is
    no sweep axis.  The model gets one `Stage` over its distinct betas,
    whose occupation means over the late samples t >= t_max/2 fill the
    rows; a resolved beta and n0_init lie in the range rule, so no weight
    vector fails.  The same pass gives f_00, and so the model's `dynamics`
    table, whose decay fit fills the gamma and r_squared columns (empty when
    the fit failed).  One `TableCommand.write` call renders the table once
    and writes each run's `dynamics` CSV and manifest, which lists the
    model's warnings; they are printed once, for the model.  The stage is
    freed on return, so a sweep holds one spectrum at a time.
    """
    started, run = time.monotonic(), points[0][1]
    stage = Stage(run, dict.fromkeys(run.beta for _, run in points))
    late = run.t_grid >= 0.5 * run.t_grid[-1]
    means = {beta: float(np.mean(row[late]))
             for beta, row in zip(stage.betas, stage.occupation.occupation)}
    table = _dynamics_table(stage)
    decay = table.manifest["decay_fit"]
    TABLES["dynamics"].write([run for _, run in points], started, table, stage)
    _warn(stage.warnings)
    return [(*axes, table.manifest["min_survival"], decay.get("rate"), decay.get("r_squared"),
             family_concurrence(run.state.xi, 1.0), means[run.beta], "ok")
            for axes, run in points]


def cmd_sweep(config: RunConfig) -> int:
    """One `sweep.csv` row per grid point.  Every point is resolved first,
    in index order, under its resolved model; then each model's points go
    through one `_sweep_model` call.  A point that does not resolve, a beta
    out of range among them, fails alone and writes nothing under
    `points/`; a model whose stage fails fails each of its points."""
    started = time.monotonic()
    out_dir = Path(config.out)
    active = [(axis, values) for axis in SWEEP_AXES if (values := getattr(config, f"{axis}_grid"))]
    if not active:
        raise UsageError("sweep needs at least one of "
                         + ", ".join(f"{axis}_grid" for axis in SWEEP_AXES))
    # Every point is resolved on this one grid.  Its last sample is t_max, so
    # a grid with three samples in the fit window also has one in the
    # long-time window t >= t_max/2 that the occupation mean averages over.
    t = _time_grid(config)
    lo, hi = window = config.fit_window or (0.05 * config.t_max, 0.8 * config.t_max)
    if (held := int(np.count_nonzero((t >= lo) & (t <= hi)))) < 3:
        raise UsageError(f"fit window [{lo:g}, {hi:g}] holds {held} of the {t.size} samples "
                         f"on [0, {config.t_max:g}]; the decay fit needs at least 3")
    # Each model's points run back to back, so one spectrum is held at a time.
    models: dict[ModelParams, list] = {}
    rows = []
    for index, combo in enumerate(itertools.product(*(values for _, values in active))):
        point = dataclasses.replace(
            config, out=str(out_dir / "points" / f"point_{index:04d}"), fit_window=window,
            **{f"{axis}_grid": None for axis in SWEEP_AXES},
            **{axis: value for (axis, _), value in zip(active, combo)})
        axes = (index, *(getattr(point, axis) for axis in SWEEP_AXES))
        try:
            run = resolve_natural(point, t)
        except PhysicsError as exc:
            rows.append(_error_row(axes, exc))
        else:
            models.setdefault(run.params, []).append((axes, run))
    for points in models.values():
        try:
            rows.extend(_sweep_model(points))
        except (PhysicsError, ResourceCapError) as exc:
            rows.extend(_error_row(axes, exc) for axes, _ in points)

    columns = ["index", "xi[dimensionless]", "phi[rad]", "temperature[config-units]",
               "radius[config-units]", "g[config-units]", "min_survival[probability]",
               "gamma[natural-frequency]", "r_squared[dimensionless]", "c0[dimensionless]",
               "occupation_long_time_mean[quanta]", "status"]
    failures = sum(1 for row in rows if row[-1] != "ok")
    csv = _write_outputs(out_dir / "sweep.csv", csv_body(columns, sorted(rows)),  # index order
                         {"axes": ",".join(axis for axis, _ in active), "points": len(rows)},
                         config, started, points=len(rows), failures=failures,
                         models=len(models))
    _say(f"sweep: {len(rows)} points, {failures} failures -> {csv}")
    if failures == len(rows):
        print(f"physics contract violation: all {failures} sweep points failed (see {csv})",
              file=sys.stderr)
        return 2
    return 0


TABLES = {
    "spectrum": TableCommand("spectrum.csv", ("s[index]", "Omega_s[natural-frequency]",
                                              "t_0_s[dimensionless]"), _spectrum_rows),
    "dynamics": TableCommand("dynamics.csv", ("t[natural-time]", "survival[probability]",
                                              "phase[rad]"), _dynamics_table),
    "density": TableCommand("density.csv", (
        "t[natural-time]", "rho_00_00[probability]", "rho_01_01[probability]",
        "rho_10_10[probability]", "re_rho_10_01[dimensionless]", "im_rho_10_01[dimensionless]"),
        _density_rows),
    "entanglement": TableCommand("entanglement.csv", (
        "t[natural-time]", "survival[probability]", "concurrence[dimensionless]",
        "eof[ebits]", "negativity[dimensionless]"), _entanglement_rows),
    "thermal": TableCommand("thermal.csv", ("t[natural-time]", "occupation[quanta]"),
                            _thermal_rows),
}
COMMANDS = {**TABLES, "verify": cmd_verify, "sweep": cmd_sweep}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The commands, `--config` and one flag per `RunConfig` field, coerced
    by `_coerce`; flags may come before or after the commands, which form
    one contiguous list."""
    parser = _Parser(prog="dressedcavity",
                     description="Dressed-atom bipartite entanglement at finite temperature")
    parser.add_argument("--version", action="version", version=f"dressedcavity {__version__}")
    parser.add_argument("command", nargs="+", choices=COMMANDS)
    parser.add_argument("--config", type=Path, help="key = value config file")
    for spec in dataclasses.fields(RunConfig):
        flag = "--" + spec.name.replace("_", "-")
        if _KINDS[spec.name] == "bool":
            parser.add_argument(flag, action="store_true", default=None,
                                help=spec.metadata.get("help"))
        else:
            parser.add_argument(flag, type=functools.partial(_coerce, spec.name, where=flag),
                                help=spec.metadata.get("help"))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    values.update({key: getattr(args, key) for key in _KINDS
                   if getattr(args, key) is not None})
    # the defaults are natural units; read as 1 rad/s and 1 m they cannot be resolved
    if values.get("si") and not ("omega_bar" in values
                                 and ("radius" in values or values.get("radius_grid"))):
        raise UsageError("--si needs --omega-bar (rad/s) and --radius (m), by flag or "
                         "config file; the defaults are natural units")
    config = RunConfig(**values)
    if config.fit_window is not None and (len(config.fit_window) != 2
                                          or config.fit_window[0] >= config.fit_window[1]):
        raise UsageError("fit_window needs exactly two values lo,hi with lo < hi")
    if config.samples < 1:
        raise UsageError(f"samples must be >= 1, got {config.samples}")
    if config.jobs != 1:
        raise UsageError(f"jobs must be 1, got {config.jobs}: sweep runs its points in one "
                         "process")
    _check_finite(config)
    if not 1.0 / RANGE_LIMIT <= config.t_max <= RANGE_LIMIT:
        raise DomainError(f"t_max must lie in [{1.0 / RANGE_LIMIT:g}, {RANGE_LIMIT:g}], "
                          f"got {config.t_max}")
    if any(abs(t) > RANGE_LIMIT for t in config.t_list):
        raise DomainError(f"t_list entries must lie within +-{RANGE_LIMIT:g}, got {config.t_list}")
    if not 0.0 <= config.n0_init <= OCCUPATION_LIMIT:
        raise DomainError(f"n0_init must lie in [0, {OCCUPATION_LIMIT:g}], got {config.n0_init}")
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        names = args.command
        if len(names) > 1 and not (set(names) <= TABLES.keys() and len(set(names)) == len(names)):
            raise UsageError("several commands must be distinct table commands "
                             f"({', '.join(TABLES)}); verify and sweep run alone, got "
                             f"{' '.join(names)}")
        config = config_from_args(args)
        if names[0] in TABLES:
            return run_tables(config, names)
        return COMMANDS[names[0]](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"usage error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    except (ResourceCapError, MemoryError) as exc:  # MemoryError: a size no cap bounds yet
        print(f"resource cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except PhysicsError as exc:
        print(f"physics contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
