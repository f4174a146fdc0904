"""dressedcavity benchmark: drives the CLI as a user would and checks its outputs.

    python3 perfbench/run.py --workload free_space --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from `src/`.

With `--trace 0` each command of a pass runs as a fresh
`python -m dressedcavity.cli ...` process, one at a time (a closed loop with
one client), and passes repeat for `--seconds`.  Per-command wall time comes
from the clock, CPU time and peak RSS from that child's own rusage
(`os.wait4`).  The end-to-end metrics are medians over passes, plus `setup_s`:
the median time of a fresh interpreter answering `--version`.

With `--trace 1` the same commands call `dressedcavity.cli.main(argv)` in this
process, alternating untraced passes with passes traced by `tracing.Tracer`.
The per-layer metrics are medians over the traced passes.

Every command's outputs are checked.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines before it
give per-command figures, the generated inputs and the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
TRACED_COMMANDS = ("dynamics", "thermal", "entanglement", "density", "verify",
                   "verify_negative", "sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class CommandResult:
    label: str
    wall_s: float
    cpu_s: float | None  # from the child's rusage; None when run in-process
    rss_mb: float | None
    exit: int | str
    problems: list[str]
    minor_faults: int | None = None


def _checked(command, work: Path, exit_code, stdout: str) -> list[str]:
    if exit_code != command.expect_exit:
        return [f"{command.label}: exit {exit_code}, expected {command.expect_exit}"]
    try:
        return command.check(work / command.label, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command.label}: output check raised {exc!r}"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], work: Path, env: dict, log_name: str):
    """Run one child to completion; returns (wall_s, rusage, exit code, stdout)."""
    stdout_path, stderr_path = work / f"{log_name}.stdout", work / f"{log_name}.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, stdout_path.read_text(encoding="utf-8", errors="replace")


def _clear_outputs(plan: Plan, work: Path) -> None:
    for command in plan.commands:
        shutil.rmtree(work / command.label, ignore_errors=True)


def _keep_going(walls: list[float], started: float, seconds: float, minimum: int) -> bool:
    """Another pass fits if the last one, repeated, still ends inside the budget."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - started + walls[-1] <= seconds


def measure_setup(work: Path, env: dict) -> list[CommandResult]:
    """Fresh interpreters importing dressedcavity.cli and building its parser."""
    argv = ["-m", "dressedcavity.cli", "--version"]
    _spawn(argv, work, env, "setup")  # compiles bytecode once, untimed
    results = []
    for _ in range(SETUP_SAMPLES):
        wall, usage, code, stdout = _spawn(argv, work, env, "setup")
        ok = code == 0 and stdout.startswith("dressedcavity ")
        results.append(CommandResult("setup", wall, usage.ru_utime + usage.ru_stime,
                                     usage.ru_maxrss / 1024.0, code,
                                     [] if ok else [f"--version: exit {code}, {stdout!r}"]))
    return results


def run_cli_passes(plan: Plan, work: Path, seconds: float, env: dict,
                   started: float) -> list[list[CommandResult]]:
    passes, walls = [], []
    while _keep_going(walls, started, seconds, MIN_PASSES):
        _clear_outputs(plan, work)
        results = []
        for command in plan.commands:
            wall, usage, code, stdout = _spawn(["-m", "dressedcavity.cli", *command.argv],
                                               work, env, command.label)
            results.append(CommandResult(command.label, wall, usage.ru_utime + usage.ru_stime,
                                         usage.ru_maxrss / 1024.0, code,
                                         _checked(command, work, code, stdout),
                                         usage.ru_minflt))
        passes.append(results)
        walls.append(sum(r.wall_s for r in results))
    return passes


def _in_process_pass(plan: Plan, work: Path, cli) -> list[CommandResult]:
    results = []
    for command in plan.commands:
        captured = io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(captured), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(command.argv))
            except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
                code = f"raised {exc!r}"
        wall = time.perf_counter() - started
        results.append(CommandResult(command.label, wall, None, None, code,
                                     _checked(command, work, code, captured.getvalue())))
    return results


def _median_by_label(passes: list[list[CommandResult]], field: str) -> dict[str, float]:
    return {result.label: statistics.median(getattr(p[i], field) for p in passes)
            for i, result in enumerate(passes[0])}


def _pass_median(passes: list[list[CommandResult]], field: str, combine=sum) -> float:
    return statistics.median(combine(getattr(r, field) for r in p) for p in passes)


def untraced_run(plan: Plan, work: Path, seconds: float):
    """End-to-end metrics from fresh CLI processes; returns (checked results, metrics, detail)."""
    env = _child_env()
    started = time.perf_counter()  # set-up samples count against the run's seconds
    setup = measure_setup(work, env)
    passes = run_cli_passes(plan, work, seconds, env, started)
    values = {"wall_s": _pass_median(passes, "wall_s"),
              "cpu_s": _pass_median(passes, "cpu_s"),
              "peak_rss_mb": _pass_median(passes, "rss_mb", combine=max),
              "setup_s": statistics.median(r.wall_s for r in setup)}
    detail = {"passes": len(passes),
              "pass_wall_s": [sum(r.wall_s for r in p) for p in passes],
              "per_command_wall_s": _median_by_label(passes, "wall_s"),
              "per_command_cpu_s": _median_by_label(passes, "cpu_s"),
              "per_command_peak_rss_mb": _median_by_label(passes, "rss_mb"),
              "per_command_minor_faults": _median_by_label(passes, "minor_faults"),
              "setup_samples_s": [r.wall_s for r in setup]}
    return [setup] + passes, values, detail


def traced_run(plan: Plan, work: Path, seconds: float):
    """Per-layer metrics from in-process passes, alternating untraced and traced."""
    sys.path.insert(0, str(SRC))
    from dressedcavity import cli  # imported here: the package lives in the checkout's src/

    untraced, traced, layer_metrics, self_tables = [], [], [], []
    previous = os.getcwd()
    os.chdir(work)  # the plan's argv names its config and outputs relative to the work dir
    try:
        walls = []
        started = time.perf_counter()
        while _keep_going(walls, started, seconds, MIN_TRACED_PAIRS):
            _clear_outputs(plan, work)
            untraced.append(_in_process_pass(plan, work, cli))
            _clear_outputs(plan, work)
            with Tracer() as tracer:
                traced.append(_in_process_pass(plan, work, cli))
            layer_metrics.append(tracer.metrics())
            self_tables.append(tracer.self_seconds())
            walls.append(sum(r.wall_s for r in untraced[-1] + traced[-1]))
    finally:
        os.chdir(previous)

    values = {name: statistics.median(m[name] for m in layer_metrics) for name in layer_metrics[0]}
    per_command = _median_by_label(traced, "wall_s")
    for label in TRACED_COMMANDS:
        values[f"traced.{label}_s"] = per_command.get(label, 0.0)
    values["traced.wall_s"] = _pass_median(traced, "wall_s")
    values["traced.untraced_wall_s"] = _pass_median(untraced, "wall_s")
    values["traced.overhead_s"] = values["traced.wall_s"] - values["traced.untraced_wall_s"]
    self_s = {name: statistics.median(t.get(name, 0.0) for t in self_tables)
              for name in set().union(*self_tables)}
    detail = {"passes": len(traced), "per_command_wall_s": per_command,
              "top_function_self_s": sorted(self_s.items(), key=lambda kv: -kv[1])[:12]}
    return untraced + traced, values, detail


# ------------------------------------------------------------------ report

def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    lines = packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_sha": _git_sha()}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so a running child is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dressedcavity" / "cli.py").is_file():
        print(f"perfbench: no dressedcavity sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)

    plan = WORKLOADS[args.workload](args.seed)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / plan.config_name).write_text(plan.config_text(), encoding="utf-8")
        run = traced_run if args.trace else untraced_run
        checked, values, detail = run(plan, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    problems = [p for results in checked for r in results for p in r.problems]
    attempted = sum(len(results) for results in checked)
    failed = sum(1 for results in checked for r in results if r.problems)
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "failed_ratio": failed / attempted, "problems": problems[:20],
                   "config": plan.config, "argv": [list(c.argv) for c in plan.commands],
                   "machine": machine()})
    for label, wall in detail["per_command_wall_s"].items():
        print(f"{label}_s = {wall:.6f} s (median of {detail['passes']} passes)")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"failed_ratio = {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps(detail, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
