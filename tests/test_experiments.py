"""The paper's three claims on the configs in `experiments/`: one assertion
and one printed line each.

A module fixture runs six commands in process through `cli.main`:
`dynamics` and `thermal` on `free_space.cfg`, `entanglement` and `density`
on `small_cavity.cfg`, `verify` and `verify --negative-control` on
`temperature_invariance.cfg`.  The tests read their exit codes, manifests
and CSVs.  Run with

    python -W error::RuntimeWarning -m pytest -q -s tests/test_experiments.py

to see the lines.
"""

import contextlib
import io
import json
import math

import pytest

from dressedcavity.cli import main

from conftest import EXPERIMENTS, read_csv

# Each run: its command and flags, its config in experiments/, the exit code it must give.
RUNS = {
    "dynamics": (("dynamics",), "free_space", 0),
    "thermal": (("thermal",), "free_space", 0),
    "entanglement": (("entanglement",), "small_cavity", 0),
    # 20001 samples: many closed-form sample blocks, the last one ragged
    "density": (("density",), "small_cavity", 0),
    "verify": (("verify",), "temperature_invariance", 0),
    "negative": (("verify", "--negative-control"), "temperature_invariance", 2),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every entry of RUNS run into one directory, its stdout dropped: the
    directory and each run's exit code."""
    root = tmp_path_factory.mktemp("experiments")
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, (command, config, _) in RUNS.items():
            codes[name] = main([*command, "--config", str(EXPERIMENTS / f"{config}.cfg"),
                                "--out", str(root / name)])
    return root, codes


@pytest.fixture(scope="module")
def manifests(runs):
    root, _ = runs
    return {name: json.loads((root / name / "manifest.json").read_text()) for name in RUNS}


@pytest.fixture(scope="module")
def small_cavity(runs):
    """`read_csv` of the small cavity's `density` and `entanglement` tables."""
    root, _ = runs
    return {name: read_csv(root / name / f"{name}.csv") for name in ("density", "entanglement")}


@pytest.mark.parametrize("name", RUNS)
def test_exit_code(runs, name):
    command, config, expected = RUNS[name]
    code = runs[1][name]
    print(f"{' '.join(command)} on {config}.cfg: exit {code}, expected {expected}")
    assert code == expected


def test_free_space_decays_at_the_golden_rule_rate(manifests):
    fit = manifests["dynamics"]["decay_fit"]
    print(f"free space: Gamma = {fit['rate']:.6f}, pi*g = {fit['golden_rule_rate']:.6f}, "
          f"deviation {fit['relative_deviation']:.2%}")
    assert fit["relative_deviation"] < 0.05, fit


def test_free_space_certifies_no_floor(manifests):
    dynamics = manifests["dynamics"]
    print(f"free space: certified survival floor {dynamics['survival_floor_bound']}, "
          f"infinite-time mean survival {dynamics['survival_time_average']:.6f}")
    assert dynamics["survival_floor_bound"] == 0.0


def test_small_cavity_lies_below_its_first_mode(manifests):
    # the regime the stability claims rest on: omega_bar*R/pi < 1, no resonant mode
    units = manifests["entanglement"]["natural_units"]
    ratio = units["omega_bar"] * units["radius"] / math.pi
    print(f"small cavity: omega_bar*R/pi = {ratio:.4f} < 1")
    assert ratio < 1.0, units


def c0_of(small_cavity):
    """C(0), the `# c0 =` line of entanglement.csv."""
    return float(small_cavity["entanglement"][0]["c0"])


def test_small_cavity_concurrence_floor(manifests, small_cavity):
    floor, c0 = manifests["entanglement"]["min_concurrence"], c0_of(small_cavity)
    print(f"small cavity: concurrence floor {floor:.5f} = {floor / c0:.2%} of C(0) = {c0:.5f}")
    assert floor >= 0.95 * c0, floor


def test_small_cavity_certified_concurrence_floor(manifests, small_cavity):
    bound, c0 = manifests["entanglement"]["concurrence_floor_bound"], c0_of(small_cavity)
    print(f"small cavity: certified concurrence floor, every t, {bound:.6f} = {bound / c0:.2%} "
          f"of C(0)")
    assert bound / c0 >= 0.95, bound


def test_small_cavity_sampled_floor_respects_the_certified_floor(manifests):
    entanglement = manifests["entanglement"]
    sampled, bound = entanglement["min_concurrence"], entanglement["concurrence_floor_bound"]
    print(f"small cavity: sampled concurrence floor {sampled:.6f} >= certified {bound:.6f}")
    assert sampled >= bound, (sampled, bound)


def test_density_header(small_cavity):
    columns = small_cavity["density"][1]
    print(f"small cavity density: columns {', '.join(columns[:4])}")
    assert columns[:4] == ["t[natural-time]", "rho_00_00[probability]",
                           "rho_01_01[probability]", "rho_10_10[probability]"]


def test_entanglement_header(small_cavity):
    columns = small_cavity["entanglement"][1]
    print(f"small cavity entanglement: column 1 is {columns[1]}")
    assert columns[1] == "survival[probability]"


def test_row_count(manifests, small_cavity):
    samples = manifests["entanglement"]["config"]["samples"]
    density, entangled = (small_cavity[name][2] for name in ("density", "entanglement"))
    print(f"small cavity: {len(density)} density and {len(entangled)} entanglement rows, "
          f"{samples} samples")
    assert len(density) == len(entangled) == samples


def test_shared_time_column(small_cavity):
    density, entangled = (small_cavity[name][2] for name in ("density", "entanglement"))
    print(f"small cavity: density and entanglement share the t column, {density[-1][0]} last")
    assert all(d[0] == e[0] for d, e in zip(density, entangled))


def test_density_trace_and_survival_split(small_cavity):
    density, entangled = (small_cavity[name][2] for name in ("density", "entanglement"))
    trace = max(abs(sum(map(float, d[1:4])) - 1.0) for d in density)
    split = max(abs(float(d[2]) + float(d[3]) - float(e[1])) for d, e in zip(density, entangled))
    print(f"small cavity density: max|trace - 1| = {trace:.1e}, "
          f"max|rho_01_01 + rho_10_10 - survival| = {split:.1e}")
    assert trace <= 1e-12 and split <= 1e-12, (trace, split)


def test_verify_passes(manifests):
    passed = manifests["verify"]["verify_passed"]
    print(f"temperature invariance: verify_passed = {passed}")
    assert passed is True


def test_negative_control_fails(manifests):
    passed = manifests["negative"]["verify_passed"]
    print(f"broken bath normalization: verify_passed = {passed}")
    assert passed is False
