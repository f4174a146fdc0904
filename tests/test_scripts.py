import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SCRIPTS


# 10 code lines: the import, the class line, the method line, the 4-line call,
# the 2-line string that is not a docstring and the one-line function with
# its docstring; the docstrings, comments and blank lines do not count.
SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


class Sample:
    """Class docstring."""

    # a comment line
    def area(self, r):
        """Method docstring
        over two lines."""
        return round(
            math.pi
            * r ** 2,
            3)


TEXT = """not a
docstring"""
def tagged(): """one-line function with its docstring"""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE, encoding="utf-8")
    done = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"), str(module)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["10", str(module)]
    done = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"), str(module),
                           str(module)], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == ["20", "total"]


# Each mutation of the head tree, (file, old text, new text), and the failure
# class it trips: a CSV byte (thermal values); a stdout line and a file only
# the head writes (sweep); stderr, and combined against single (the combined
# invocation warns, naming its second table); combined against single again
# (the combined spectrum manifest echoes another jobs value); a moved manifest
# value and a key only the head writes (verify); an exit code (the negative
# control exits 0); a checksum (the sweep manifest's bytes are one too many).
MUTATIONS = (
    ("cli.py", "zip(run.t_grid, occupation)", "zip(run.t_grid, occupation + 1.0)"),
    ("cli.py", '_say(f"sweep: {len(rows)} points',
     'csv.with_name("extra.csv").write_text("")\n    _say(f"sweep: {len(rows)} point(s)'),
    ("cli.py", "_warn(stage.warnings)\n    return 0",
     "_warn([*stage.warnings, *names[1:2]])\n    return 0"),
    ("cli.py", "out=str(Path(config.out) / name)",
     "out=str(Path(config.out) / name), jobs=1 + (name == \"spectrum\")"),
    ("cli.py", "verify_passed=all_pass)", "verify_passed=not all_pass, extra=1)"),
    ("cli.py", "return 0 if all_pass else 2", "return 0"),
    ("reporting.py", '"bytes": csv_path.stat().st_size}',
     '"bytes": csv_path.stat().st_size + (csv_path.name == "sweep.csv")}'),
)


def test_compare_csv_bodies_checks_outputs_streams_and_manifests(tmp_path):
    base = Path(__file__).resolve().parents[1] / "src"
    head = tmp_path / "head"
    shutil.copytree(base, head)
    for file, old, new in MUTATIONS:
        module = head / "dressedcavity" / file
        text = module.read_text(encoding="utf-8")
        assert text.count(old) == 1, old
        module.write_text(text.replace(old, new), encoding="utf-8")
    config = tmp_path / "tiny.cfg"
    config.write_text("n_modes = 4\nsamples = 20\nt_max = 5\nxi_grid = 0.3, 0.6\n",
                      encoding="utf-8")
    # the script runs `python`: this interpreter, with its numpy
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    done = subprocess.run(["bash", str(SCRIPTS / "compare_csv_bodies.sh"), str(base),
                           str(head), str(config)], capture_output=True, text=True,
                          env={**os.environ, "PATH": path})
    lines = done.stdout.splitlines()
    assert done.returncode == 1, done.stdout + done.stderr
    run = "1-tiny.cfg"
    assert [line for line in lines if line.startswith(("DIFF", "FAIL", "BAD"))] == [
        "FAIL tiny.cfg verify-negative-control: the head tree exited 0, expected 2",
        # base against head, file by file
        f"FAIL {run}/sweep/extra.csv: only in head",
        f"DIFF {run}/sweep/manifest.json: outputs",
        f"DIFF {run}/sweep.stdout",
        f"DIFF {run}/tables/spectrum/manifest.json: config",
        f"DIFF {run}/tables/thermal/manifest.json: outputs",
        f"DIFF {run}/tables/thermal/thermal.csv",
        f"DIFF {run}/tables.stderr",
        f"DIFF {run}/thermal/manifest.json: outputs",
        f"DIFF {run}/thermal/thermal.csv",
        f"DIFF {run}/verify/manifest.json: verify_passed; only in head: extra",
        f"DIFF {run}/verify-negative-control/manifest.json: verify_passed; only in head: extra",
        # the head's combined invocation against its single runs
        f"DIFF {run}/tables.stderr vs {run}/density.stderr",
        f"DIFF {run}/tables.stderr vs {run}/dynamics.stderr",
        f"DIFF {run}/tables.stderr vs {run}/entanglement.stderr",
        f"DIFF {run}/tables/spectrum/manifest.json vs {run}/spectrum/manifest.json: config",
        f"DIFF {run}/tables.stderr vs {run}/spectrum.stderr",
        f"DIFF {run}/tables.stderr vs {run}/thermal.stderr",
        # the head's checksums
        f"BAD {run}/sweep/manifest.json: sweep.csv does not match its sha256 and bytes"]
    # a stream's DIFF shows its unified diff
    assert "+sweep: 2 point(s), 0 failures -> sweep/sweep.csv" in lines
    assert "+warning: dynamics" in lines
    assert "compared 49 files, 15 of them manifests less wall_clock_seconds and config.out" \
        in lines
    assert "checked 5 combined tables against their single runs" in lines
    assert "checked the checksums of 15 head manifests" in lines
