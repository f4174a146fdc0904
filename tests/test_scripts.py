import os
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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


def test_compare_csv_bodies_checks_outputs_streams_and_manifests(tmp_path):
    # the head tree differs from the base only in verify's last stdout line
    # and one manifest field: every CSV stays the same, and the gate fails
    # on the stream and on the manifests
    base = Path(__file__).resolve().parents[1] / "src"
    head = tmp_path / "head"
    shutil.copytree(base, head)
    cli = head / "dressedcavity" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    for old, new in (('"VERIFY " + ', '"VERIFY: " + '),
                     ("verify_passed=all_pass)", "verify_passed=all_pass, extra=1)")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text, encoding="utf-8")
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
    assert "same tiny.cfg dynamics: dynamics.csv (26 lines)" in lines
    assert "same tiny.cfg sweep: stdout (1 lines)" in lines
    assert "same tiny.cfg verify: verify.csv (16 lines)" in lines
    assert "same tiny.cfg verify: stderr (0 lines)" in lines
    assert "DIFF tiny.cfg verify: stdout" in lines
    assert "DIFF tiny.cfg verify-negative-control: stdout" in lines
    assert [line for line in lines if line.startswith(("DIFF manifest", "FAIL"))] == [
        "DIFF manifest 1/verify/manifest.json: extra",
        "DIFF manifest 1/verify-negative-control/manifest.json: extra"]
    assert "checksums ok: 10 manifests" in lines
