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
