import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dressedcavity

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dressedcavity"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dressedcavity"}


def _imported_roots(tree):
    """Top-level name of every module an import statement in the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_dependencies_are_numpy_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = sorted(set(_imported_roots(tree)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}; the library depends on numpy only"


def test_every_exported_name_resolves():
    missing = [name for name in dressedcavity.__all__ if not hasattr(dressedcavity, name)]
    assert not missing, f"dressedcavity.__all__ names {missing}, which the package lacks"


OPENSSL = {"hashlib", "_hashlib"}
TIMEOUT_VAR = "OPENBLAS_THREAD_TIMEOUT"


def _fresh(*args, timeout=None, cwd=None):
    """Run a fresh interpreter on the package in src/; its stdout and stderr.

    OPENBLAS_THREAD_TIMEOUT is set in the child only when `timeout` is
    given: importing the package here has already set it in this process.
    """
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop(TIMEOUT_VAR, None)
    if timeout is not None:
        env[TIMEOUT_VAR] = timeout
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    return done.stdout, done.stderr


def test_start_up_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto (about 3.5 MB resident); only the
    # manifest checksums import it, after a run's compute
    out, _ = _fresh("-c", "import sys, dressedcavity.cli; print(*sorted(sys.modules))")
    assert "dressedcavity.cli" in out.split()
    assert not OPENSSL & set(out.split())
    out, err = _fresh("-X", "importtime", "-m", "dressedcavity.cli", "--version")
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert out.startswith("dressedcavity ") and "numpy" in imported
    assert not OPENSSL & imported


# a finder that records the variable as numpy is first looked up, then finds nothing
SPY_ON_NUMPY = f"""
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("{TIMEOUT_VAR}"))
sys.meta_path.insert(0, Spy())
import dressedcavity.cli
print(*seen, os.environ.get("{TIMEOUT_VAR}"))
"""


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("28", "28")],
                         ids=["unset", "preset"])
def test_thread_timeout_is_set_before_numpy_loads(preset, expected):
    # OpenBLAS reads the variable once, when numpy loads it; a value the
    # user has set wins
    out, _ = _fresh("-c", SPY_ON_NUMPY, timeout=preset)
    assert out.split() == [expected, expected]


def test_thread_timeout_moves_no_byte(tmp_path):
    # unset (so 4) against 28, OpenBLAS's own default, on three amplitude
    # blocks with a ragged last one
    config = PACKAGE.parents[1] / "scripts" / "compare_csv_bodies_blocks.cfg"
    for command in ("thermal", "dynamics"):
        written = []
        for timeout in (None, "28"):
            cwd = tmp_path / f"{command}-{timeout}"
            cwd.mkdir()
            out, _ = _fresh("-m", "dressedcavity.cli", command, "--config", str(config),
                            "--out", command, timeout=timeout, cwd=cwd)
            written.append((out, (cwd / command / f"{command}.csv").read_bytes()))
        assert written[0] == written[1], command
