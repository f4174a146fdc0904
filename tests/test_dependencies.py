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


def _fresh(*args):
    """Run a fresh interpreter on the package in src/; its stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)
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
