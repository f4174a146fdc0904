import ast
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
