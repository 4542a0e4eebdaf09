"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "planetrees").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports of one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    outside = _absolute_imports(path) - sys.stdlib_module_names
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert SOURCES and project.get("dependencies", []) == []
    assert "dependencies" not in project.get("dynamic", [])
