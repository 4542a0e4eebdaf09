"""The package runs on the standard library alone, and its frontends reach
the other modules through public names only."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import planetrees
from planetrees import series, verify

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "planetrees").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_the_bench_verify_table_lists_the_registry_rows():
    # a drifted row name makes every bench verify operation read as wrong, so
    # the table is read as literal data, without importing the bench
    module = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    (table,) = [
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "VERIFY_CHECKS" for target in node.targets)
    ]
    registry: dict[str, list[str]] = {}
    for row in verify.CHECKS:
        registry.setdefault(row.scope, []).append(row.name)
    assert list(table) == list(registry) == list(verify.SCOPES)
    assert {scope: list(names) for scope, names in table.items()} == registry


def _private_names_of_package_modules(path: Path) -> list[str]:
    """``module._name`` attributes of the package modules a module imports
    (``from . import series``), and ``_name`` imports from them."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("name", ["cli.py", "verify.py"])
def test_the_frontends_call_no_private_name_of_another_module(name):
    path = ROOT / "src" / "planetrees" / name
    assert _private_names_of_package_modules(path) == []


#: the tree stream of ``trees``, which a frontend must not drain to count
TREE_STREAMS = {"iter_decreasing_trees"}


def _called_name(call: ast.Call) -> str | None:
    """``f`` of a call ``f(...)`` or ``module.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _tree_streams_counted(source: str) -> list[str]:
    """Calls of a tree stream, by bare or module-qualified name, that a
    ``sum`` or ``len`` call, or a loop whose body only adds to a counter,
    drains to count the trees."""
    tree = ast.parse(source)

    def streams_in(node: ast.AST) -> list[str]:
        return [
            f"{_called_name(sub)} (line {sub.lineno})"
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and _called_name(sub) in TREE_STREAMS
        ]

    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sum", "len")
        ):
            found += streams_in(node)
        elif isinstance(node, ast.For) and all(isinstance(s, ast.AugAssign) for s in node.body):
            found += streams_in(node.iter)
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [ROOT / "src" / "planetrees" / "cli.py", ROOT / "src" / "planetrees" / "verify.py", *DEMOS],
    ids=lambda path: path.name,
)
def test_the_frontends_count_trees_without_draining_a_stream(path):
    # trees.count_trees_by_enumeration visits the child lists without
    # building a root per tree, at about half the cost of a drained stream
    assert _tree_streams_counted(path.read_text(encoding="utf-8")) == []


def test_the_drained_stream_rule_sees_a_drained_stream():
    source = (
        "a = sum(1 for _ in trees.iter_decreasing_trees(n, k))\n"
        "b = len(list(iter_decreasing_trees(n, k)))\n"
        "for _ in trees.iter_decreasing_trees(n, k):\n"
        "    c += 1\n"
        "d = trees.count_trees_by_enumeration(n, k)\n"
        "for t in trees.iter_decreasing_trees(n, k):\n"
        "    check(t)\n"
    )
    assert _tree_streams_counted(source) == [
        "iter_decreasing_trees (line 1)",
        "iter_decreasing_trees (line 2)",
        "iter_decreasing_trees (line 3)",
    ]


def test_the_exports_are_sorted_and_are_what_the_package_imports(monkeypatch):
    # each export is read from its module, so a function deleted from its
    # module cannot linger as an export, and a replaced one is not kept
    assert planetrees.__all__ == sorted(planetrees.__all__) == list(planetrees._EXPORTS)
    for name, module in planetrees._EXPORTS.items():
        assert getattr(planetrees, name) is getattr(importlib.import_module(f"planetrees.{module}"), name)
    assert set(planetrees.__all__) <= set(dir(planetrees))
    with pytest.raises(AttributeError):
        planetrees.no_such_export
    original = series.count_trees
    monkeypatch.setattr(series, "count_trees", len)
    assert planetrees.count_trees is len
    monkeypatch.undo()
    assert planetrees.count_trees is original
    monkeypatch.delattr(series, "count_trees")
    with pytest.raises(AttributeError):
        planetrees.count_trees


#: public names with no caller outside the tests that the rule lets stand:
#: ``is_decreasing`` is the enumeration tests' oracle
TEST_ONLY_NAMES = ["trees.is_decreasing"]


def _names_in(node: ast.AST) -> set[str]:
    """The names a piece of code reads: bare, attribute and imported names,
    and whole string constants (a registry row names its function so)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _unnamed_public_definitions(sources: dict[str, str], outside: set[str]) -> list[str]:
    """``module.name`` of each public top-level function or class in
    ``sources`` (module name -> source) that no other top-level statement of
    theirs names, outside the export table ``_EXPORTS``, and that is not in
    ``outside``."""
    statements, defined = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_EXPORTS" for target in stmt.targets
            ):
                continue
            statements.append((stmt, _names_in(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((module, stmt))
    return sorted(
        f"{module}.{stmt.name}"
        for module, stmt in defined
        if stmt.name not in outside
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    )


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public function that only the tests call is a twin or dead code;
    # callers are the package's other top-level statements, the demos and
    # the script entry point
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    outside = {entry.rpartition(":")[2] for entry in scripts.values()}
    for path in DEMOS:
        outside |= _names_in(ast.parse(path.read_text(encoding="utf-8")))
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _unnamed_public_definitions(sources, outside) == TEST_ONLY_NAMES


def test_the_caller_rule_sees_a_test_only_function():
    sources = {
        "a": (
            '"""``unused`` and ``exported`` are named in this docstring only."""\n'
            "def used(): pass\n"
            "def unused(): pass\n"
            "def _private(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def exported(): pass\n"
            "def demo(): pass\n"
            "class Row: pass\n"
            "ROWS = [Row('check_row')]\n"
            "def check_row(): return used()\n"
        ),
        "b": "from .a import Row\n_EXPORTS = {'exported': 'a'}\n",
    }
    assert _unnamed_public_definitions(sources, {"demo"}) == ["a.exported", "a.recursive", "a.unused"]
