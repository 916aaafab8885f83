"""Every exported public name resolves, and so does every function that the
benchmark's traced run wraps (perfbench/tracing.py, TRACED); the package
itself never imports the benchmark."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import rotvac

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(rotvac.__path__))


def _traced_pairs():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"rotvac.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert pairs
    missing = [(m, n) for m, n in pairs
               if not callable(getattr(importlib.import_module(f"rotvac.{m}"), n, None))]
    assert not missing


@pytest.mark.parametrize("path", sorted(pathlib.Path(rotvac.__path__[0]).glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_perfbench(path):
    # the benchmark wraps the package from outside; the package must run without it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "perfbench"}
