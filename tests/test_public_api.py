"""Public surface: every name a module lists in ``__all__`` exists, and
none is listed twice, so a deleted function cannot leave a dangling
export behind; and every name the scripts import from the package
resolves, so a deleted function cannot leave a script broken."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import epiview

MODULES = [importlib.import_module(f"epiview.{m.name}")
           for m in pkgutil.iter_modules(epiview.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_modules_export_something():
    assert len(EXPORTING) >= 10


@pytest.mark.parametrize("module", EXPORTING, ids=[m.__name__ for m in EXPORTING])
def test_all_names_resolve_once(module):
    names = list(module.__all__)
    assert [n for n in names if not hasattr(module, n)] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []


SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports_resolve(script):
    imports = [(node.module, alias.name) for node in ast.walk(ast.parse(script.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("epiview")
               for alias in node.names]
    assert imports
    assert [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)] == []
