"""Public surface: every name a module lists in ``__all__`` exists, and
none is listed twice, so a deleted function cannot leave a dangling
export behind."""

import importlib
import pkgutil

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
