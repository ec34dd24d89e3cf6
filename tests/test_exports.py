"""Every module of the package imports, and every name in its ``__all__``
resolves, so a deleted name cannot stay exported."""
import importlib
import pkgutil

import pytest

import dualpointer

MODULES = sorted(m.name for m in pkgutil.iter_modules(dualpointer.__path__))


def test_every_module_is_found():
    assert {"cli", "encoder", "model", "modelio", "pointer", "training", "vocab"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"dualpointer.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate entries"
    assert [n for n in exported if not hasattr(module, n)] == []
