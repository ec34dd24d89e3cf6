"""Every module of the package imports, every name in its ``__all__``
resolves, so a deleted name cannot stay exported, and the package itself
uses every name it exports, so a name with no program caller cannot stay."""
import ast
import functools
import importlib
import pkgutil
from pathlib import Path

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


@functools.cache
def _references() -> frozenset[str]:
    """Names the package's code loads, as a bare name or an attribute,
    outside the top-level ``def``/``class`` that defines them."""
    seen = set()
    for path in Path(dualpointer.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            here = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    here.add(node.attr)
            here.discard(getattr(stmt, "name", None))
            seen |= here
    return frozenset(seen)


# exported names that nothing in the package calls, with the reason they stay
UNCALLED = {
    "decoding.cycle_stats": "imported into cli, whose binding the benchmark's tracer wraps",
}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_used_in_the_package(name):
    module = importlib.import_module(f"dualpointer.{name}")
    unused = [n for n in getattr(module, "__all__", [])
              if n not in _references() and f"{name}.{n}" not in UNCALLED]
    assert unused == []


@pytest.mark.parametrize("qualified", sorted(UNCALLED))
def test_uncalled_list_is_current(qualified):
    assert qualified.split(".")[1] not in _references()
