"""README points to the docstrings and files that describe the program, so
every name and path it cites must exist: a renamed function or a moved
test shows here rather than as a stale pointer."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dualpointer

ROOT = Path(__file__).resolve().parent.parent
MODULES = {m.name for m in pkgutil.iter_modules(dualpointer.__path__)}
PATH_PREFIXES = ("tests/", "data/", "demos/", "perfbench/", ".github/")


def _spans() -> list[str]:
    """README's inline code spans, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.DOTALL | re.MULTILINE)
    return re.findall(r"`([^`\n]+)`", text)


def _cited_names() -> list[str]:
    """Spans of the form ``module.name``, ``dualpointer.`` optional, whose
    module is one of the package's."""
    names = []
    for span in _spans():
        dotted = span.removeprefix("dualpointer.")
        if (re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+", dotted)
                and dotted.split(".")[0] in MODULES):
            names.append(dotted)
    return sorted(set(names))


def _cited_paths() -> list[str]:
    return sorted({span for span in _spans() if span.startswith(PATH_PREFIXES)})


def test_readme_cites_names_and_paths():
    assert len(_cited_names()) >= 10
    assert len(_cited_paths()) >= 5


@pytest.mark.parametrize("dotted", _cited_names())
def test_cited_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"dualpointer.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{dotted}: no {attr!r}"
        obj = getattr(obj, attr)


@pytest.mark.parametrize("path", _cited_paths())
def test_cited_path_exists(path):
    assert (ROOT / path).exists()
