"""The bundled treebanks under ``data/``, the one copy tests train and
parse on (``data/generate.py`` builds them)."""
from pathlib import Path

from dualpointer.conll import Sentence, read_conll

DATA = Path(__file__).resolve().parent.parent / "data"


def bundled(name: str, count: int | None = None) -> list[Sentence]:
    """The first ``count`` sentences (all when None) of ``data/<name>.conllu``."""
    with open(DATA / f"{name}.conllu", encoding="utf-8") as f:
        return read_conll(f)[:count]
