"""The sentences tests train and parse on: the bundled treebanks under
``data/`` (``data/generate.py`` builds them), and hand-made ones."""
from pathlib import Path

from dualpointer.conll import Sentence, Token, read_conll

DATA = Path(__file__).resolve().parent.parent / "data"


def bundled(name: str, count: int | None = None) -> list[Sentence]:
    """The first ``count`` sentences (all when None) of ``data/<name>.conllu``."""
    with open(DATA / f"{name}.conllu", encoding="utf-8") as f:
        return read_conll(f)[:count]


def sent(words, heads=None, pos=None) -> Sentence:
    """A sentence of ``words``; heads default to ``[0, 1, 1, ...]`` (the
    first word is the top and heads the rest), POS tags to none."""
    heads = heads or ([0] + [1] * (len(words) - 1))
    pos = pos or [None] * len(words)
    return Sentence([Token(i + 1, w, p, h) for i, (w, h, p) in enumerate(zip(words, heads, pos))])
