"""Reading and writing treebanks in the tab-separated CoNLL column formats.

Both CoNLL-X and CoNLL-U share the columns this parser needs: ID (0), FORM
(1), a coarse POS tag (3, falling back to 4), and HEAD (6).  Sentences are
blank-line separated.  A read/write round trip keeps ``#`` comments (each
sentence's ahead of its tokens) and every column of every word token; it
drops multiword-token ranges (``1-2``), empty nodes (``5.1``), comments
that no word token follows, and extra blank lines.  Reading checks the
columns, ids and head syntax only; ``decoding.gold_trees`` checks that a
gold head column is a tree.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

__all__ = ["ConllError", "Token", "Sentence", "read_conll", "write_conll"]

# the IDs of multiword-token ranges (1-2) and empty nodes (5.1)
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")
# token ids and heads: ASCII digits only, no sign, space or other digit script
_INTEGER = re.compile(r"[0-9]+")


class ConllError(ValueError):
    """Malformed treebank input; the message carries the 1-based line
    number, or the corpus and 1-based sentence whose gold heads are
    missing or not a tree (``decoding.gold_trees``)."""


@dataclass
class Token:
    """One treebank token.

    ``head`` is 0 for the sentence top, a 1-based governor index otherwise,
    or None when the input left it unannotated (bare parse input).
    """

    index: int
    form: str
    pos: str | None = None
    head: int | None = None
    cols: list[str] = field(default_factory=list)

    def line(self) -> str:
        cols = list(self.cols) if self.cols else self._default_cols()
        cols[6] = "_" if self.head is None else str(self.head)
        return "\t".join(cols)

    def _default_cols(self) -> list[str]:
        pos = self.pos or "_"
        return [str(self.index), self.form, "_", pos, "_", "_", "_", "_", "_", "_"]


@dataclass
class Sentence:
    tokens: list[Token]
    comments: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def gold_heads(self) -> list[int]:
        heads = []
        for t in self.tokens:
            if t.head is None:
                raise ConllError(f"token {t.index} ({t.form!r}) has no gold head")
            heads.append(t.head)
        return heads

    def with_heads(self, heads: Iterable[int]) -> "Sentence":
        """Copy of this sentence with the head column replaced."""
        heads = list(heads)
        if len(heads) != len(self.tokens):
            raise ValueError(
                f"{len(heads)} heads for a {len(self.tokens)}-token sentence"
            )
        new = [
            Token(t.index, t.form, t.pos, h, list(t.cols))
            for t, h in zip(self.tokens, heads)
        ]
        return Sentence(new, list(self.comments))


def _parse_int(text: str, lineno: int, what: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ConllError(f"line {lineno}: non-integer {what} {text!r}")
    return int(text)


def _numbered_lines(stream: TextIO) -> Iterator[tuple[int, str]]:
    try:
        yield from enumerate(stream, start=1)
    except UnicodeDecodeError as exc:
        raise ConllError(f"not UTF-8 text: {exc.reason}") from None


def read_conll(stream: TextIO) -> list[Sentence]:
    """Parse a CoNLL-X/CoNLL-U stream into sentences, skipping
    multiword-token ranges and empty nodes.  A line with too few columns,
    an id out of sequence, or an id or head that is not ASCII digits (a
    head may also be ``_``) raises :class:`ConllError` naming the line, as
    does a stream whose bytes are not UTF-8.
    """
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    comments: list[str] = []
    for lineno, raw in _numbered_lines(stream):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                sentences.append(Sentence(tokens, comments))
            tokens, comments = [], []
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) < 7:
            raise ConllError(
                f"line {lineno}: expected at least 7 tab-separated columns, got {len(cols)}"
            )
        id_field = cols[0]
        if _SKIPPED_ID.fullmatch(id_field):
            continue
        index = _parse_int(id_field, lineno, "token id")
        if index != len(tokens) + 1:
            raise ConllError(
                f"line {lineno}: token id {index} out of sequence (expected {len(tokens) + 1})"
            )
        pos = cols[3] if cols[3] != "_" else (cols[4] if len(cols) > 4 and cols[4] != "_" else None)
        head = None if cols[6] == "_" else _parse_int(cols[6], lineno, "head field")
        tokens.append(Token(index, cols[1], pos, head, cols))
    if tokens:
        sentences.append(Sentence(tokens, comments))
    return sentences


def write_conll(sentences: Iterable[Sentence], stream: TextIO) -> None:
    """Write sentences back out, one blank line after each.

    Every token must carry a head (gold or predicted); an unannotated token
    is rejected since emitting it would silently drop the parse.
    """
    for si, sent in enumerate(sentences):
        for c in sent.comments:
            stream.write(c + "\n")
        for t in sent.tokens:
            if t.head is None:
                raise ValueError(
                    f"sentence {si + 1}, token {t.index} ({t.form!r}) has no head to write"
                )
            stream.write(t.line() + "\n")
        stream.write("\n")
