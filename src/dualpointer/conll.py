"""Reading and writing treebanks in the tab-separated CoNLL column formats.

Both CoNLL-X and CoNLL-U share the columns this parser needs: ID (0), FORM
(1), a coarse POS tag (3, falling back to 4), and HEAD (6).  Sentences are
blank-line separated; ``#`` comment lines and the full column list of every
token are kept so that a read/write round trip is byte-stable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

__all__ = ["ConllError", "Token", "Sentence", "read_conll", "write_conll"]


class ConllError(ValueError):
    """Malformed treebank input; message carries the 1-based line number,
    or the sentence for a sentence that lacks gold heads."""


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

    def line(self, head: int | None = None) -> str:
        h = self.head if head is None else head
        cols = list(self.cols) if self.cols else self._default_cols()
        cols[6] = "_" if h is None else str(h)
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

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def gold_heads(self) -> list[int]:
        heads = []
        for t in self.tokens:
            if t.head is None:
                raise ConllError(f"token {t.index} ({t.form!r}) has no gold head")
            heads.append(t.head)
        return heads

    def has_gold_heads(self) -> bool:
        return all(t.head is not None for t in self.tokens)

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


def _parse_head(text: str, lineno: int) -> int | None:
    if text == "_":
        return None
    try:
        return int(text)
    except ValueError:
        raise ConllError(f"line {lineno}: non-integer head field {text!r}") from None


def _finish(tokens: list[Token], comments: list[str], lineno: int) -> Sentence:
    n = len(tokens)
    for t in tokens:
        if t.head is None:
            continue
        if t.head == t.index:
            raise ConllError(
                f"line {lineno}: token {t.index} names itself as head"
            )
        if not 0 <= t.head <= n:
            raise ConllError(
                f"line {lineno}: head {t.head} of token {t.index} outside [0, {n}]"
            )
    return Sentence(tokens, comments)


def _numbered_lines(stream: TextIO) -> Iterator[tuple[int, str]]:
    try:
        yield from enumerate(stream, start=1)
    except UnicodeDecodeError as exc:
        raise ConllError(f"not UTF-8 text: {exc.reason}") from None


def read_conll(stream: TextIO) -> list[Sentence]:
    """Parse a CoNLL-X/CoNLL-U stream into sentences.

    Multiword-token ranges (``1-2``) and empty nodes (``5.1``) are skipped.
    Malformed lines, non-integer heads (other than ``_``) and out-of-range
    heads raise :class:`ConllError` naming the offending line, as does a
    stream whose bytes are not UTF-8.
    """
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    comments: list[str] = []
    last_token_line = 0
    for lineno, raw in _numbered_lines(stream):
        line = raw.rstrip("\n")
        if not line.strip():
            if tokens:
                sentences.append(_finish(tokens, comments, last_token_line))
                tokens, comments = [], []
            elif comments:
                comments = []
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
        if "-" in id_field or "." in id_field:
            continue
        try:
            index = int(id_field)
        except ValueError:
            raise ConllError(f"line {lineno}: non-integer token id {id_field!r}") from None
        if index != len(tokens) + 1:
            raise ConllError(
                f"line {lineno}: token id {index} out of sequence (expected {len(tokens) + 1})"
            )
        pos = cols[3] if cols[3] != "_" else (cols[4] if len(cols) > 4 and cols[4] != "_" else None)
        head = _parse_head(cols[6], lineno)
        tokens.append(Token(index, cols[1], pos, head, cols))
        last_token_line = lineno
    if tokens:
        sentences.append(_finish(tokens, comments, last_token_line))
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
