"""Vocabulary with training-set frequencies, and embedding tables.

Lookup keys are lowercased forms.  Id 0 is the reserved unknown entry in
both the vocabulary and every embedding table, so an unseen form always
resolves to a usable (zero-initialized, trainable) vector.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .conll import Sentence

__all__ = ["UNKNOWN_ID", "WEIGHT_BOUND", "within_bound", "Vocabulary", "EmbeddingTable",
           "PretrainedError", "build_vocab", "pretrained_row", "load_pretrained"]

log = logging.getLogger(__name__)

UNKNOWN_ID = 0
UNKNOWN_FORM = "<unk>"

# No weight or embedding value of a model exceeds this in magnitude: the
# pretrained file, the model file and the saved model are all held to it.
# With every input at most B, the first LSTM level's input product is at
# most B^2 times the input width, far inside float64; the gates and tanh
# bound everything after it to [-1, 1] or to B times a layer width, so
# inference cannot overflow.
WEIGHT_BOUND = 1e100


def within_bound(values: np.ndarray) -> bool:
    """Whether every value of a non-empty array is finite and at most
    WEIGHT_BOUND in magnitude (a NaN fails both comparisons)."""
    return bool(-WEIGHT_BOUND <= values.min() and values.max() <= WEIGHT_BOUND)


class PretrainedError(ValueError):
    """A pretrained-vectors file that cannot be loaded."""


class Vocabulary:
    """Form-to-id map plus per-id occurrence counts from the training set."""

    def __init__(self, forms: list[str], counts: list[int]):
        # forms/counts are parallel, id 0 reserved; counts[0] stays 0
        self.forms = [UNKNOWN_FORM] + forms
        self.counts = [0] + counts
        # the reserved entry is not a key, so a corpus word "<unk>" gets its own id
        self.ids = {f: i for i, f in enumerate(forms, start=1)}
        if len(self.ids) != len(forms):
            raise ValueError("duplicate forms in vocabulary")

    def __len__(self) -> int:
        return len(self.forms)

    def lookup(self, form: str) -> int:
        return self.ids.get(form.lower(), UNKNOWN_ID)

    def frequency(self, token_id: int) -> int:
        return self.counts[token_id]


def build_vocab(train: list[Sentence]) -> Vocabulary:
    """Count lowercased forms over the training corpus."""
    if not train or all(len(s) == 0 for s in train):
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: dict[str, int] = {}
    for sent in train:
        for tok in sent:
            key = tok.form.lower()
            counts[key] = counts.get(key, 0) + 1
    forms = sorted(counts)
    return Vocabulary(forms, [counts[f] for f in forms])


def pretrained_row(index: dict[str, int], form: str) -> int:
    """Row of a surface form in a table loaded from a file: raw spelling
    first, then lowercased, else the unknown row."""
    row = index.get(form)
    return index.get(form.lower(), UNKNOWN_ID) if row is None else row


@dataclass
class EmbeddingTable:
    """A pretrained vector table as read from a file: its [rows x dim]
    weights, row 0 the unknown vector, and the word index that maps
    surface forms to rows (see :func:`pretrained_row`)."""

    weights: np.ndarray
    index: dict[str, int]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def load_pretrained(stream: TextIO) -> EmbeddingTable:
    """Load a text-format embedding file: one ``word v1 ... vd`` per line.

    A leading ``count dim`` header is tolerated.  All rows must share one
    dimension and hold finite numbers within :data:`WEIGHT_BOUND`; on a
    duplicate word the last occurrence wins with a warning.  Row 0 of the
    resulting table is a zero unknown vector.  Every failure, unreadable
    text included, is a :class:`PretrainedError`.
    """
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue
                except ValueError:
                    pass
            word, values = parts[0], parts[1:]
            if not values:
                raise PretrainedError(f"line {lineno}: no vector components for {word!r}")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise PretrainedError(f"line {lineno}: non-numeric vector component") from None
            if not within_bound(vec):
                raise PretrainedError(f"line {lineno}: non-finite vector component "
                                      f"or one beyond {WEIGHT_BOUND:g}")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise PretrainedError(f"line {lineno}: dimension {vec.size} does not match "
                                      f"established dimension {dim}")
            if word in index:
                log.warning("duplicate pretrained entry %r (line %d): last occurrence wins",
                            word, lineno)
                rows[index[word] - 1] = vec
            else:
                index[word] = len(rows) + 1
                rows.append(vec)
    except UnicodeDecodeError as exc:
        raise PretrainedError(f"not UTF-8 text: {exc.reason}") from None
    if dim is None:
        raise PretrainedError("empty embedding file")
    weights = np.vstack([np.zeros((1, dim))] + [r[None, :] for r in rows])
    return EmbeddingTable(weights, index=index)
