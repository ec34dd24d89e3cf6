"""Vocabulary with training-set frequencies, and embedding tables.

Lookup keys are lowercased forms.  Id 0 is the reserved unknown entry in
both the vocabulary and every embedding table, so an unseen form always
resolves to a usable (zero-initialized, trainable) vector.
"""
from __future__ import annotations

import logging
from typing import TextIO

import numpy as np

from .autodiff import Tensor
from .conll import Sentence

__all__ = ["UNKNOWN_ID", "Vocabulary", "EmbeddingTable", "build_vocab", "load_pretrained"]

log = logging.getLogger(__name__)

UNKNOWN_ID = 0
UNKNOWN_FORM = "<unk>"


class Vocabulary:
    """Form-to-id map plus per-id occurrence counts from the training set."""

    def __init__(self, forms: list[str], counts: list[int]):
        # forms/counts are parallel, id 0 reserved; counts[0] stays 0
        self.forms = [UNKNOWN_FORM] + forms
        self.counts = [0] + counts
        self.ids = {f: i for i, f in enumerate(self.forms)}
        if len(self.ids) != len(self.forms):
            raise ValueError("duplicate forms in vocabulary")

    def __len__(self) -> int:
        return len(self.forms)

    def lookup(self, form: str) -> int:
        return self.ids.get(form.lower(), UNKNOWN_ID)

    def frequency(self, token_id: int) -> int:
        return self.counts[token_id]

    def __contains__(self, form: str) -> bool:
        return form.lower() in self.ids


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


class EmbeddingTable:
    """A trainable id-indexed vector table.

    ``index`` maps surface forms to rows for tables loaded from text files
    (pretrained); vocabulary-indexed tables leave it None and are addressed
    by Vocabulary ids directly.  Row 0 is always the unknown vector.
    """

    def __init__(self, weights: Tensor, index: dict[str, int] | None = None):
        if weights.data.ndim != 2:
            raise ValueError(f"embedding table must be 2-d, got {weights.data.shape}")
        self.weights = weights
        self.index = index

    @property
    def dim(self) -> int:
        return self.weights.data.shape[1]

    @property
    def size(self) -> int:
        return self.weights.data.shape[0]

    def row_of(self, form: str) -> int:
        """Row for a surface form: raw spelling first, then lowercased."""
        if self.index is None:
            raise ValueError("table is vocabulary-indexed; use Vocabulary.lookup")
        row = self.index.get(form)
        if row is None:
            row = self.index.get(form.lower(), UNKNOWN_ID)
        return row


def load_pretrained(stream: TextIO) -> EmbeddingTable:
    """Load a text-format embedding file: one ``word v1 ... vd`` per line.

    A leading ``count dim`` header is tolerated.  All rows must share one
    dimension and hold finite numbers; on a duplicate word the last
    occurrence wins with a warning.  Row 0 of the resulting table is a zero
    unknown vector.
    """
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
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
            raise ValueError(f"line {lineno}: no vector components for {word!r}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"line {lineno}: non-finite vector component")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ValueError(
                f"line {lineno}: dimension {vec.size} does not match established dimension {dim}"
            )
        if word in index:
            log.warning("duplicate pretrained entry %r (line %d): last occurrence wins", word, lineno)
            rows[index[word] - 1] = vec
        else:
            index[word] = len(rows) + 1
            rows.append(vec)
    if dim is None:
        raise ValueError("empty embedding file")
    weights = np.vstack([np.zeros((1, dim))] + [r[None, :] for r in rows])
    return EmbeddingTable(Tensor(weights, requires_grad=True), index=index)
