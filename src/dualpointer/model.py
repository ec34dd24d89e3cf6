"""The full parser model: vocabulary, encoder, and one or two pointer nets.

A model carries its training mode.  :data:`VARIANTS` is the one table of
inference variants, and :func:`tensor_layout` alone names, sizes and orders
every trainable tensor.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .conll import Sentence
from .autodiff import Tensor
from .encoder import WORD_DROPOUT, bilstm_encode, encode_tokens, token_rows
from .pointer import score_all
from .vocab import UNKNOWN_ID, EmbeddingTable, Vocabulary

__all__ = [
    "JOINT",
    "HEADS_ONLY",
    "DEPS_ONLY",
    "MODES",
    "MODE_NETS",
    "ACTIVATIONS",
    "VARIANTS",
    "MODE_VARIANTS",
    "ModeMismatchError",
    "ModelShape",
    "ModelParams",
    "tensor_layout",
    "init_model",
    "require_variant",
    "sentence_contexts",
    "score_sentence",
]

JOINT = "joint"
HEADS_ONLY = "heads-only"
DEPS_ONLY = "deps-only"
ACTIVATIONS = ("sigmoid", "tanh")

# inference variant -> (training mode that serves it, the pointer nets whose
# head-oriented scores it averages, by tensor tag)
VARIANTS = {
    "p1": (JOINT, ("heads", "deps")),
    "p2": (JOINT, ("heads",)),
    "p3": (JOINT, ("deps",)),
    "p4": (HEADS_ONLY, ("heads",)),
    "p5": (DEPS_ONLY, ("deps",)),
}
MODES = tuple(dict.fromkeys(mode for mode, _ in VARIANTS.values()))
# training mode -> the variants its models serve
MODE_VARIANTS = {m: tuple(v for v, (mode, _) in VARIANTS.items() if mode == m) for m in MODES}
# training mode -> tags of the pointer nets it owns, heads first
MODE_NETS = {m: tuple(dict.fromkeys(t for v in MODE_VARIANTS[m] for t in VARIANTS[v][1]))
             for m in MODES}


class ModeMismatchError(Exception):
    """An inference variant was requested from a model of the wrong mode."""


@dataclass(frozen=True)
class ModelShape:
    """What fixes a model's tensors: the training mode, the output
    activation and the five sizes, in the order of a model file's metadata.
    This is the one place they are checked."""

    mode: str = JOINT
    activation: str = "sigmoid"
    d_pretrained: int = 100
    d_random: int = 150
    bilstm_hidden: int = 200
    bilstm_levels: int = 2
    ptr_hidden: int = 100

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        for f in fields(self)[2:]:
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)!r}")


def tensor_layout(shape: ModelShape, vocab_size: int, indexed: bool = False):
    """Yield (name, dims) of every trainable tensor of a model of this
    shape, in the order that init, optimizer slots, model files and
    gradient-check reports follow.  The row count of a pretrained table
    read from a file (``indexed``) is None: only its word index bounds it."""
    hidden = shape.bilstm_hidden
    yield "emb.pretrained", (None if indexed else vocab_size, shape.d_pretrained)
    yield "emb.random", (vocab_size, shape.d_random)
    input_dim = shape.d_pretrained + shape.d_random
    for li in range(shape.bilstm_levels):
        for direction in ("fwd", "bwd"):
            yield f"lstm.l{li}.{direction}.w", (4 * hidden, input_dim + hidden)
            yield f"lstm.l{li}.{direction}.b", (4 * hidden,)
        input_dim = 2 * hidden
    for tag in MODE_NETS[shape.mode]:
        yield f"ptr.{tag}.w", (shape.ptr_hidden, 2 * input_dim)
        yield f"ptr.{tag}.b", (shape.ptr_hidden,)
        yield f"ptr.{tag}.v", (shape.ptr_hidden,)


def _initial_draw(rng: np.random.Generator, name: str, dims: tuple[int, ...]) -> np.ndarray:
    """A tensor's initial value, by its kind.  Biases start at zero.  An
    embedding row or the scorer's lone vector ``v`` is uniform within
    sqrt(3 / width), both of its fans being its width, and the unknown row
    of each embedding table is zero.  Weight matrices are Glorot uniform;
    an LSTM matrix stacks four gate blocks, so its fan-out is a quarter of
    its rows."""
    if name.endswith(".b"):
        return np.zeros(dims)
    if name.startswith("emb.") or name.endswith(".v"):
        limit = np.sqrt(3.0 / dims[-1])
        data = rng.uniform(-limit, limit, size=dims)
        if name.startswith("emb."):
            data[UNKNOWN_ID] = 0.0
        return data
    rows, cols = dims
    fan_out = rows // 4 if name.startswith("lstm.") else rows
    limit = np.sqrt(6.0 / (cols + fan_out))
    return rng.uniform(-limit, limit, size=dims)


@dataclass
class ModelParams:
    """A model: its shape, its vocabulary and its trainable tensors, keyed
    and ordered as :func:`tensor_layout` yields them, the one description
    of its weights that init, the optimizer, the model file and the forward
    pass read.  ``index`` maps words to rows of a pretrained table read
    from a file; it is None when that table is indexed by the vocabulary."""

    shape: ModelShape
    vocab: Vocabulary
    tensors: dict[str, Tensor]
    index: dict[str, int] | None = None

    @property
    def mode(self) -> str:
        return self.shape.mode


def init_model(
    rng: np.random.Generator,
    vocab: Vocabulary,
    pretrained: EmbeddingTable | None = None,
    **shape,
) -> ModelParams:
    """Draw all parameters of a model whose :class:`ModelShape` has the
    given keyword arguments as fields, in layout order, so one seed plus
    one configuration pins every value.  A given pretrained table brings
    its own width and word index, and the model starts from a copy of its
    values, so training leaves the table as it was read; without one,
    ``emb.pretrained`` is drawn as a second vocabulary-indexed table."""
    shape = ModelShape(**shape)
    given, index = {}, None
    if pretrained is not None:
        shape = replace(shape, d_pretrained=pretrained.dim)
        given["emb.pretrained"], index = pretrained.weights.copy(), pretrained.index
    tensors = {
        name: Tensor(given[name] if name in given else _initial_draw(rng, name, dims),
                     requires_grad=True)
        for name, dims in tensor_layout(shape, len(vocab), index is not None)
    }
    return ModelParams(shape, vocab, tensors, index)


def require_variant(model: ModelParams, variant: str) -> None:
    if variant not in VARIANTS:
        raise ModeMismatchError(f"unknown inference variant {variant!r}")
    needed = VARIANTS[variant][0]
    if model.mode != needed:
        raise ModeMismatchError(
            f"variant {variant} needs a {needed} model, this model was trained {model.mode}"
        )


@dataclass
class SentenceScores:
    """Each owned net's pre-activation score tensor, in its own orientation,
    by the net's tag."""

    heads: Tensor | None = None
    deps: Tensor | None = None


def sentence_contexts(
    model: ModelParams,
    sentences: list[Sentence],
    training: bool = False,
    alpha: float = WORD_DROPOUT,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Each sentence's [n x 2h] context rows, the sentences run through the
    BiLSTM as one batch, each tensor looked up by its :func:`tensor_layout`
    name.  One gather embeds the batch's distinct (pretrained row, random
    row) pairs, and the BiLSTM's first level reads each token's pair by
    its index among them.  Only a lone sentence's rows stay on the tape; a
    batch of several is encoded under ``no_grad``."""
    t = model.tensors
    rows = [token_rows(s, model.vocab, model.index, training, alpha, rng) for s in sentences]
    # each distinct pair numbered in order of first appearance; the pairs
    # are the keys, so no key built from two table sizes can overflow
    distinct: dict[tuple[int, int], int] = {}
    index = [distinct.setdefault(pair, len(distinct)) for r in rows for pair in r]
    encodings = encode_tokens(list(distinct), t["emb.pretrained"], t["emb.random"])
    levels = [tuple(t[f"lstm.l{li}.{d}.{p}"] for d in ("fwd", "bwd") for p in "wb")
              for li in range(model.shape.bilstm_levels)]
    lengths = [len(r) for r in rows]
    contexts = bilstm_encode(encodings, levels, lengths, rows=index)
    if len(sentences) == 1:
        return [contexts]
    return [Tensor(c) for c in np.split(contexts.data, np.cumsum(lengths)[:-1])]


def score_sentence(
    model: ModelParams,
    sentence: Sentence,
    training: bool = False,
    alpha: float = WORD_DROPOUT,
    rng: np.random.Generator | None = None,
    contexts: Tensor | None = None,
) -> SentenceScores:
    """Run whichever pointer nets the model owns over the sentence's
    context rows, encoding the sentence unless its ``contexts`` (from
    :func:`sentence_contexts`) are given.  Each net projects its keys and
    queries from these rows alone, in training as in inference."""
    if contexts is None:
        (contexts,) = sentence_contexts(model, [sentence], training, alpha, rng)
    t = model.tensors
    return SentenceScores(**{
        tag: score_all(contexts, *(t[f"ptr.{tag}.{p}"] for p in "wbv"))
        for tag in MODE_NETS[model.mode]})
