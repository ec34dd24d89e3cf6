"""The full parser model: vocabulary, encoder, and one or two pointer nets.

A model carries its training mode.  Joint training produces both scorers
and serves the merged (p1) and single-matrix (p2, p3) inference variants;
single-task models serve only their own variant (p4 heads, p5 dependents).
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .conll import Sentence
from .encoder import (
    EncoderParams,
    bilstm_encode,
    encode_tokens,
    init_encoder_params,
    token_rows,
)
from .pointer import (
    DEPENDENTS,
    HEADS,
    PointerParams,
    ScoreMatrix,
    init_pointer_params,
    score_all,
)
from .vocab import EmbeddingTable, Vocabulary

__all__ = [
    "JOINT",
    "HEADS_ONLY",
    "DEPS_ONLY",
    "MODES",
    "MODE_NETS",
    "ACTIVATIONS",
    "VARIANTS",
    "VARIANT_REQUIRES",
    "MODE_VARIANTS",
    "ModeMismatchError",
    "ModelShape",
    "ModelParams",
    "init_model",
    "require_variant",
    "score_sentence",
]

JOINT = "joint"
HEADS_ONLY = "heads-only"
DEPS_ONLY = "deps-only"
# training mode -> orientations of the pointer nets it owns, heads first
MODE_NETS = {JOINT: (HEADS, DEPENDENTS), HEADS_ONLY: (HEADS,), DEPS_ONLY: (DEPENDENTS,)}
MODES = tuple(MODE_NETS)
ACTIVATIONS = ("sigmoid", "tanh")

# inference variant -> training mode that can serve it
VARIANT_REQUIRES = {
    "p1": JOINT,
    "p2": JOINT,
    "p3": JOINT,
    "p4": HEADS_ONLY,
    "p5": DEPS_ONLY,
}
VARIANTS = tuple(VARIANT_REQUIRES)
# training mode -> the variants its models serve
MODE_VARIANTS = {m: tuple(v for v in VARIANTS if VARIANT_REQUIRES[v] == m) for m in MODES}


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


@dataclass
class ModelParams:
    vocab: Vocabulary
    encoder: EncoderParams
    heads_net: PointerParams | None
    deps_net: PointerParams | None
    shape: ModelShape

    def named_params(self) -> list[tuple[str, object]]:
        """Every trainable tensor in a fixed, documented order.

        The order is load-bearing: optimizer slots, serialization records
        and gradient-check reports all index into it.
        """
        named = [
            ("emb.pretrained", self.encoder.pretrained.weights),
            ("emb.random", self.encoder.random.weights),
        ]
        for li, (fwd, bwd) in enumerate(self.encoder.layers):
            named += [
                (f"lstm.l{li}.fwd.w", fwd.w),
                (f"lstm.l{li}.fwd.b", fwd.b),
                (f"lstm.l{li}.bwd.w", bwd.w),
                (f"lstm.l{li}.bwd.b", bwd.b),
            ]
        for tag, net in (("heads", self.heads_net), ("deps", self.deps_net)):
            if net is not None:
                named += [(f"ptr.{tag}.w", net.w), (f"ptr.{tag}.b", net.b),
                          (f"ptr.{tag}.v", net.v)]
        return named

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
    given keyword arguments as fields.  Draw order is fixed (encoder, heads
    net, deps net) so one seed plus one configuration pins every value."""
    shape = ModelShape(**shape)
    if pretrained is not None:  # a pretrained table brings its own width
        shape = replace(shape, d_pretrained=pretrained.dim)
    encoder = init_encoder_params(
        rng, vocab, pretrained, shape.d_pretrained, shape.d_random,
        shape.bilstm_hidden, shape.bilstm_levels,
    )
    nets = {orientation: init_pointer_params(rng, encoder.context_dim, orientation,
                                             shape.ptr_hidden)
            for orientation in MODE_NETS[shape.mode]}
    return ModelParams(vocab, encoder, nets.get(HEADS), nets.get(DEPENDENTS), shape)


def require_variant(model: ModelParams, variant: str) -> None:
    if variant not in VARIANT_REQUIRES:
        raise ModeMismatchError(f"unknown inference variant {variant!r}")
    needed = VARIANT_REQUIRES[variant]
    if model.mode != needed:
        raise ModeMismatchError(
            f"variant {variant} needs a {needed} model, this model was trained {model.mode}"
        )


@dataclass
class SentenceScores:
    heads: ScoreMatrix | None
    deps: ScoreMatrix | None
    used_rows: list[tuple[int, int]]


def score_sentence(
    model: ModelParams,
    sentence: Sentence,
    training: bool = False,
    alpha: float = 0.25,
    rng: np.random.Generator | None = None,
) -> SentenceScores:
    """Encode and run whichever pointer nets the model owns."""
    rows = token_rows(sentence, model.encoder, model.vocab, training, alpha, rng)
    encodings = encode_tokens(sentence, model.encoder, model.vocab, rows=rows)
    contexts = bilstm_encode(encodings, model.encoder)
    heads = score_all(contexts, model.heads_net) if model.heads_net else None
    deps = score_all(contexts, model.deps_net) if model.deps_net else None
    return SentenceScores(heads=heads, deps=deps, used_rows=rows)
