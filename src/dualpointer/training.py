"""Training: per-sentence joint (or single-task) updates with Adam, epoch
shuffling, and dev-set model selection.

One sentence is one optimizer step, on the loss of
``pointer.output_loss``; gradients flow through the pointer nets and the
BiLSTM down to both embedding tables.
"""
from __future__ import annotations

import io
import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .conll import Sentence
from .decoding import gold_trees, parse, uas
from .encoder import WORD_DROPOUT
from .model import MODE_NETS, MODE_VARIANTS, ModelParams, init_model, score_sentence
from .modelio import save_model
from .optim import Adam
from .pointer import output_loss, target_matrix
from .vocab import EmbeddingTable, build_vocab

__all__ = [
    "EpochRow",
    "default_variant",
    "sentence_loss",
    "train_sentence",
    "make_optimizer",
    "train",
]

log = logging.getLogger(__name__)


def default_variant(mode: str) -> str:
    """The inference variant a model of this mode is evaluated with: the
    first one it can serve."""
    return MODE_VARIANTS[mode][0]


@dataclass
class EpochRow:
    epoch: int
    mean_loss: float
    dev_uas: float
    skipped: int = 0


def sentence_loss(
    model: ModelParams,
    sentence: Sentence,
    training: bool = True,
    alpha: float = WORD_DROPOUT,
    rng: np.random.Generator | None = None,
) -> ad.Tensor:
    """Forward pass returning the loss tensor."""
    scored = score_sentence(model, sentence, training=training, alpha=alpha, rng=rng)
    nets = MODE_NETS[model.mode]
    return output_loss([getattr(scored, tag) for tag in nets],
                       [target_matrix(sentence, tag) for tag in nets], model.shape.activation)


def make_optimizer(model: ModelParams, config: RunConfig) -> Adam:
    return Adam(
        list(model.tensors.values()),
        alpha=config.adam_alpha,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )


def train_sentence(
    model: ModelParams,
    sentence: Sentence,
    optimizer: Adam,
    rng: np.random.Generator,
    alpha: float = WORD_DROPOUT,
    sentence_id: str = "?",
) -> float | None:
    """One forward/backward/update step, with word dropout at rate
    ``alpha``.  Returns the loss value, or None when the step was skipped
    because the loss or a gradient was not finite."""
    loss = sentence_loss(model, sentence, training=True, alpha=alpha, rng=rng)
    value = loss.item()
    if not np.isfinite(value):
        log.warning("sentence %s: non-finite loss, step skipped", sentence_id)
        optimizer.zero_grad()
        return None
    loss.backward()
    applied = optimizer.step()
    optimizer.zero_grad()
    if not applied:
        log.warning("sentence %s: non-finite gradient, step skipped", sentence_id)
        return None
    return value


def train(
    corpus: list[Sentence],
    dev: list[Sentence],
    config: RunConfig,
    pretrained: EmbeddingTable | None = None,
    on_epoch=None,
) -> tuple[EpochRow, bytes]:
    """One seed's training run of ``config``; returns the best epoch's row,
    the very object ``on_epoch`` received, and its model file's bytes.

    Sentences are shuffled each epoch with the run seed.  After every
    epoch the dev set is parsed in inference mode, the epoch's
    :class:`EpochRow` goes to ``on_epoch``, and the values of the epoch
    with the highest dev UAS (earliest epoch on ties) are kept in one set
    of arrays, refilled in place.  After the last epoch a model of those
    arrays is serialized once.
    """
    rng = np.random.default_rng(config.seed)
    gold_trees(corpus, "train")
    gold_trees(dev, "dev")

    vocab = build_vocab(corpus)
    model = init_model(rng, vocab, pretrained=pretrained, **asdict(config.shape))
    optimizer = make_optimizer(model, config)
    variant = default_variant(config.mode)

    best_values = {name: np.empty_like(t.data) for name, t in model.tensors.items()}
    best: EpochRow | None = None
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(corpus))
        total, counted, skipped = 0.0, 0, 0
        for si in order:
            value = train_sentence(model, corpus[si], optimizer, rng,
                                   alpha=config.alpha_word_dropout, sentence_id=str(si + 1))
            if value is None:
                skipped += 1
            else:
                total += value
                counted += 1
        mean_loss = total / counted if counted else float("nan")

        predicted = parse(dev, model, variant, config.root_agg)
        dev_uas = uas(dev, predicted, config.punct_tags)

        row = EpochRow(epoch=epoch, mean_loss=mean_loss, dev_uas=dev_uas, skipped=skipped)
        if on_epoch is not None:
            on_epoch(row)
        if best is None or dev_uas > best.dev_uas:
            best = row
            for name, kept in best_values.items():
                np.copyto(kept, model.tensors[name].data)
    best_model = replace(model, tensors={name: ad.Tensor(v) for name, v in best_values.items()})
    del model, optimizer  # frees the last values and the moments before the save
    buf = io.BytesIO()
    save_model(best_model, buf)
    return best, buf.getvalue()
