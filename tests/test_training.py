"""Training loop: loss math on degenerate input, update isolation,
overfitting trend, determinism, and checkpoint selection."""
import io
import logging
import math

import numpy as np
import pytest

from dualpointer.conll import Sentence, Token
from dualpointer.model import HEADS_ONLY, JOINT, init_model
from dualpointer.toygrammar import toy_treebank
from dualpointer.training import (
    Checkpoint,
    TrainConfig,
    default_variant,
    make_optimizer,
    sentence_loss,
    train,
    train_sentence,
)
from dualpointer.vocab import build_vocab


def sent(words, heads=None):
    heads = heads or ([0] + [1] * (len(words) - 1))
    return Sentence([Token(i + 1, w, None, h) for i, (w, h) in enumerate(zip(words, heads))])


def small_config(**kw):
    defaults = dict(
        epochs=1, seed=5, d_pretrained=4, d_random=5,
        bilstm_hidden=6, bilstm_levels=2, ptr_hidden=7,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_model(config, corpus, seed=None):
    vocab = build_vocab(corpus)
    return init_model(
        np.random.default_rng(seed if seed is not None else config.seed), vocab,
        mode=config.mode, d_pretrained=config.d_pretrained,
        d_random=config.d_random, bilstm_hidden=config.bilstm_hidden,
        bilstm_levels=config.bilstm_levels, ptr_hidden=config.ptr_hidden,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="dual")


def test_default_variant_per_mode():
    assert default_variant("joint") == "p1"
    assert default_variant("heads-only") == "p4"
    assert default_variant("deps-only") == "p5"


def test_single_token_sentence_loss_is_bce_against_zero():
    # the lone token is the top: both 1x1 targets are zero, so the joint
    # loss must equal BCE(sigmoid(h), 0) + BCE(sigmoid(d), 0) exactly
    config = small_config()
    corpus = [sent(["a"])]
    model = small_model(config, corpus)
    loss, rows = sentence_loss(model, sent(["a"]), config, training=False)
    from dualpointer.model import score_sentence
    scored = score_sentence(model, sent(["a"]))
    h = scored.heads.data[0, 0]
    d = scored.deps.data[0, 0]
    expected = (math.log1p(math.exp(-abs(h))) + max(h, 0)) + \
               (math.log1p(math.exp(-abs(d))) + max(d, 0))
    assert loss.item() == pytest.approx(expected, rel=1e-12)
    assert rows == [(model.vocab.lookup("a"), model.vocab.lookup("a"))]


def test_heads_only_loss_has_single_term():
    config = small_config(mode=HEADS_ONLY)
    corpus = [sent(["a", "b"])]
    model = small_model(config, corpus)
    loss, _ = sentence_loss(model, sent(["a", "b"]), config, training=False)
    assert np.isfinite(loss.item())
    names = [n for n, _ in model.named_params()]
    assert not any("deps" in n for n in names)


def test_train_sentence_updates_only_used_embedding_rows():
    config = small_config()
    corpus = [sent(["a", "b", "c"])]
    model = small_model(config, corpus)
    opt = make_optimizer(model, config)
    before = model.encoder.random.weights.data.copy()
    rng = np.random.default_rng(0)
    value = train_sentence(model, sent(["a", "b"], [2, 0]), config, opt, rng)
    assert value is not None and np.isfinite(value)
    after = model.encoder.random.weights.data
    unused_row = model.vocab.lookup("c")
    np.testing.assert_array_equal(after[unused_row], before[unused_row])
    used = {model.vocab.lookup("a"), model.vocab.lookup("b")}
    # dropout may have redirected a lookup to the unknown row, but some
    # used row must have moved
    assert any(not np.array_equal(after[r], before[r]) for r in used | {0})


def test_nonfinite_loss_skips_step(caplog):
    config = small_config()
    corpus = [sent(["a", "b"])]
    model = small_model(config, corpus)
    model.heads_net.v.data[0] = np.nan
    opt = make_optimizer(model, config)
    snapshot = model.encoder.random.weights.data.copy()
    with caplog.at_level(logging.WARNING):
        value = train_sentence(model, sent(["a", "b"], [2, 0]), config, opt,
                               np.random.default_rng(0), sentence_id="7")
    assert value is None
    assert "7" in caplog.text and "skipped" in caplog.text
    np.testing.assert_array_equal(model.encoder.random.weights.data, snapshot)
    assert opt.t == 0


def test_loss_trend_decreases_on_repeated_sentence():
    """Repeated steps on one fixed 5-token sentence: the 30-step moving
    average of the loss must fall monotonically and end far below its start."""
    config = small_config(alpha_word_dropout=0.0)
    s = sent(["a", "b", "c", "d", "e"], [2, 3, 0, 3, 4])
    model = small_model(config, [s])
    opt = make_optimizer(model, config)
    rng = np.random.default_rng(1)
    losses = []
    for _ in range(600):
        losses.append(train_sentence(model, s, config, opt, rng))
    assert all(v is not None for v in losses)
    window = [sum(losses[i:i + 30]) / 30 for i in range(0, 600, 30)]
    assert window[-1] < window[0] * 0.5
    assert all(b <= a + 1e-9 for a, b in zip(window, window[1:]))


class TestTrain:
    def corpus(self):
        return toy_treebank(12)

    def test_single_epoch_returns_that_checkpoint(self):
        config = small_config(epochs=1)
        best, log = train(self.corpus(), self.corpus(), config)
        assert isinstance(best, Checkpoint)
        assert best.epoch == 1
        assert len(log) == 1
        assert log[0].dev_uas == best.dev_uas

    def test_best_checkpoint_has_max_dev_uas(self):
        config = small_config(epochs=4)
        best, log = train(self.corpus(), self.corpus(), config)
        assert best.dev_uas == max(r.dev_uas for r in log)
        # earliest epoch wins ties
        first_best = next(r.epoch for r in log if r.dev_uas == best.dev_uas)
        assert best.epoch == first_best

    def test_same_seed_reproduces_run(self):
        config = small_config(epochs=2)
        best1, log1 = train(self.corpus(), self.corpus(), config)
        best2, log2 = train(self.corpus(), self.corpus(), config)
        assert log1[0].mean_loss == log2[0].mean_loss
        assert [r.dev_uas for r in log1] == [r.dev_uas for r in log2]
        assert best1.model_bytes == best2.model_bytes

    def test_different_seed_differs(self):
        c1 = small_config(epochs=1, seed=1)
        c2 = small_config(epochs=1, seed=2)
        best1, _ = train(self.corpus(), self.corpus(), c1)
        best2, _ = train(self.corpus(), self.corpus(), c2)
        assert best1.model_bytes != best2.model_bytes

    def test_checkpoint_loads_back(self):
        config = small_config(epochs=1)
        best, _ = train(self.corpus(), self.corpus(), config)
        model = best.load()
        assert model.mode == JOINT

    def test_epoch_callback_streams_rows(self):
        config = small_config(epochs=3)
        seen = []
        train(self.corpus(), self.corpus(), config, on_epoch=seen.append)
        assert [r.epoch for r in seen] == [1, 2, 3]

    def test_empty_corpora_rejected(self):
        config = small_config()
        with pytest.raises(ValueError):
            train([], self.corpus(), config)
        with pytest.raises(ValueError):
            train(self.corpus(), [], config)

    def test_missing_gold_heads_rejected(self):
        config = small_config()
        bad = [sent(["a", "b"])]
        bad[0].tokens[1].head = None
        with pytest.raises(ValueError, match="gold heads"):
            train(bad, self.corpus(), config)

    def test_heads_only_training_runs(self):
        config = small_config(epochs=1, mode=HEADS_ONLY)
        best, _ = train(self.corpus(), self.corpus(), config)
        model = best.load()
        assert model.mode == HEADS_ONLY
        assert model.deps_net is None
