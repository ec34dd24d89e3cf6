"""Training loop: loss math on degenerate input, update isolation,
overfitting trend, determinism, and checkpoint selection."""
import io
import logging
import math
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from corpora import bundled, sent
from fd import rel_err

from dualpointer import autodiff as ad
from dualpointer import training
from dualpointer.config import ConfigError, RunConfig
from dualpointer.gradcheck import random_sentence
from dualpointer.model import DEPS_ONLY, HEADS_ONLY, JOINT, MODE_NETS, init_model
from dualpointer.modelio import load_model
from dualpointer.optim import Adam
from dualpointer.training import (
    EpochRow,
    default_variant,
    make_optimizer,
    sentence_loss,
    train,
    train_sentence,
)
from dualpointer.vocab import EmbeddingTable, build_vocab, load_pretrained, pretrained_row


def small_config(seed=5, **kw):
    defaults = dict(
        epochs=1, seeds=(seed,), d_pretrained=4, d_random=5,
        bilstm_hidden=6, bilstm_levels=2, ptr_hidden=7,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def small_model(config, corpus, seed=None):
    vocab = build_vocab(corpus)
    return init_model(
        np.random.default_rng(seed if seed is not None else config.seed), vocab,
        **asdict(config.shape),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epochs=0)
    with pytest.raises(ValueError):
        RunConfig(mode="dual")


def test_run_of_two_seeds_fails_before_anything_is_built(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a vocabulary or model was built")
    monkeypatch.setattr(training, "build_vocab", never)
    monkeypatch.setattr(training, "init_model", never)
    corpus = [sent(["a", "b"])]
    with pytest.raises(ConfigError, match="one seed expected, got 2"):
        train(corpus, corpus, small_config(seeds=(1, 2)))


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
    loss = sentence_loss(model, sent(["a"]), training=False)
    from dualpointer.encoder import token_rows
    from dualpointer.model import score_sentence
    rows = token_rows(sent(["a"]), model.vocab, model.index)
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
    loss = sentence_loss(model, sent(["a", "b"]), training=False)
    assert np.isfinite(loss.item())
    names = list(model.tensors)
    assert not any("deps" in n for n in names)


def test_train_sentence_updates_only_used_embedding_rows():
    config = small_config()
    corpus = [sent(["a", "b", "c"])]
    model = small_model(config, corpus)
    opt = make_optimizer(model, config)
    before = model.tensors["emb.random"].data.copy()
    rng = np.random.default_rng(0)
    value = train_sentence(model, sent(["a", "b"], [2, 0]), opt, rng)
    assert value is not None and np.isfinite(value)
    after = model.tensors["emb.random"].data
    unused_row = model.vocab.lookup("c")
    np.testing.assert_array_equal(after[unused_row], before[unused_row])
    used = {model.vocab.lookup("a"), model.vocab.lookup("b")}
    # dropout may have redirected a lookup to the unknown row, but some
    # used row must have moved
    assert any(not np.array_equal(after[r], before[r]) for r in used | {0})


def test_large_pretrained_table_moves_only_used_rows():
    """A 100k-row pretrained table: a step's gradient names only the rows
    the sentence used, and every other row keeps its value and moments."""
    rng = np.random.default_rng(3)
    size = 100_000
    table = EmbeddingTable(rng.normal(size=(size, 3)),
                           index={f"w{i}": i for i in range(1, size)})
    config = small_config()
    first, second = sent(["w5", "w99999", "w7"]), sent(["w42", "w5", "w42"], [0, 1, 1])
    model = init_model(rng, build_vocab([first, second]), pretrained=table,
                       d_random=5, bilstm_hidden=6, bilstm_levels=1, ptr_hidden=7)
    opt = make_optimizer(model, config)
    assert train_sentence(model, first, opt, rng, alpha=0.0) is not None
    weights = model.tensors["emb.pretrained"]
    slot = opt.params.index(weights)
    before = [x.copy() for x in (weights.data, opt.m[slot], opt.v[slot])]

    # rows 7 and 99999 now carry moments that a dense update would decay
    seen = []
    step = opt.step

    def spy():
        seen.append(weights.grad)
        return step()

    opt.step = spy
    assert train_sentence(model, second, opt, rng, alpha=0.0) is not None
    (grad,) = seen
    used = [pretrained_row(table.index, "w5"), pretrained_row(table.index, "w42")]
    assert grad.rows.tolist() == sorted(used)
    others = np.setdiff1d(np.arange(size), used)
    for old, new in zip(before, (weights.data, opt.m[slot], opt.v[slot])):
        assert np.array_equal(new[others], old[others])
        assert not np.array_equal(new[used], old[used])


def test_nonfinite_loss_skips_step(caplog):
    config = small_config()
    corpus = [sent(["a", "b"])]
    model = small_model(config, corpus)
    model.tensors["ptr.heads.v"].data[0] = np.nan
    opt = make_optimizer(model, config)
    snapshot = model.tensors["emb.random"].data.copy()
    with caplog.at_level(logging.WARNING):
        value = train_sentence(model, sent(["a", "b"], [2, 0]), opt,
                               np.random.default_rng(0), sentence_id="7")
    assert value is None
    assert "7" in caplog.text and "skipped" in caplog.text
    np.testing.assert_array_equal(model.tensors["emb.random"].data, snapshot)
    assert opt.t == 0


def test_nonfinite_gradient_logs_one_warning(caplog, monkeypatch):
    """A backward rule that yields NaN: the loss is finite, the step is
    skipped, and one warning names the sentence."""
    config = small_config()
    corpus = [sent(["a", "b"])]
    model = small_model(config, corpus)
    opt = make_optimizer(model, config)
    snapshot = model.tensors["emb.random"].data.copy()
    monkeypatch.setattr(ad, "_sigmoid_backward", lambda out, g: np.full(np.shape(out), np.nan))
    with caplog.at_level(logging.WARNING):
        value = train_sentence(model, sent(["a", "b"], [2, 0]), opt,
                               np.random.default_rng(0), sentence_id="7")
    assert value is None
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1, caplog.text
    assert "sentence 7" in warnings[0].getMessage()
    assert "non-finite gradient" in warnings[0].getMessage()
    np.testing.assert_array_equal(model.tensors["emb.random"].data, snapshot)
    assert opt.t == 0


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("mode", [JOINT, HEADS_ONLY, DEPS_ONLY])
def test_one_tape_node_per_layer(monkeypatch, mode, activation, levels):
    """A training step records one node per layer: the embedding gather,
    each BiLSTM level, each pointer net and the output loss."""
    config = small_config(mode=mode, activation=activation, bilstm_levels=levels)
    s = sent(["a", "b", "c"], [2, 0, 2])
    model = small_model(config, [s])
    made = []
    make_node = ad.make_node

    def counted(*args):
        made.append(args)
        return make_node(*args)

    monkeypatch.setattr(ad, "make_node", counted)
    value = train_sentence(model, s, make_optimizer(model, config),
                           np.random.default_rng(0))
    assert value is not None
    assert len(made) == 1 + levels + len(MODE_NETS[mode]) + 1


def test_train_step_on_a_long_sentence():
    """One step on a 120-token sentence: a finite loss, and every tensor
    moves and stays finite."""
    rng = np.random.default_rng(2)
    s = random_sentence(rng, 120)
    config = small_config()
    model = small_model(config, [s])
    before = {name: t.data.copy() for name, t in model.tensors.items()}
    value = train_sentence(model, s, make_optimizer(model, config), rng, alpha=0.0)
    assert value is not None and np.isfinite(value)
    for name, t in model.tensors.items():
        assert np.isfinite(t.data).all(), name
        assert not np.array_equal(t.data, before[name]), name


def test_lstm_weight_gradients_stay_factored():
    """Each LSTM gate matrix, and each pointer net's weight matrix, gets its
    gradient as the two factors of an OuterGrad of one outer product per
    token, the embedding tables get row gradients, and a tensor has no slot
    for a gradient buffer: it holds its data, gradient and tape links."""
    config = small_config()
    s = sent(["a", "b", "c"], [2, 0, 2])
    model = small_model(config, [s])
    opt = make_optimizer(model, config)
    assert train_sentence(model, s, opt, np.random.default_rng(0), alpha=0.0) is not None
    sentence_loss(model, s, training=False).backward()
    assert set(ad.Tensor.__slots__) == {"data", "grad", "requires_grad", "_parents", "_backward"}
    for name, t in model.tensors.items():
        if name.startswith("emb."):
            assert isinstance(t.grad, ad.RowGrad), name
        elif name.endswith(".w"):
            assert isinstance(t.grad, ad.OuterGrad), name
            assert t.grad.shape == t.data.shape and len(t.grad.left) == len(s), name
        else:
            assert type(t.grad) is np.ndarray, name


def test_two_backwards_without_zero_grad_add_up():
    """A second backward adds to the gradient held.  Factored gradients
    stack their factors, which rounds differently from adding two
    products, so they match within 1e-12 relative; the others exactly."""
    config = small_config()
    first, second = sent(["a", "b", "c"], [2, 0, 2]), sent(["c", "a"], [0, 1])
    model = small_model(config, [first, second])
    opt = make_optimizer(model, config)
    assert train_sentence(model, first, opt, np.random.default_rng(0), alpha=0.0) is not None
    alone = []
    for s in (first, second):
        sentence_loss(model, s, training=False).backward()
        alone.append({name: np.array(t.grad) for name, t in model.tensors.items()})
        opt.zero_grad()
    for s in (first, second):
        sentence_loss(model, s, training=False).backward()
    for name, t in model.tensors.items():
        want = alone[0][name] + alone[1][name]
        if isinstance(t.grad, ad.OuterGrad):
            assert rel_err(np.asarray(t.grad), want) <= 1e-12, name
        else:
            assert np.array_equal(np.asarray(t.grad), want), name


def test_warm_default_size_step_allocates_less_than_one_weight_matrix():
    """After a first step has made Adam's moments, a hidden-200 step on
    3-30-token sentences allocates less than one LSTM weight matrix at its
    peak: the LSTM and pointer weight gradients stay factored, where dense
    ones would take about 15 MB, and the pointer's backward forms its
    n x n x hidden tanh again a block at a time rather than keeping it."""
    rng = np.random.default_rng(11)
    corpus = [random_sentence(rng, n) for n in (5, 3, 11, 7, 16, 20, 30)]
    config = RunConfig(seeds=(11,))
    model = small_model(config, corpus)
    opt = make_optimizer(model, config)
    matrix = model.tensors["lstm.l0.fwd.w"].data.nbytes
    assert train_sentence(model, corpus[0], opt, rng) is not None
    for s in corpus[1:]:
        tracemalloc.start()
        try:
            assert train_sentence(model, s, opt, rng) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix, (len(s), peak)


def test_loss_trend_decreases_on_repeated_sentence():
    """Repeated steps on one fixed 5-token sentence: the 30-step moving
    average of the loss must fall monotonically and end far below its start."""
    config = small_config()
    s = sent(["a", "b", "c", "d", "e"], [2, 3, 0, 3, 4])
    model = small_model(config, [s])
    opt = make_optimizer(model, config)
    rng = np.random.default_rng(1)
    losses = []
    for _ in range(600):
        losses.append(train_sentence(model, s, opt, rng, alpha=0.0))
    assert all(v is not None for v in losses)
    window = [sum(losses[i:i + 30]) / 30 for i in range(0, 600, 30)]
    assert window[-1] < window[0] * 0.5
    assert all(b <= a + 1e-9 for a, b in zip(window, window[1:]))


class TestTrain:
    def corpus(self):
        return bundled("toy", 12)

    def test_single_epoch_returns_that_checkpoint(self):
        config = small_config(epochs=1)
        log = []
        best, model_bytes = train(self.corpus(), self.corpus(), config, on_epoch=log.append)
        assert isinstance(best, EpochRow) and isinstance(model_bytes, bytes)
        assert best.epoch == 1
        assert len(log) == 1
        assert log[0].dev_uas == best.dev_uas
        assert best is log[0]

    def test_best_checkpoint_has_max_dev_uas(self):
        config = small_config(epochs=4)
        log = []
        best, _ = train(self.corpus(), self.corpus(), config, on_epoch=log.append)
        assert best.dev_uas == max(r.dev_uas for r in log)
        # earliest epoch wins ties
        first_best = next(r.epoch for r in log if r.dev_uas == best.dev_uas)
        assert best.epoch == first_best

    def test_best_epoch_before_the_last_is_the_run_stopped_there(self):
        """Seed 9 peaks at epoch 3 of 4.  Its checkpoint is byte for byte the
        model of the same run stopped after epoch 3, whose best is also
        epoch 3 (the earliest epoch wins ties)."""
        log = []
        best, best_bytes = train(self.corpus(), self.corpus(),
                                 small_config(epochs=4, seed=9), on_epoch=log.append)
        assert best.epoch == 3 < len(log)
        stopped, stopped_bytes = train(self.corpus(), self.corpus(),
                                       small_config(epochs=3, seed=9))
        assert stopped.epoch == 3
        assert stopped_bytes == best_bytes

    def test_pretrained_table_is_left_as_read(self):
        """Each run starts from the file's vectors: training on a table
        leaves it unchanged, so a second seed of one command starts where a
        lone run of that seed would."""
        table = load_pretrained(io.StringIO("a 1 0 0\nthe 0 1 0\n"))
        read = table.weights.copy()
        train(self.corpus(), self.corpus(), small_config(epochs=1), pretrained=table)
        assert np.array_equal(table.weights, read)

    def test_same_seed_reproduces_run(self):
        config = small_config(epochs=2)
        log1, log2 = [], []
        _, bytes1 = train(self.corpus(), self.corpus(), config, on_epoch=log1.append)
        _, bytes2 = train(self.corpus(), self.corpus(), config, on_epoch=log2.append)
        assert log1[0].mean_loss == log2[0].mean_loss
        assert [r.dev_uas for r in log1] == [r.dev_uas for r in log2]
        assert bytes1 == bytes2

    def test_different_seed_differs(self):
        c1 = small_config(epochs=1, seed=1)
        c2 = small_config(epochs=1, seed=2)
        _, bytes1 = train(self.corpus(), self.corpus(), c1)
        _, bytes2 = train(self.corpus(), self.corpus(), c2)
        assert bytes1 != bytes2

    def test_checkpoint_loads_back(self):
        config = small_config(epochs=1)
        _, model_bytes = train(self.corpus(), self.corpus(), config)
        model = load_model(io.BytesIO(model_bytes))
        assert model.mode == JOINT

    def test_optimizer_buffers_are_freed_before_the_save(self, monkeypatch):
        """When the best model is saved, the run's Adam (with its moments)
        and its model's arrays (the last values, whose tensors hold the
        gradient buffers) are gone."""
        refs, alive = [], []

        def tracked(model, config):
            optimizer = make_optimizer(model, config)
            refs.append(weakref.ref(optimizer))
            refs.extend(weakref.ref(t.data) for t in model.tensors.values())
            return optimizer

        def save_model(model, f):
            alive.extend(ref() is not None for ref in refs)

        monkeypatch.setattr("dualpointer.training.make_optimizer", tracked)
        monkeypatch.setattr("dualpointer.training.save_model", save_model)
        train(self.corpus(), self.corpus(), small_config(epochs=2))
        assert len(alive) == len(refs) > 1 and not any(alive)

    def test_epoch_callback_streams_rows(self):
        config = small_config(epochs=3)
        seen = []
        train(self.corpus(), self.corpus(), config, on_epoch=seen.append)
        assert [r.epoch for r in seen] == [1, 2, 3]

    def test_on_epoch_is_the_only_report(self, caplog):
        """Each epoch's row leaves train through on_epoch alone, in order;
        train returns the first row with the best dev UAS itself, and a run
        without skipped steps logs nothing."""
        seen = []
        with caplog.at_level(logging.INFO, logger="dualpointer.training"):
            best, _ = train(self.corpus(), self.corpus(), small_config(epochs=4, seed=9),
                            on_epoch=seen.append)
        assert [r for r in caplog.records if r.name == "dualpointer.training"] == []
        assert isinstance(best, EpochRow)
        assert [r.epoch for r in seen] == [1, 2, 3, 4]
        assert all(r.skipped == 0 for r in seen)
        top = max(r.dev_uas for r in seen)
        first = next(r for r in seen if r.dev_uas == top)
        assert (best.epoch, best.dev_uas) == (first.epoch, first.dev_uas)
        assert best is first

    def test_skipped_step_is_counted_and_left_out_of_the_mean(self, monkeypatch, caplog):
        """An optimizer step that reports a non-finite gradient: that
        epoch's row counts one skipped step, its mean loss averages the
        applied steps' losses only, and one warning is logged."""
        losses, steps = [], []
        loss_of, step = training.sentence_loss, Adam.step

        def recorded(*args, **kwargs):
            loss = loss_of(*args, **kwargs)
            losses.append(loss.item())
            return loss

        def third_fails(optimizer):
            steps.append(optimizer)
            return False if len(steps) == 3 else step(optimizer)

        monkeypatch.setattr(training, "sentence_loss", recorded)
        monkeypatch.setattr(Adam, "step", third_fails)
        seen = []
        with caplog.at_level(logging.WARNING, logger="dualpointer.training"):
            train(self.corpus(), self.corpus(), small_config(epochs=1), on_epoch=seen.append)
        (row,) = seen
        applied = losses[:2] + losses[3:]
        assert len(losses) == len(steps) == 12 and row.skipped == 1
        assert row.mean_loss == sum(applied) / len(applied) != sum(losses) / len(losses)
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "non-finite gradient, step skipped" in warnings[0]

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
        with pytest.raises(ValueError, match="has no gold head"):
            train(bad, self.corpus(), config)

    def test_heads_only_training_runs(self):
        config = small_config(epochs=1, mode=HEADS_ONLY)
        _, model_bytes = train(self.corpus(), self.corpus(), config)
        model = load_model(io.BytesIO(model_bytes))
        assert model.mode == HEADS_ONLY
        assert not any(name.startswith("ptr.deps.") for name in model.tensors)
