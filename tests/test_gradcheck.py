"""Gradient-check harness: honest pass on a fresh model, detection of a
corrupted backward rule, coverage and determinism of the report."""
from dataclasses import replace

import numpy as np
import pytest

import dualpointer.autodiff as ad
from dualpointer import gradcheck, training
from dualpointer.cli import main
from dualpointer.decoding import DepTree
from dualpointer.gradcheck import (
    GradCheckReport,
    TensorCheck,
    compare,
    format_report,
    random_sentence,
    run_gradcheck,
)
from dualpointer.model import ModelShape

SHAPE = ModelShape(d_pretrained=6, d_random=7, bilstm_hidden=5, ptr_hidden=6)
SAMPLING = dict(samples_per_tensor=10, directions_per_tensor=1)
SMALL = dict(shape=SHAPE, **SAMPLING)


def test_fresh_init_passes():
    report = run_gradcheck(seed=3, **SMALL)
    assert report.passed
    assert report.worst < report.tolerance
    assert report.seconds < 60


def test_report_covers_every_parameter_tensor():
    report = run_gradcheck(seed=3, **SMALL)
    names = [c.name for c in report.checks]
    assert names == [
        "emb.pretrained", "emb.random",
        "lstm.l0.fwd.w", "lstm.l0.fwd.b", "lstm.l0.bwd.w", "lstm.l0.bwd.b",
        "lstm.l1.fwd.w", "lstm.l1.fwd.b", "lstm.l1.bwd.w", "lstm.l1.bwd.b",
        "ptr.heads.w", "ptr.heads.b", "ptr.heads.v",
        "ptr.deps.w", "ptr.deps.b", "ptr.deps.v",
    ]
    assert all(c.checked > 0 for c in report.checks)


def test_single_task_reports_only_owned_net():
    report = run_gradcheck(seed=3, shape=replace(SHAPE, mode="heads-only"), **SAMPLING)
    names = [c.name for c in report.checks]
    assert "ptr.heads.w" in names
    assert not any("deps" in n for n in names)
    assert report.passed


def test_long_sentence_passes():
    """120 tokens: gradients through 120 LSTM steps each way and a 120 x 120
    score matrix still match finite differences."""
    small = ModelShape(d_pretrained=3, d_random=3, bilstm_hidden=3, ptr_hidden=3)
    report = run_gradcheck(seed=4, n_tokens=120, shape=small, **SAMPLING)
    assert report.passed, format_report(report)


def test_tanh_output_variant_passes():
    report = run_gradcheck(seed=3, shape=replace(SHAPE, activation="tanh"), **SAMPLING)
    assert report.passed


def test_same_seed_reproduces_report():
    r1 = run_gradcheck(seed=9, **SMALL)
    r2 = run_gradcheck(seed=9, **SMALL)
    assert [c.worst for c in r1.checks] == [c.worst for c in r2.checks]


def test_corrupted_backward_rule_fails(monkeypatch):
    # negative control: a wrong tanh derivative must be caught, otherwise
    # a pass from this harness means nothing
    def wrong(out_data, g):
        return g * (1.0 - out_data)

    monkeypatch.setattr(ad, "_tanh_backward", wrong)
    report = run_gradcheck(seed=3, **SMALL)
    assert not report.passed
    assert report.worst > report.tolerance


def test_corrupted_sigmoid_backward_fails(monkeypatch):
    def wrong(out_data, g):
        return g * out_data

    monkeypatch.setattr(ad, "_sigmoid_backward", wrong)
    report = run_gradcheck(seed=3, **SMALL)
    assert not report.passed


def test_one_wrong_entry_fails_where_it_is(monkeypatch):
    # negative control: a backward rule wrong in one entry only must be
    # caught and named by the entry probes once they cover the tensor (no
    # random direction, which may read the same fault as a larger error)
    made = []
    init, backward = gradcheck.init_model, ad.Tensor.backward

    def init_and_keep(*args, **kwargs):
        made.append(init(*args, **kwargs))
        return made[-1]

    def offset(self):
        backward(self)
        param = made[-1].tensors["ptr.heads.b"]
        param.grad = np.array(param.grad)
        param.grad[3] += 1e-3

    monkeypatch.setattr(gradcheck, "init_model", init_and_keep)
    monkeypatch.setattr(ad.Tensor, "backward", offset)
    report = run_gradcheck(seed=3, shape=SHAPE, samples_per_tensor=SHAPE.ptr_hidden,
                           directions_per_tensor=0)
    checks = {c.name: c for c in report.checks}
    assert not report.passed
    assert checks["ptr.heads.b"].checked == SHAPE.ptr_hidden
    assert checks["ptr.heads.b"].worst_at == "entry 3"
    assert report.worst == checks["ptr.heads.b"].worst > report.tolerance


def poison_score_gradient(monkeypatch):
    """Make the output loss's backward write NaN into one entry of each
    net's score gradient, so NaN reaches every parameter gradient while
    every loss value stays finite."""
    fused = training.output_loss

    def poisoned(scores, targets, activation):
        loss = fused(scores, targets, activation)
        rule = loss._backward
        if rule is not None:
            def backward(g):
                grads = tuple(gs.copy() for gs in rule(g))
                for gs in grads:
                    gs.flat[0] = np.nan
                return grads

            loss._backward = backward
        return loss

    monkeypatch.setattr(training, "output_loss", poisoned)


def test_nan_gradient_fails(monkeypatch):
    # negative control: NaN compares False against any error, so it must
    # not read as a zero error
    poison_score_gradient(monkeypatch)
    report = run_gradcheck(seed=3, **SMALL)
    assert not report.passed
    assert [c.worst for c in report.checks] == [np.inf] * len(report.checks)
    assert "FAIL" in format_report(report)


def test_nan_gradient_fails_the_command(monkeypatch, capsys):
    poison_score_gradient(monkeypatch)
    code = main(["gradcheck", "--seeds", "2", "--d-pretrained", "5", "--d-random", "5",
                 "--bilstm-hidden", "4", "--ptr-hidden", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:gradcheck:") and err.count("\n") == 1, err


def test_compare_is_inf_when_not_finite():
    for analytic, numeric in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)):
        assert compare(analytic, numeric) == np.inf


def test_compare_is_absolute_near_zero():
    assert compare(0.0, 1e-11) < 1e-4
    assert compare(1.0, 1.0) == 0.0
    assert compare(1.0, 2.0) == pytest.approx(0.5)


def test_random_sentence_gold_trees():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 9):
            s = random_sentence(rng, n)
            assert len(s.tokens) == n
            DepTree(s.gold_heads())


def test_format_report_lines():
    report = run_gradcheck(seed=3, **SMALL)
    text = format_report(report)
    lines = text.splitlines()
    assert len(lines) == len(report.checks) + 1
    assert all(c.name in line for c, line in zip(report.checks, lines))
    assert "PASS" in lines[-1]


def test_format_report_failure_verdict():
    report = GradCheckReport(
        checks=[TensorCheck("emb.random", 4, 4, 0.5, "entry 0")],
    )
    assert not report.passed
    assert "FAIL" in format_report(report)


def test_empty_report_never_passes():
    assert not GradCheckReport().passed
