"""The parser's surface that the benchmark in ``perfbench/`` drives.

The benchmark wraps names of the ``dualpointer`` modules with its tracer,
and its set-up pass and output checks call the parser directly.  These
tests make the same calls on a tiny model, so a rename in ``src/`` fails
here rather than only when the benchmark runs.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import dualpointer
import dualpointer.cli  # noqa: F401  (loads every module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent
TOY = str(ROOT / "data" / "toy.conllu")
SIZES = ["--d-pretrained", "3", "--d-random", "4", "--bilstm-hidden", "4",
         "--ptr-hidden", "5"]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    yield tracing
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


@pytest.fixture
def check(tracing):
    import check
    yield check
    sys.modules.pop("check", None)


def test_tracer_installs_times_and_uninstalls(tracing, tmp_path, capsys):
    dp = dualpointer
    owners = []
    for module, attr, _ in tracing.TIMED:
        owner = getattr(dp, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        owners.append((owner, attr, getattr(owner, attr)))
    owners.append((dp.autodiff, "make_node", dp.autodiff.make_node))

    model, parsed = str(tmp_path / "model.bin"), str(tmp_path / "parsed.conllu")
    lines = {
        "train": ["train", "--train", TOY, "--dev", TOY, "--model", model,
                  "--epochs", "1", "--seeds", "1"] + SIZES,
        "parse": ["parse", "--model", model, "--test", TOY, "--output", parsed],
        "eval": ["eval", "--model", model, "--test", TOY],
    }
    tracer = tracing.Tracer(dp)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in owners)
        for command, argv in lines.items():
            tracer.command = command
            assert dp.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(owner, attr) is original for owner, attr, original in owners)

    seen = {(command, name) for name, command, *_ in tracer.spans}
    for command, name in [
        ("train", "model.init"), ("train", "encoder.embed"), ("train", "encoder.bilstm"),
        ("train", "pointer.score"), ("train", "training.loss"),
        ("train", "autodiff.backward"), ("train", "optim.adam"),
        ("train", "training.dev_parse"), ("train", "modelio.save"),
        ("parse", "modelio.load"), ("parse", "model.score"), ("parse", "decoding.greedy"),
        ("parse", "conll.write"), ("eval", "modelio.load"), ("eval", "decoding.merge"),
    ]:
        assert (command, name) in seen, (command, name)
    assert tracer.nodes > 0
    # corpus decoding encodes sentences in batches, yet still scores each
    # sentence once and times the BiLSTM, which the per-sentence metrics read
    with open(TOY, encoding="utf-8") as f:
        sentences = len(dp.conll.read_conll(f))
    for command in ("parse", "eval"):
        scored = [span for span in tracer.spans if span[:2] == ("model.score", command)]
        assert len(scored) == sentences, command
        assert (command, "encoder.bilstm") in seen, command


def test_setup_pass_and_output_check_calls(tmp_path):
    """The calls of the benchmark's set-up pass (``run.setup_seconds``) and
    of its greedy-heads check (``check.greedy_report``)."""
    dp = dualpointer
    cli, training = dp.cli, dp.training
    parser = cli.build_arg_parser()
    path = tmp_path / "model.bin"
    run = cli.effective_config(parser.parse_args(
        ["train", "--train", TOY, "--dev", TOY, "--model", str(path), "--seeds", "2"] + SIZES))
    with open(run.train_path, encoding="utf-8") as f:
        train_set = cli.read_conll(f)
    config = run.train_config(run.seeds[0])
    model = training.init_model(
        np.random.default_rng(config.seed), training.build_vocab(train_set), mode=config.mode,
        d_pretrained=config.d_pretrained, d_random=config.d_random,
        bilstm_hidden=config.bilstm_hidden, bilstm_levels=config.bilstm_levels,
        ptr_hidden=config.ptr_hidden, activation=config.activation)
    training.make_optimizer(model, config)
    training.save_model(model, str(path))
    run = cli.effective_config(parser.parse_args(["eval", "--model", str(path), "--test", TOY]))
    cli.load_model(run.model_path)

    loaded = dp.modelio.load_model(str(path))
    with open(TOY, encoding="utf-8") as f:
        sentence = dp.conll.read_conll(f)[0]
    with dp.autodiff.no_grad():
        scored = dp.model.score_sentence(loaded, sentence, training=False)
    n = len(sentence)
    assert scored.heads.data.shape == scored.deps.data.shape == (n, n)


def test_output_checks_pass_on_tiny_model(check, tmp_path, capsys):
    """The benchmark's own checks of ``parse`` and ``eval`` output, among
    them the greedy heads it recomputes from ``score_sentence``'s matrices
    read in their nets' own orientations."""
    model, parsed, test = tmp_path / "model.bin", tmp_path / "parsed.conllu", Path(TOY)
    main = dualpointer.cli.main
    assert main(["train", "--train", TOY, "--dev", TOY, "--model", str(model),
                 "--epochs", "1", "--seeds", "1"] + SIZES) == 0
    assert main(["parse", "--model", str(model), "--test", TOY, "--output", str(parsed)]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", TOY]) == 0
    printed = check.eval_report(capsys.readouterr().out)
    assert set(printed) == {"p1", "p2", "p3"}

    problems, heads, invalid = check.parsed_output(test, parsed)
    assert problems == [] and invalid == 0
    problems, _ = check.uas_report(test, heads, printed)
    assert problems == []
    assert check.greedy_report(dualpointer, model, test, heads, printed) == []
