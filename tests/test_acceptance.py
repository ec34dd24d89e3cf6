"""Release acceptance gate.

One test per criterion, each printing a single PASS/FAIL line with the
measured quantity next to its threshold.  The ablation sweep is the only
slow test; everything else runs in the default suite.
"""
import io
import time

import numpy as np
import pytest
from corpora import bundled

from dualpointer.config import RunConfig
from dualpointer.conll import Sentence, Token
from dualpointer.decoding import (
    DepTree,
    cycle_stats,
    find_top,
    fix_cycles,
    greedy_heads,
    merge,
    parse,
    uas,
)
from dualpointer.gradcheck import run_gradcheck
from dualpointer.model import ModelShape, score_sentence
from dualpointer.modelio import load_model, save_model
from dualpointer.pointer import target_matrix
from dualpointer.training import train

import dualpointer.autodiff as ad


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{criterion}: {detail}"


def random_gold_sentence(rng, n):
    order = rng.permutation(n)
    heads = [0] * n
    for pos in range(1, n):
        heads[order[pos]] = int(order[rng.integers(0, pos)]) + 1
    return Sentence([
        Token(i + 1, f"w{i}", None, heads[i]) for i in range(n)
    ])


def random_matrix_pair(rng, n):
    h = ad.Tensor(rng.uniform(-3.0, 3.0, (n, n)))
    d = ad.Tensor(rng.uniform(-3.0, 3.0, (n, n)))
    return h, d


@pytest.fixture(scope="module")
def overfit():
    """Criterion 2 training run, shared with criterion 7."""
    corpus = bundled("toy")
    config = RunConfig(mode="joint", epochs=50, seeds=(1,), bilstm_hidden=64)
    started = time.perf_counter()
    log = []
    best, model_bytes = train(corpus, corpus, config, on_epoch=log.append)
    seconds = time.perf_counter() - started
    return corpus, best, model_bytes, log, seconds


def test_criterion_1_gradient_integrity():
    report_obj = run_gradcheck(seed=1, n_tokens=5, shape=ModelShape(bilstm_hidden=16))
    report(
        "1 gradient integrity",
        report_obj.passed and report_obj.seconds < 120.0,
        f"worst rel err {report_obj.worst:.3e} vs 1e-4, "
        f"{report_obj.seconds:.1f}s vs 120s",
    )


def test_criterion_2_overfit_convergence(overfit):
    corpus, best, _, log, seconds = overfit
    lengths = {len(s.tokens) for s in corpus}
    assert len(corpus) >= 50 and min(lengths) >= 3 and max(lengths) <= 10
    report(
        "2 overfit convergence",
        best.dev_uas >= 98.0 and best.epoch <= 50 and seconds < 600.0,
        f"UAS {best.dev_uas:.2f} vs 98 at epoch {best.epoch}, "
        f"{seconds:.0f}s vs 600s",
    )


def test_criterion_3_tree_validity():
    rng = np.random.default_rng(33)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        h, d = random_matrix_pair(rng, n)
        merged = merge(h, d, "p1")
        top = find_top(merged)
        tree = fix_cycles(greedy_heads(merged, top), merged, top)
        if not (tree.invariant_violation() is None and tree.top == top):
            failures += 1
    report("3 tree validity", failures == 0, f"{failures} failures in 1000")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(44)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        h, d = random_matrix_pair(rng, n)
        merged = merge(h, d, "p1")
        top = find_top(merged)
        got = greedy_heads(merged, top)
        masked = merged.copy()
        np.fill_diagonal(masked, -np.inf)
        expected = [
            0 if i + 1 == top else int(np.argmax(masked[i])) + 1
            for i in range(n)
        ]
        if got != expected:
            mismatches += 1
    transpose_breaks = 0
    for _ in range(100):
        n = int(rng.integers(1, 10))
        sentence = random_gold_sentence(rng, n)
        a = target_matrix(sentence, "heads")
        b = target_matrix(sentence, "deps")
        if not np.array_equal(a, b.T):
            transpose_breaks += 1
    report(
        "4 oracle equivalence",
        mismatches == 0 and transpose_breaks == 0,
        f"{mismatches} greedy mismatches in 1000, "
        f"{transpose_breaks} transpose breaks in 100",
    )


@pytest.mark.slow
def test_criterion_5_ablation_direction():
    train_set = bundled("ambiguous-train")
    dev_set = bundled("ambiguous-dev")
    assert len(train_set) >= 2000 and len(dev_set) >= 200
    seeds = (1, 2, 3)
    scores: dict[str, list[float]] = {v: [] for v in ("p1", "p2", "p3", "p4", "p5")}
    for mode, variants in (
        ("joint", ("p1", "p2", "p3")),
        ("heads-only", ("p4",)),
        ("deps-only", ("p5",)),
    ):
        for seed in seeds:
            config = RunConfig(mode=mode, epochs=5, seeds=(seed,))
            _, model_bytes = train(train_set, dev_set, config)
            model = load_model(io.BytesIO(model_bytes))
            for variant in variants:
                trees = parse(dev_set, model, variant=variant)
                scores[variant].append(uas(dev_set, trees))
    print()
    for variant, values in scores.items():
        row = "  ".join(f"{v:.2f}" for v in values)
        print(f"  {variant}: seeds {row}  mean {sum(values) / len(values):.2f}")
    means = {v: sum(vals) / len(vals) for v, vals in scores.items()}
    report(
        "5 ablation direction",
        means["p1"] >= means["p4"] - 0.2 and means["p1"] >= means["p5"] - 0.2,
        f"p1 {means['p1']:.2f} vs p4 {means['p4']:.2f} and "
        f"p5 {means['p5']:.2f}, tolerance 0.2",
    )


def test_criterion_6_determinism_and_serialization():
    corpus = bundled("toy", 16)
    config = RunConfig(epochs=2, seeds=(9,), d_pretrained=8, d_random=8,
                       bilstm_hidden=6, ptr_hidden=8)
    _, first = train(corpus, corpus, config)
    _, second = train(corpus, corpus, config)
    identical = first == second

    model = load_model(io.BytesIO(first))
    buffer = io.BytesIO()
    save_model(model, buffer)
    buffer.seek(0)
    reloaded = load_model(buffer)
    bit_exact = True
    for sentence in corpus[:5]:
        a = score_sentence(model, sentence)
        b = score_sentence(reloaded, sentence)
        pair = merge(a.heads, a.deps, "p1"), merge(b.heads, b.deps, "p1")
        if not np.array_equal(pair[0], pair[1]):
            bit_exact = False
    report(
        "6 determinism and serialization",
        identical and bit_exact,
        f"byte-identical files: {identical}, bit-exact scores: {bit_exact}",
    )


def test_criterion_7_cycle_free_diagnostic(overfit):
    corpus, _, model_bytes, _, _ = overfit
    fraction = cycle_stats(corpus, load_model(io.BytesIO(model_bytes)), variant="p1")
    report(
        "7 cycle-free diagnostic",
        fraction >= 0.9,
        f"tree-valid before repair {fraction:.3f} vs 0.90",
    )
