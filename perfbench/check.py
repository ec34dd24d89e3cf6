"""Checks of the parser's outputs against computations made apart from it.

- every tree ``parse`` wrote is a valid tree over the input's tokens;
- the attachment score of the ``parse`` output, computed here, equals the
  p1 ``uas`` that ``eval`` prints;
- greedy heads recomputed here with plain numpy from ``score_sentence``
  (sigmoid of the merged scores, argmin top, argmax heads) equal the
  parsed heads wherever they form a tree, and the share of such sentences
  equals the ``cycle-free`` value ``eval`` prints for p1, p2 and p3;
- training skipped no step and its last epoch's loss is below its first.
"""
from __future__ import annotations

import re
import unicodedata
from pathlib import Path

import numpy as np

from workloads import heads_of, read_rows, tree_violation

EPOCH_LINE = re.compile(r"^seed \d+ epoch (\d+)  loss (\S+)  dev-uas \S+(?:  skipped (\d+))?$")
EVAL_LINE = re.compile(r"^seed \d+  (p\d)  uas (\S+)  cycle-free (\S+)$")


def train_report(stdout: str, epochs: int) -> tuple[list[str], int]:
    """Problems with a ``train`` log, and the number of skipped steps."""
    rows = [m.groups() for m in map(EPOCH_LINE.match, stdout.splitlines()) if m]
    if [int(r[0]) for r in rows] != list(range(1, epochs + 1)):
        return [f"train printed epochs {[r[0] for r in rows]}, expected 1..{epochs}"], 0
    skipped = sum(int(r[2] or 0) for r in rows)
    problems = []
    if skipped:
        problems.append(f"training skipped {skipped} steps")
    first, last = float(rows[0][1]), float(rows[-1][1])
    if not last < first:
        problems.append(f"last epoch loss {last} is not below the first {first}")
    return problems, skipped


def eval_report(stdout: str) -> dict[str, tuple[str, str]]:
    """variant -> (printed uas, printed cycle-free)."""
    return {m[1]: (m[2], m[3]) for m in map(EVAL_LINE.match, stdout.splitlines()) if m}


def tag(row: list[str]) -> str:
    """The tag punctuation is judged by: UPOS, else XPOS, else none."""
    return next((t for t in row[3:5] if t != "_"), "")


def is_punct(pos: str) -> bool:
    return pos != "" and all(unicodedata.category(ch).startswith("P") for ch in pos)


def attachment_score(gold: list[list[int]], predicted: list[list[int]], tags) -> float:
    correct = total = 0
    for g_heads, p_heads, s_tags in zip(gold, predicted, tags):
        for g, p, pos in zip(g_heads, p_heads, s_tags):
            if is_punct(pos):
                continue
            total += 1
            correct += g == p
    return 100.0 * correct / total if total else 100.0


def parsed_output(test_path: Path, output_path: Path) -> tuple[list[str], list[list[int]], int]:
    """Problems with ``parse`` output, its heads, and how many trees are invalid."""
    gold = read_rows(test_path)
    out = read_rows(output_path)
    if len(out) != len(gold):
        return [f"parse wrote {len(out)} sentences for {len(gold)} inputs"], [], len(gold)
    problems, heads, invalid = [], [], 0
    for si, (g, o) in enumerate(zip(gold, out), start=1):
        if [r[1] for r in g] != [r[1] for r in o]:
            problems.append(f"sentence {si}: parse changed the tokens")
        try:
            h = heads_of(o)
        except ValueError:
            h = []
        problem = tree_violation(h) if h else "unreadable heads"
        if problem:
            invalid += 1
            problems.append(f"sentence {si}: parse wrote a non-tree ({problem})")
        heads.append(h)
    return problems, heads, invalid


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -700.0, 700.0)))


def greedy(m: np.ndarray) -> list[int]:
    """Argmin-of-row-max top and per-row argmax heads, diagonal excluded."""
    n = m.shape[0]
    if n == 1:
        return [0]
    masked = m.copy()
    np.fill_diagonal(masked, -np.inf)
    top = int(np.argmin(masked.max(axis=1)))
    heads = [int(j) + 1 for j in np.argmax(masked, axis=1)]
    heads[top] = 0
    return heads


def greedy_report(dp, model_path: Path, test_path: Path, parsed: list[list[int]],
                  printed: dict[str, tuple[str, str]]) -> list[str]:
    """Recompute greedy heads from the model's scores and hold ``parse`` and
    the ``cycle-free`` figures of ``eval`` to them."""
    model = dp.modelio.load_model(str(model_path))
    with test_path.open(encoding="utf-8") as f:
        sentences = dp.conll.read_conll(f)
    trees = {"p1": 0, "p2": 0, "p3": 0}
    problems = []
    for si, sentence in enumerate(sentences):
        with dp.autodiff.no_grad():
            scored = dp.model.score_sentence(model, sentence, training=False)
        h, d = scored.heads.data, scored.deps.data
        for variant, raw in (("p1", (h + d.T) / 2.0), ("p2", h), ("p3", d.T)):
            heads = greedy(sigmoid(raw))
            if tree_violation(heads) is None:
                trees[variant] += 1
                if variant == "p1" and si < len(parsed) and heads != parsed[si]:
                    problems.append(f"sentence {si + 1}: parse {parsed[si]} differs "
                                    f"from the cycle-free greedy heads {heads}")
    for variant, count in trees.items():
        mine = f"{count / len(sentences):.4f}"
        shown = printed.get(variant, (None, None))[1]
        if mine != shown:
            problems.append(f"{variant} cycle-free: eval printed {shown}, recomputed {mine}")
    return problems


def uas_report(test_path: Path, parsed: list[list[int]],
               printed: dict[str, tuple[str, str]]) -> tuple[list[str], float]:
    gold = read_rows(test_path)
    score = attachment_score([heads_of(s) for s in gold], parsed,
                             [[tag(r) for r in s] for s in gold])
    shown = printed.get("p1", (None, None))[0]
    if f"{score:.10f}" != shown:
        return [f"p1 uas: eval printed {shown}, recomputed {score:.10f}"], score
    return [], score
