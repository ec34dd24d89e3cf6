"""Inference and evaluation: merge score matrices, find the top token,
assign heads greedily, repair cycles, score with UAS.

``merge`` turns the pointer nets' score tensors into one activated array,
and ``decode`` turns that array into a tree.  ``decode_corpus`` is the one
inference path; ``parse`` and ``cycle_stats`` are single-variant views of
it.

Token indices here are 1-based to match the treebank convention; a head
value of 0 marks the top token, which :func:`find_top` picks, since there
is no virtual root element.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .conll import ConllError, Sentence
from .autodiff import Tensor
from .model import (VARIANTS, ModelParams, require_variant, score_sentence,
                    sentence_contexts)

__all__ = [
    "AlignmentError",
    "DepTree",
    "gold_trees",
    "merge",
    "find_top",
    "greedy_heads",
    "fix_cycles",
    "decode",
    "decode_corpus",
    "parse",
    "uas",
    "cycle_stats",
]


# tokens encoded as one BiLSTM batch at inference: enough sentences per step
# to turn the recurrent products into matrix products (budgets up to 4,096
# decoded the bundled corpora no faster), while the batch's working arrays
# stay a few tens of megabytes at hidden 200
BATCH_TOKENS = 1024


class AlignmentError(Exception):
    """Gold and predicted corpora do not line up."""


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(x)
    return ad.stable_sigmoid(x)


def _masked(scores: np.ndarray) -> np.ndarray:
    """Copy with the self-head diagonal disabled for argmax/argmin use."""
    out = scores.copy()
    np.fill_diagonal(out, -np.inf)
    return out


@dataclass
class DepTree:
    """A head function: heads[i-1] is the governor of token i, 0 for top."""

    heads: list[int]
    top: int = field(init=False)

    def __post_init__(self):
        problem = self.invariant_violation()
        if problem:
            raise ValueError(f"not a valid dependency tree: {problem}")
        self.top = self.heads.index(0) + 1

    def invariant_violation(self) -> str | None:
        n = len(self.heads)
        tops = [h for h in self.heads if h == 0]
        if len(tops) != 1:
            return f"{len(tops)} top tokens"
        for i, h in enumerate(self.heads, start=1):
            if h == i:
                return f"token {i} is its own head"
            if not 0 <= h <= n:
                return f"head {h} of token {i} out of range"
        cycle = _find_cycle(self.heads)
        return f"cycle through token {cycle[0]}" if cycle else None

    def __len__(self) -> int:
        return len(self.heads)


def gold_trees(corpus: list[Sentence], what: str) -> list[DepTree]:
    """Each sentence's gold heads as a :class:`DepTree`: the one check of a
    gold corpus.  An empty corpus is a ConllError naming the ``what``
    corpus; a missing head, or heads that are not a tree, one naming it and
    the 1-based sentence."""
    if not corpus:
        raise ConllError(f"empty {what} corpus")
    trees = []
    for si, sentence in enumerate(corpus, start=1):
        try:
            trees.append(DepTree(sentence.gold_heads()))
        except ValueError as exc:
            raise ConllError(f"{what} corpus sentence {si}: {exc}") from None
    return trees


def merge(
    heads: Tensor | None,
    deps: Tensor | None,
    variant: str,
    activation: str = "sigmoid",
) -> np.ndarray:
    """One activated n x n array whose entry (i, j) is the belief that j
    heads i; its diagonal is never consulted by selection.

    The variant reads the nets :data:`~dualpointer.model.VARIANTS` names,
    the dependents matrix transposed into head orientation.  p1 averages
    the two pre-activation matrices before activating.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown inference variant {variant!r}")
    given = {"heads": heads, "deps": deps}
    oriented = []
    for tag in VARIANTS[variant][1]:
        if given[tag] is None:
            raise ValueError(f"{variant} needs the {tag} score matrix")
        oriented.append(given[tag].data if tag == "heads" else given[tag].data.T)
    if len(oriented) == 1:
        return _activate(oriented[0], activation)
    h, d = oriented
    if h.shape != d.shape:
        raise ValueError(f"matrix size mismatch: {h.shape} vs {d.shape}")
    return _activate((h + d) / 2.0, activation)


def find_top(scores: np.ndarray, agg: str = "max") -> int:
    """The token whose head pointers are weakest: argmin over i of the
    aggregated off-diagonal row i.  Ties break to the smallest index."""
    masked = _masked(scores)
    if agg == "max":
        row = masked.max(axis=1)
    elif agg == "sum":
        # -inf diagonal would poison sums; zero it instead
        row = np.where(np.isfinite(masked), masked, 0.0).sum(axis=1)
    else:
        raise ValueError(f"unknown root aggregation {agg!r}")
    return int(np.argmin(row)) + 1


def greedy_heads(scores: np.ndarray, top: int) -> list[int]:
    """Per-token argmax head, self excluded, ties to the smallest index;
    may contain cycles."""
    heads = np.argmax(_masked(scores), axis=1) + 1
    heads[top - 1] = 0
    return heads.tolist()


def _find_cycle(heads: list[int]) -> list[int] | None:
    """First cycle by ascending scan, as the node list of the cycle."""
    n = len(heads)
    state = [0] * (n + 1)  # 0 unseen, 1 on current path, 2 done
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        j = start
        while j != 0 and state[j] == 0:
            state[j] = 1
            path.append(j)
            j = heads[j - 1]
        if j != 0 and state[j] == 1:
            return path[path.index(j):]
        for p in path:
            state[p] = 2
    return None


def _reaches(heads: list[int], src: int, dst: int) -> bool:
    """Whether following head links from src arrives at dst."""
    j = src
    steps = 0
    while j != 0 and steps <= len(heads):
        if j == dst:
            return True
        j = heads[j - 1]
        steps += 1
    return False


def fix_cycles(assignment: list[int], scores: np.ndarray, top: int) -> DepTree:
    """Repair the head assignment into a tree.

    Each round: find a cycle, drop its weakest arc (ties to the smallest
    dependent index), and reattach that dependent to its best-scoring
    admissible head, where admissible means any other token that cannot
    reach the dependent through head links (so no new cycle can form).
    The top is never on a cycle and never moves.
    """
    heads = list(assignment)
    if heads[top - 1] != 0:
        raise ValueError(f"assignment does not mark token {top} as top")
    while True:
        cycle = _find_cycle(heads)
        if cycle is None:
            break
        dep = min(cycle, key=lambda i: (scores[i - 1, heads[i - 1] - 1], i))
        heads[dep - 1] = 0  # detach while probing reachability
        best_j, best_score = 0, -np.inf
        for j in range(1, len(heads) + 1):
            if j == dep or _reaches(heads, j, dep):
                continue
            s = scores[dep - 1, j - 1]
            if s > best_score:
                best_j, best_score = j, s
        heads[dep - 1] = best_j
    return DepTree(heads)


def decode(merged: np.ndarray, root_agg: str = "max") -> tuple[DepTree, bool]:
    """Top, greedy heads and cycle repair; also whether the greedy heads
    were already a tree before any repair."""
    top = find_top(merged, root_agg)
    greedy = greedy_heads(merged, top)
    tree = fix_cycles(greedy, merged, top)
    # a repair round moves the dropped arc off its old head, which lies on the
    # cycle and so can reach the dependent: heads change iff greedy had a cycle
    return tree, tree.heads == greedy


def _batches(corpus: list[Sentence]):
    """Runs of consecutive sentences, each of at most :data:`BATCH_TOKENS`
    tokens in all; a longer sentence is a batch of its own."""
    batch, tokens = [], 0
    for sentence in corpus:
        if batch and tokens + len(sentence) > BATCH_TOKENS:
            yield batch
            batch, tokens = [], 0
        batch.append(sentence)
        tokens += len(sentence)
    if batch:
        yield batch


def decode_corpus(
    corpus: list[Sentence],
    model: ModelParams,
    variants: tuple[str, ...],
    root_agg: str = "max",
) -> dict[str, tuple[list[DepTree], float]]:
    """Encode the corpus a batch at a time, score each sentence once from
    its context rows and decode every variant from its matrices.

    Returns variant -> (trees in input order, fraction of sentences whose
    greedy decode was already a tree); an empty corpus counts as fully
    cycle-free.

    A sentence's context rows come from BiLSTM products shared with its
    batch neighbours, each step's and level 0's over the batch's distinct
    words, whose rounding depends on how many rows they have (about 1e-15
    relative).  So a head chosen on a near-tie can differ between decoding
    a sentence inside a corpus and decoding it alone.  The pointer nets
    project each sentence's rows on their own, adding no such dependence.
    """
    for variant in variants:
        require_variant(model, variant)
    trees = {v: [] for v in variants}
    clean = dict.fromkeys(variants, 0)
    for batch in _batches(corpus):
        with ad.no_grad():
            contexts = sentence_contexts(model, batch)
            scored = [score_sentence(model, s, contexts=c) for s, c in zip(batch, contexts)]
        for sentence_scores in scored:
            for variant in variants:
                merged = merge(sentence_scores.heads, sentence_scores.deps, variant,
                               model.shape.activation)
                tree, was_tree = decode(merged, root_agg)
                trees[variant].append(tree)
                clean[variant] += was_tree
    return {v: (trees[v], clean[v] / len(corpus) if corpus else 1.0) for v in variants}


def parse(
    corpus: list[Sentence],
    model: ModelParams,
    variant: str = "p1",
    root_agg: str = "max",
) -> list[DepTree]:
    """Full inference pipeline: each sentence's tree, in input order."""
    return decode_corpus(corpus, model, (variant,), root_agg)[variant][0]


def uas(
    gold: list[Sentence],
    predicted: list[DepTree],
    punct_tags: tuple[str, ...] = (),
) -> float:
    """Unlabeled attachment score, in percent.

    Counts non-punctuation tokens whose predicted head matches the gold
    head (the top is correct iff its gold head is 0).  A token is
    punctuation when its tag is in ``punct_tags`` or is made only of
    Unicode punctuation characters (the PTB style: ".", ",", "``"); a
    missing or empty tag always counts.  With no countable tokens at all
    the score is vacuously 100.
    """
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"{len(gold)} gold sentences against {len(predicted)} predictions"
        )
    correct = total = 0
    punct: dict[str | None, bool] = {}  # each distinct tag decided once
    for si, (sent, tree) in enumerate(zip(gold, predicted)):
        if len(sent) != len(tree):
            raise AlignmentError(
                f"sentence {si + 1}: {len(sent)} gold tokens against {len(tree)} predicted"
            )
        heads = sent.gold_heads()
        for tok, g, p in zip(sent.tokens, heads, tree.heads):
            pos = tok.pos
            if pos not in punct:
                punct[pos] = bool(pos) and (
                    pos in punct_tags
                    or all(unicodedata.category(ch).startswith("P") for ch in pos))
            if punct[pos]:
                continue
            total += 1
            correct += g == p
    return 100.0 * correct / total if total else 100.0


def cycle_stats(
    corpus: list[Sentence],
    model: ModelParams,
    variant: str = "p1",
    root_agg: str = "max",
) -> float:
    """Fraction of sentences whose greedy decode is already a valid tree
    before any cycle repair."""
    return decode_corpus(corpus, model, (variant,), root_agg)[variant][1]
