"""Inference and evaluation: merge score matrices, find the top token,
assign heads greedily, repair cycles, score with UAS.

``decode`` turns one merged matrix into a tree (top, greedy heads, cycle
repair) and says whether the greedy heads were already a tree.
``decode_corpus`` is the one inference path: it scores each sentence once
and decodes every requested variant from those two matrices; ``parse`` and
``cycle_stats`` are single-variant views of it.

Token indices here are 1-based to match the treebank convention; a head
value of 0 marks the top token.  There is no virtual root element: the top
is detected as the token whose head pointers are weakest across the board.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .conll import Sentence
from .model import ModelParams, VARIANT_REQUIRES, require_variant, score_sentence
from .pointer import DEPENDENTS, HEADS, ScoreMatrix

__all__ = [
    "AlignmentError",
    "MergedHeadScores",
    "DepTree",
    "PunctuationPolicy",
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


class AlignmentError(Exception):
    """Gold and predicted corpora do not line up."""


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(x)
    return ad.stable_sigmoid(x)


@dataclass
class MergedHeadScores:
    """n x n activated matrix; entry (i, j) is the belief that j heads i.
    The diagonal is never consulted by selection."""

    m: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def masked(self) -> np.ndarray:
        """Copy with the self-head diagonal disabled for argmax/argmin use."""
        out = self.m.copy()
        np.fill_diagonal(out, -np.inf)
        return out


@dataclass
class DepTree:
    """A head function: heads[i-1] is the governor of token i, 0 for top."""

    heads: list[int]
    top: int = field(init=False)

    def __post_init__(self):
        tops = [i + 1 for i, h in enumerate(self.heads) if h == 0]
        self.top = tops[0] if len(tops) == 1 else 0
        problem = self.invariant_violation()
        if problem:
            raise ValueError(f"not a valid dependency tree: {problem}")

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
        for i in range(1, n + 1):
            seen = set()
            j = i
            while j != 0:
                if j in seen:
                    return f"cycle through token {j}"
                seen.add(j)
                j = self.heads[j - 1]
        return None

    def __len__(self) -> int:
        return len(self.heads)


def merge(
    heads_scores: ScoreMatrix | None,
    deps_scores: ScoreMatrix | None,
    variant: str,
    activation: str = "sigmoid",
) -> MergedHeadScores:
    """Combine score matrices into one activated head-selection matrix.

    p1 averages the two pre-activation matrices (the dependents matrix
    transposed into head orientation) before activating; p2/p4 use the
    heads matrix alone, p3/p5 the dependents matrix alone.
    """
    if variant not in VARIANT_REQUIRES:
        raise ValueError(f"unknown inference variant {variant!r}")
    if variant == "p1":
        if heads_scores is None or deps_scores is None:
            raise ValueError("p1 needs both score matrices")
        if heads_scores.orientation != HEADS or deps_scores.orientation != DEPENDENTS:
            raise ValueError("p1 matrices must be (heads, dependents) oriented")
        h, d = heads_scores.data, deps_scores.data
        if h.shape != d.shape:
            raise ValueError(f"matrix size mismatch: {h.shape} vs {d.shape}")
        return MergedHeadScores(_activate((h + d.T) / 2.0, activation))
    if variant in ("p2", "p4"):
        if heads_scores is None or heads_scores.orientation != HEADS:
            raise ValueError(f"{variant} needs the heads-oriented matrix")
        return MergedHeadScores(_activate(heads_scores.data, activation))
    if deps_scores is None or deps_scores.orientation != DEPENDENTS:
        raise ValueError(f"{variant} needs the dependents-oriented matrix")
    return MergedHeadScores(_activate(deps_scores.data.T, activation))


def find_top(scores: MergedHeadScores, agg: str = "max") -> int:
    """The token whose head pointers are weakest: argmin over i of the
    aggregated off-diagonal row i.  Ties break to the smallest index."""
    n = scores.n
    if n == 1:
        return 1
    masked = scores.masked()
    if agg == "max":
        row = masked.max(axis=1)
    elif agg == "sum":
        # -inf diagonal would poison sums; zero it instead
        row = np.where(np.isfinite(masked), masked, 0.0).sum(axis=1)
    else:
        raise ValueError(f"unknown root aggregation {agg!r}")
    return int(np.argmin(row)) + 1


def greedy_heads(scores: MergedHeadScores, top: int) -> list[int]:
    """Per-token argmax head, self excluded; may contain cycles."""
    n = scores.n
    masked = scores.masked()
    heads = []
    for i in range(1, n + 1):
        if i == top:
            heads.append(0)
        else:
            heads.append(int(np.argmax(masked[i - 1])) + 1)
    return heads


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


def fix_cycles(assignment: list[int], scores: MergedHeadScores, top: int) -> DepTree:
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
    m = scores.m
    while True:
        cycle = _find_cycle(heads)
        if cycle is None:
            break
        dep = min(cycle, key=lambda i: (m[i - 1, heads[i - 1] - 1], i))
        heads[dep - 1] = 0  # detach while probing reachability
        best_j, best_score = 0, -np.inf
        for j in range(1, len(heads) + 1):
            if j == dep or _reaches(heads, j, dep):
                continue
            s = m[dep - 1, j - 1]
            if s > best_score:
                best_j, best_score = j, s
        heads[dep - 1] = best_j
    return DepTree(heads)


def decode(merged: MergedHeadScores, root_agg: str = "max") -> tuple[DepTree, bool]:
    """Top, greedy heads and cycle repair; also whether the greedy heads
    were already a tree before any repair."""
    top = find_top(merged, root_agg)
    greedy = greedy_heads(merged, top)
    tree = fix_cycles(greedy, merged, top)
    # a repair round moves the dropped arc off its old head, which lies on the
    # cycle and so can reach the dependent: heads change iff greedy had a cycle
    return tree, tree.heads == greedy


def decode_corpus(
    corpus: list[Sentence],
    model: ModelParams,
    variants: tuple[str, ...],
    root_agg: str = "max",
) -> dict[str, tuple[list[DepTree], float]]:
    """Score each sentence once and decode every variant from its matrices.

    Returns variant -> (trees, fraction of sentences whose greedy decode was
    already a tree); an empty corpus counts as fully cycle-free.
    """
    for variant in variants:
        require_variant(model, variant)
    trees = {v: [] for v in variants}
    clean = dict.fromkeys(variants, 0)
    for sentence in corpus:
        with ad.no_grad():
            scored = score_sentence(model, sentence, training=False)
        for variant in variants:
            merged = merge(scored.heads, scored.deps, variant, model.activation)
            tree, was_tree = decode(merged, root_agg)
            trees[variant].append(tree)
            clean[variant] += was_tree
    return {v: (trees[v], clean[v] / len(corpus) if corpus else 1.0) for v in variants}


def parse(
    sentence: Sentence,
    model: ModelParams,
    variant: str = "p1",
    root_agg: str = "max",
) -> DepTree:
    """Full inference pipeline for one sentence."""
    return decode_corpus([sentence], model, (variant,), root_agg)[variant][0][0]


@dataclass
class PunctuationPolicy:
    """Which tokens to skip when scoring attachments.

    A token is punctuation when its tag is in ``extra_tags``, or when the
    tag consists solely of Unicode punctuation characters (the PTB style:
    ".", ",", "``").  Tokens without a tag always count.
    """

    extra_tags: frozenset[str] = frozenset()

    def is_punct(self, pos: str | None) -> bool:
        if pos is None or pos == "":
            return False
        if pos in self.extra_tags:
            return True
        return all(unicodedata.category(ch).startswith("P") for ch in pos)


def uas(
    gold: list[Sentence],
    predicted: list[DepTree],
    punct: PunctuationPolicy | None = None,
) -> float:
    """Unlabeled attachment score, in percent.

    Counts non-punctuation tokens whose predicted head matches the gold
    head (the top is correct iff its gold head is 0).  With no countable
    tokens at all the score is vacuously 100.
    """
    punct = punct or PunctuationPolicy()
    if len(gold) != len(predicted):
        raise AlignmentError(
            f"{len(gold)} gold sentences against {len(predicted)} predictions"
        )
    correct = total = 0
    for si, (sent, tree) in enumerate(zip(gold, predicted)):
        if len(sent) != len(tree):
            raise AlignmentError(
                f"sentence {si + 1}: {len(sent)} gold tokens against {len(tree)} predicted"
            )
        heads = sent.gold_heads()
        for tok, g, p in zip(sent.tokens, heads, tree.heads):
            if punct.is_punct(tok.pos):
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
