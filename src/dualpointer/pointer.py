"""Pointer-style additive attention with independent per-position outputs.

Two instances of the same scorer are trained side by side, tagged as in
``model.VARIANTS``: "heads" scores "j is the head of i", "deps" scores "j
is a dependent of i".  Each net is its three tensors ``ptr.<tag>.w``,
``.b`` and ``.v``, which the functions here take as arguments.  Scores are
pre-activation values.  In training, :func:`output_loss` applies the
logistic (or optional tanh) output activation and the loss in one node; in
inference the activation is applied downstream, after optional merging of
the two matrices.

All pairs are scored by one kernel, :func:`score_all`, on BLAS matrix
products, one cache-sized block of query rows at a time, so its memory
grows with n^2, not n^2 x hidden, in training as in inference: the
backward forms each block's tanh again.  The kernel starts from each
row's key and query, :func:`project`'s two products.  Training projects a
sentence's rows inside the kernel; inference projects a whole batch of
sentences' rows at once and hands each sentence its slices.  BLAS may
round a row differently with the rows around it, so an entry of the
batched matrix matches the single-pair composition of the same formula
within about 1e-15 of the scores' scale, not bit for bit, and a sentence's
scores in an inference batch depend, by as much, on the sentences beside
it.

The tanh of a block is factored, tanh(q + k) = 1 - 2 / (1 + e^{2q} e^{2k}),
so a sentence takes 2 n hidden exponentials per net, not n^2 hidden tanh
values, whenever it has ``FACTORED_MIN`` tanh elements or more and its
largest |q| or |k| lies in ``FACTORED_RANGE``; else, short sentences and
NaN or infinities included, it is np.tanh of the sums.  Above the range
the exponentials may overflow; below it the factored form's error, about
one ulp of 1 whatever the scale, is too large a part of the scores.  The
two forms agree within 1e-12 of the scores' scale, not bit for bit.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conll import Sentence

__all__ = ["project", "score_all", "target_matrix", "output_loss"]


# Elements of the n x n x hidden tanh in one block of query rows: 1 MB of
# float64, half a core's 2 MB L2 cache (16 rows at n=80 and hidden 100).
BLOCK = 131072

# The range of the largest |q| or |k| in which the tanh is factored.  Up to
# 177, e^{2q}, e^{2k} and their product stay finite and normal (e^{709.8}
# overflows).  Below it the factored tanh, within 4.4e-16 of np.tanh in
# absolute terms at every scale, errs by more than 1e-13 of the scores'
# scale (1.1e-12 at 1e-4).
FACTORED_RANGE = (1e-3, 177.0)

# The fewest tanh elements (n^2 hidden) that a call factors.  Below about
# this many the exponentials and the range check cost more than the tanh
# they save: at hidden 100 the two forms broke even at n = 11.
FACTORED_MIN = 16384


def project(contexts: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key rows ``W_k c`` and the query rows ``W_q c + b`` of the rows
    ``c`` of an [n x context] matrix, by one matrix product each, where
    ``W_k`` and ``W_q`` are the left and right halves of ``w``."""
    d = w.shape[1] // 2
    queries = contexts @ w[:, d:].T
    queries += b
    return contexts @ w[:, :d].T, queries


def score_all(contexts: Tensor, w: Tensor, b: Tensor, v: Tensor,
              projected: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """n x n pre-activation scores v . tanh(W [c_j; c_i] + b) of all ordered
    pairs (i, j) of the rows of an [n x context] matrix at once, diagonal
    included, by the net whose tensors are ``w`` [hidden x 2 context],
    ``b`` and ``v`` [hidden].  Entry (i, j) reads in the net's own
    orientation: "j is the head of i" for the heads net, "j is a dependent
    of i" for the dependents net.

    Keys and queries are projected once per row by matrix products
    (:func:`project`), unless ``projected`` brings them: the (keys,
    queries) of these context rows, which inference projects once for a
    whole batch of sentences.  Training forms them here, from
    ``contexts``.  The
    tanh is formed and contracted with ``v`` one block of
    ``max(1, BLOCK // (n * hidden))`` query rows at a time, in one reused
    block buffer: as 1 - 2 / (1 + e^{2q} e^{2k}) from the exponentials of
    the keys and queries, taken once per call, when there are at least
    ``FACTORED_MIN`` elements and the largest |q| or |k| lies in
    ``FACTORED_RANGE``, and as np.tanh of q + k otherwise.  The backward
    forms each block's tanh again, from the
    saved keys and queries, rather than keeping the n x n x hidden array
    (recomputation as in Chen et al. 2016, arXiv:1604.06174), so on and off
    the tape the kernel holds O(n^2 + n hidden + BLOCK) floats.  The
    gradient of ``w`` is an :class:`~dualpointer.autodiff.OuterGrad` of n
    outer products, which the optimizer forms a block at a time.
    """
    cd, wd, bd, vd = contexts.data, w.data, b.data, v.data
    d = wd.shape[1] // 2
    if cd.ndim != 2 or cd.shape[0] == 0 or cd.shape[1] != d:
        raise ValueError(f"score_all needs a non-empty matrix of context rows of width {d}, "
                         f"got shape {cd.shape}")
    n, h = cd.shape[0], wd.shape[0]
    rows = max(1, BLOCK // (n * h))
    k, q = project(cd, wd, bd) if projected is None else projected
    out = np.empty((n, n))
    for i, ti in _tanh_blocks(q, k, rows):
        np.matmul(ti.reshape(-1, h), vd, out=out[i:i + rows].reshape(-1))

    def backward(g):
        dq, dk, dv = _tanh_gradients(q, k, vd, g, rows)
        wk, wq = wd[:, :d], wd[:, d:]
        # dw = [dk^T C, dq^T C], left to the optimizer as two factors over w
        # seen as [2 hidden x context]: its row 2r is wk's row r, 2r + 1 wq's
        left = np.empty((n, 2 * h))
        left[:, 0::2], left[:, 1::2] = dk, dq
        return dq @ wq + dk @ wk, ad.OuterGrad(left, cd, wd.shape), dq.sum(axis=0), dv

    return ad.make_node(out, (contexts, w, b, v), backward)


def _tanh_blocks(q: np.ndarray, k: np.ndarray, rows: int):
    """Yield (i, tanh(q[i:i + rows, None] + k)) for each block of ``rows``
    query rows starting at row i, every block written into one buffer, in
    the factored form when the call qualifies (module docstring)."""
    n = len(q)
    buf = np.empty((min(rows, n),) + k.shape)
    factored = n * k.size >= FACTORED_MIN and (
        FACTORED_RANGE[0] <= np.maximum(np.abs(q).max(), np.abs(k).max()) <= FACTORED_RANGE[1])
    if factored:
        eq = np.exp(2.0 * q)
        ek = np.exp(2.0 * k)
    for i in range(0, n, rows):
        ti = buf[:min(rows, n - i)]
        if factored:
            np.multiply(eq[i:i + rows, None, :], ek, out=ti)
            ti += 1.0
            np.divide(-2.0, ti, out=ti)
            ti += 1.0
        else:
            np.add(q[i:i + rows, None, :], k, out=ti)
            np.tanh(ti, out=ti)
        yield i, ti


def _tanh_gradients(q: np.ndarray, k: np.ndarray, v: np.ndarray, g: np.ndarray, rows: int):
    """The gradients (dq, dk, dv) of the scores v . tanh(q[i] + k[j]) given
    theirs, ``g``, over the blocks of :func:`_tanh_blocks`: each block's
    tanh is formed again and turned in place into the gradient of its
    pre-activations."""
    dq = np.empty(q.shape)
    for i, ti in _tanh_blocks(q, k, rows):
        gi = g[i:i + rows]
        dv_i = gi.reshape(-1) @ ti.reshape(-1, len(v))
        dpre = np.multiply(ti, ti, out=ti)
        np.subtract(1.0, dpre, out=dpre)
        dpre *= gi[:, :, None]
        dpre *= v
        dpre.sum(axis=1, out=dq[i:i + rows])
        dk_i = dpre.sum(axis=0)
        dk, dv = (dk + dk_i, dv + dv_i) if i else (dk_i, dv_i)
    return dq, dk, dv


def target_matrix(sentence: Sentence, tag: str) -> np.ndarray:
    """Gold 0/1 training targets for the net of one tag of
    ``model.VARIANTS``.

    "heads": row i is one-hot at the gold head of token i+1, all-zero when
    that token is the top.  "deps": row i marks every token governed by
    token i+1, all-zero for leaves.  The two are transposes of each other;
    the diagonal is always zero.
    """
    if tag not in ("heads", "deps"):
        raise ValueError(f"unknown pointer net {tag!r}")
    heads = sentence.gold_heads()
    n = len(heads)
    m = np.zeros((n, n))
    for i, h in enumerate(heads):
        if h == 0:
            continue
        if tag == "heads":
            m[i, h - 1] = 1.0
        else:
            m[h - 1, i] = 1.0
    return m


def output_loss(scores: list[Tensor], targets: list[np.ndarray], activation: str) -> Tensor:
    """The training loss of one sentence as a single tape node: each net's
    mean loss of its score matrix against its :func:`target_matrix`, summed
    in the order given.

    "sigmoid": binary cross-entropy of the logistic output, in the fused
    form that is stable for any score magnitude, with the exact backward
    ``(sigmoid(s) - t) / n``.  "tanh": squared error of ``tanh(s)``.
    """
    if activation not in ("sigmoid", "tanh"):
        raise ValueError(f"unknown output activation {activation!r}")
    losses, rules = zip(*(_net_loss(score.data, np.asarray(target, dtype=np.float64), activation)
                          for score, target in zip(scores, targets, strict=True)))

    def backward(g):
        return tuple(rule(g) for rule in rules)

    return ad.make_node(np.asarray(sum(losses)), tuple(scores), backward)


def _net_loss(s: np.ndarray, t: np.ndarray, activation: str):
    """One net's mean loss and the rule giving its score gradient."""
    if s.shape != t.shape:
        raise ValueError(f"output_loss shape mismatch: scores {s.shape}, target {t.shape}")
    n = max(s.size, 1)
    if activation == "tanh":
        p = np.tanh(s)
        diff = p - t
        return (diff * diff).sum() / n, lambda g: ad._tanh_backward(p, g * 2.0 * diff / n)
    loss = (np.maximum(s, 0.0) - s * t + np.log1p(np.exp(-np.abs(s)))).sum() / n
    return loss, lambda g: g * (ad.stable_sigmoid(s) - t) / n
