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
products, one cache-sized block of query rows at a time, so inference
memory grows with n^2, not n^2 x hidden; training still saves the whole
n x n x hidden tanh for the backward.  BLAS may round a row differently with
the rows around it, so an entry of the batched matrix matches the
single-pair composition of the same formula within about 1e-15 of the
scores' scale, not bit for bit.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conll import Sentence

__all__ = ["score_all", "target_matrix", "output_loss"]


# Elements of the n x n x hidden tanh in one block of query rows: 1 MB of
# float64, half a core's 2 MB L2 cache (16 rows at n=80 and hidden 100).
BLOCK = 131072


def score_all(contexts: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """n x n pre-activation scores v . tanh(W [c_j; c_i] + b) of all ordered
    pairs (i, j) of the rows of an [n x context] matrix at once, diagonal
    included, by the net whose tensors are ``w`` [hidden x 2 context],
    ``b`` and ``v`` [hidden].  Entry (i, j) reads in the net's own
    orientation: "j is the head of i" for the heads net, "j is a dependent
    of i" for the dependents net.

    Keys and queries are projected once per row by matrix products.  The
    tanh is formed and contracted with ``v`` one block of
    ``max(1, BLOCK // (n * hidden))`` query rows at a time.  Off the tape
    one block buffer is reused, so inference holds O(n^2 + n hidden +
    BLOCK) floats.  On the tape the blocks are views of one saved
    n x n x hidden array, which the backward walks in the same blocks.
    """
    cd, wd, bd, vd = contexts.data, w.data, b.data, v.data
    d = wd.shape[1] // 2
    if cd.ndim != 2 or cd.shape[0] == 0 or cd.shape[1] != d:
        raise ValueError(f"score_all needs a non-empty matrix of context rows of width {d}, "
                         f"got shape {cd.shape}")
    parents = (contexts, w, b, v)
    n, h = cd.shape[0], wd.shape[0]
    rows = max(1, BLOCK // (n * h))
    saved = ad.recording(parents)
    wk, wq = wd[:, :d], wd[:, d:]
    q = cd @ wq.T + bd
    k = cd @ wk.T
    t = np.empty((n if saved else min(rows, n), n, h))
    out = np.empty((n, n))
    for i in range(0, n, rows):
        ti = t[i:i + rows] if saved else t[:min(rows, n - i)]
        np.add(q[i:i + rows, None, :], k, out=ti)
        np.tanh(ti, out=ti)
        np.matmul(ti.reshape(-1, h), vd, out=out[i:i + rows].reshape(-1))

    def backward(g):
        dpre_block = np.empty((min(rows, n), n, h))
        dq = np.empty((n, h))
        for i in range(0, n, rows):
            ti, gi = t[i:i + rows], g[i:i + rows]
            dpre = np.multiply(ti, ti, out=dpre_block[:len(ti)])
            np.subtract(1.0, dpre, out=dpre)
            dpre *= gi[:, :, None]
            dpre *= vd
            dpre.sum(axis=1, out=dq[i:i + rows])
            dk_i, dv_i = dpre.sum(axis=0), gi.reshape(-1) @ ti.reshape(-1, h)
            dk, dv = (dk + dk_i, dv + dv_i) if i else (dk_i, dv_i)
        dw = np.empty(wd.shape)
        np.matmul(dk.T, cd, out=dw[:, :d])
        np.matmul(dq.T, cd, out=dw[:, d:])
        return dq @ wq + dk @ wk, dw, dq.sum(axis=0), dv

    return ad.make_node(out, parents, backward)


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
