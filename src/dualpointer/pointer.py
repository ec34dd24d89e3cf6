"""Pointer-style additive attention with independent per-position outputs.

Two instances of the same scorer are trained side by side, tagged as in
``model.VARIANTS``: "heads" scores "j is the head of i", "deps" scores "j
is a dependent of i".  Each net is its three tensors ``ptr.<tag>.w``,
``.b`` and ``.v``, which the functions here take as arguments.  Scores are
pre-activation values.  In training, :func:`output_loss` applies the
logistic (or optional tanh) output activation and the loss in one node; in
inference the activation is applied downstream, after optional merging of
the two matrices.

All pairs are scored by one kernel, :func:`score_all`, whose docstring
says how it blocks, factors and differentiates the pairs' tanh.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conll import Sentence

__all__ = ["score_all", "target_matrix", "output_loss"]


# Elements of the n x n x hidden pair array in one block of query rows: 1 MB of
# float64, half a core's 2 MB L2 cache (16 rows at n=80 and hidden 100).
BLOCK = 131072

# The range of the largest |q| or |k| in which the tanh is factored.  Up to
# 88, every product of up to three exponentials and reciprocals that the
# kernel forms, as small as e^{-6 x 88} = 1.4e-229 and as large as
# e^{4 x 88} = 1e153, is finite and normal, and leaves 79 decades for the
# factors v and the scores' gradient (at 177, e^{-708} is the normal floor).
# Below it the factored form's error, about one ulp of sum(|v|) in absolute
# terms at every scale, grows against the scores: at 1e-2 it measured 5e-14
# of the scores' scale and 1.2e-13 of v's gradient, at 1e-3 4.4e-13 and
# 1.2e-12, past the 1e-12 that the kernel is held to.
FACTORED_RANGE = (1e-2, 88.0)

# The fewest tanh elements (n^2 hidden) that a call factors.  Below about
# this many the exponentials and the range check cost more than the tanh
# they save: at hidden 100 the two forms' forward broke even at n = 13,
# forward and backward at n = 12 to 13.
FACTORED_MIN = 16384


def score_all(contexts: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """n x n pre-activation scores v . tanh(W [c_j; c_i] + b) of all ordered
    pairs (i, j) of the rows of an [n x context] matrix at once, diagonal
    included and in the net's own orientation, by the net whose tensors
    are ``w`` [hidden x 2 context], ``b`` and ``v`` [hidden].

    The rows' keys and queries come from one matrix product each, over
    this matrix's rows alone.  BLAS may round a row apart from its
    neighbours, so an entry matches the single-pair composition of the
    same formula within about 1e-15 of the scores' scale, not bit for bit.
    :func:`_pair_scores` forms the pairs one block of
    ``max(1, BLOCK // (n * hidden))`` query rows at a time, in one reused
    buffer, factored when :func:`_factored` holds and as v . np.tanh(q + k)
    otherwise; the two forms agree within 1e-12 of the scores' scale.  The
    backward forms each block again rather than keeping the n x n x hidden
    array (recomputation as in Chen et al. 2016, arXiv:1604.06174), so on
    and off the tape the kernel holds O(n^2 + n hidden + BLOCK) floats.
    """
    cd, wd, bd, vd = contexts.data, w.data, b.data, v.data
    d = wd.shape[1] // 2
    if cd.ndim != 2 or cd.shape[0] == 0 or cd.shape[1] != d:
        raise ValueError(f"score_all needs a non-empty matrix of context rows of width {d}, "
                         f"got shape {cd.shape}")
    n, h = cd.shape[0], wd.shape[0]
    wk, wq = wd[:, :d], wd[:, d:]
    q = cd @ wq.T
    q += bd
    k = cd @ wk.T
    out, pair_gradients = _pair_scores(q, k, vd, max(1, BLOCK // (n * h)))

    def backward(g):
        dq, dk, dv = pair_gradients(g)
        # dw = [dk^T C, dq^T C], left to the optimizer as two factors over w
        # seen as [2 hidden x context]: its row 2r is wk's row r, 2r + 1 wq's
        left = np.empty((n, 2 * h))
        left[:, 0::2], left[:, 1::2] = dk, dq
        return dq @ wq + dk @ wk, ad.OuterGrad(left, cd, wd.shape), dq.sum(axis=0), dv

    return ad.make_node(out, (contexts, w, b, v), backward)


def _factored(q: np.ndarray, k: np.ndarray) -> bool:
    """Whether :func:`_pair_scores` factors these queries and keys; a NaN
    fails the range test."""
    return q.size * len(k) >= FACTORED_MIN and (
        FACTORED_RANGE[0] <= np.maximum(np.abs(q).max(), np.abs(k).max()) <= FACTORED_RANGE[1])


def _pair_scores(q: np.ndarray, k: np.ndarray, v: np.ndarray, rows: int):
    """The scores v . tanh(q[i] + k[j]) of all pairs (i, j), in blocks of
    ``rows`` query rows, and the function that maps their gradient to
    (dq, dk, dv).

    Factored: with at = e^{-2q} and ek = e^{2k}, tanh(q + k) =
    1 - 2 at / (at + ek), so a score is sum(v) - 2 wv[i] . r[:, i, j] with
    wv = v at and r = 1 / (at[i] + ek[j]), hidden-major: a call takes
    2 n hidden exponentials, not n^2 hidden tanh values, and a block of r
    one stacked matrix-vector product per query row."""
    n, h = q.shape
    out = np.empty((n, n))
    if not _factored(q, k):
        for i, ti in _blocks(q, k, rows):
            np.matmul(ti.reshape(-1, h), v, out=out[i:i + rows].reshape(-1))
        return out, lambda g: _tanh_gradients(q, k, v, g, rows)
    at, ek = np.exp(-2.0 * q), np.exp(2.0 * k)
    wv = at * v
    left, right = _sum_factors(at, ek)
    for i, ri in _reciprocal_blocks(left, right, rows):
        np.matmul(wv[i:i + rows, None, :], ri.transpose(1, 0, 2), out=out[i:i + rows, None, :])
    out *= -2.0
    out += v.sum()
    return out, lambda g: _reciprocal_gradients(at, wv, left, right, g, rows)


def _blocks(a: np.ndarray, b: np.ndarray, rows: int):
    """Yield (i, np.tanh(a[i:i + rows, None] + b)) for each block of
    ``rows`` rows of ``a`` starting at row i, every block written into one
    buffer by np.tanh's out=."""
    n = len(a)
    buf = np.empty((min(rows, n),) + b.shape)
    for i in range(0, n, rows):
        ti = buf[:min(rows, n - i)]
        np.add(a[i:i + rows, None, :], b, out=ti)
        np.tanh(ti, out=ti)
        yield i, ti


def _sum_factors(at: np.ndarray, ek: np.ndarray):
    """left = [at, 1] [hidden, n, 2] and right = [1; ek] [hidden, 2, n],
    whose stacked product is hidden-major at[i] + ek[j]: for each hidden
    unit the n x n sums have rank 2, and each entry 1 at + 1 ek of the
    product is rounded once, to the bits of np.add."""
    n, h = at.shape
    left, right = np.ones((h, n, 2)), np.ones((h, 2, n))
    left[:, :, 0], right[:, 1] = at.T, ek.T
    return left, right


def _reciprocal_blocks(left: np.ndarray, right: np.ndarray, rows: int):
    """Yield (i, 1 / (left[:, i:i + rows] @ right)), hidden-major
    [hidden, rows, n], for each block of ``rows`` query rows starting at
    row i, every block written into one contiguous buffer."""
    h, n, _ = left.shape
    buf = np.empty(h * min(rows, n) * n)
    for i in range(0, n, rows):
        ri = buf[:h * min(rows, n - i) * n].reshape(h, -1, n)
        np.matmul(left[:, i:i + rows], right, out=ri)
        np.reciprocal(ri, out=ri)
        yield i, ri


def _tanh_gradients(q: np.ndarray, k: np.ndarray, v: np.ndarray, g: np.ndarray, rows: int):
    """The gradients (dq, dk, dv) of the scores v . tanh(q[i] + k[j]) given
    theirs, ``g``: each block's tanh is formed again and turned in place
    into the gradient of its pre-activations."""
    dq = np.empty(q.shape)
    for i, ti in _blocks(q, k, rows):
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


def _reciprocal_gradients(at: np.ndarray, wv: np.ndarray, left: np.ndarray, right: np.ndarray,
                          g: np.ndarray, rows: int):
    """The gradients (dq, dk, dv) of the factored scores of
    :func:`_pair_scores` given theirs, ``g``, with ek = right[:, 1] the
    keys' exponentials.  As 1 - tanh^2 = 4 at ek r^2,
    dq[i] = 4 wv[i] sum_j (g[i, j] r^2) ek[j],
    dk[j] = 4 ek[j] sum_i wv[i] (g[i, j] r^2) and
    dv = sum(g) - 2 sum_i at[i] sum_j g[i, j] r: each block's reciprocals
    are formed again and turned in place into g r^2, every sum is a
    stacked matrix-vector product, and the factors 4 wv and 4 ek are
    applied once, to the n x hidden sums."""
    n, h = at.shape
    ekt, wvt = right[:, 1], wv.T[:, None, :]
    gr, dqt, dkt = np.empty((n, h, 1)), np.empty((h, n, 1)), np.zeros((h, 1, n))
    for i, ri in _reciprocal_blocks(left, right, rows):
        gi = g[i:i + rows]
        np.matmul(ri.transpose(1, 0, 2), gi[:, :, None], out=gr[i:i + rows])
        ri *= ri
        ri *= gi
        np.matmul(ri, ekt[:, :, None], out=dqt[:, i:i + rows])
        dkt += np.matmul(wvt[:, :, i:i + rows], ri)
    dv = g.sum() - 2.0 * (at * gr.reshape(n, h)).sum(axis=0)
    return 4.0 * wv * dqt.reshape(h, n).T, 4.0 * ekt.T * dkt.reshape(h, n).T, dv


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
