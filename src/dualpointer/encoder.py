"""Sentence encoder: dual embedding lookup with word dropout, then a
2-level bidirectional LSTM producing one context vector per token.

Each token is the concatenation of a pretrained-map vector and a randomly
initialized vector, both fine-tuned during training.  Word dropout replaces
both halves with the corresponding unknown vectors, with probability
decreasing in the training-set frequency of the word.

Sentences travel as matrices, one row per token: the lookup is one tape
node gathering from both tables, whose gradient names only the rows the
sentence used, and each level of the BiLSTM is one tape node,
:func:`bilstm_level`, running both directions.  Each direction projects
the inputs of every position with one matrix product before the
recurrence starts (the hoisting of Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946), so each step only adds the recurrent product and
applies the gates; its backward pass collects the gate gradients of all
positions in one matrix and forms the weight gradients from it with one
product per weight block.

The functions take the tensors they read, which ``model.score_sentence``
looks up by their layout names; every width comes from a tensor's shape.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .conll import Sentence
from .vocab import UNKNOWN_ID, Vocabulary, pretrained_row

__all__ = [
    "dropout_prob",
    "token_rows",
    "encode_tokens",
    "bilstm_level",
    "bilstm_encode",
]


def dropout_prob(frequency: int, alpha: float) -> float:
    """Chance of replacing a training token with the unknown vector."""
    if frequency < 1:
        raise ValueError(f"frequency must be >= 1, got {frequency}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return alpha / (alpha + frequency)


def token_rows(
    sentence: Sentence,
    vocab: Vocabulary,
    index: dict[str, int] | None = None,
    training: bool = False,
    alpha: float = 0.25,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Resolve each token to (pretrained row, random row), applying word
    dropout when training.  ``index`` maps words to rows of a pretrained
    table read from a file; without it the pretrained table is indexed by
    the vocabulary.  A dropout hit replaces both lookups at once."""
    if training and rng is None:
        raise ValueError("training-mode encoding needs an rng")
    rows = []
    for tok in sentence:
        tok_id = vocab.lookup(tok.form)
        pre_row = tok_id if index is None else pretrained_row(index, tok.form)
        if training and tok_id != UNKNOWN_ID:
            p = dropout_prob(vocab.frequency(tok_id), alpha)
            if rng.random() < p:
                pre_row, tok_id = UNKNOWN_ID, UNKNOWN_ID
        rows.append((pre_row, tok_id))
    return rows


def encode_tokens(rows: list[tuple[int, int]], pre: Tensor, rand: Tensor) -> Tensor:
    """Token encodings as one [n x (d_pretrained + d_random)] matrix: one
    tape node gathering the :func:`token_rows` pairs from the pretrained
    and random tables.  Its backward gives each table a
    :class:`~dualpointer.autodiff.RowGrad` over the rows used, repeated
    rows adding."""
    idx = np.asarray(rows, dtype=np.intp).reshape(len(rows), 2)
    pre_shape, rand_shape = pre.data.shape, rand.data.shape
    d = pre_shape[1]

    def backward(g):
        return (ad.RowGrad.gather(idx[:, 0], g[:, :d], pre_shape),
                ad.RowGrad.gather(idx[:, 1], g[:, d:], rand_shape))

    data = np.concatenate([pre.data[idx[:, 0]], rand.data[idx[:, 1]]], axis=1)
    return ad.make_node(data, (pre, rand), backward)


def _state_before(states: np.ndarray, reverse: bool) -> np.ndarray:
    """Row t: the state the recurrence held before reading position t."""
    before = np.zeros_like(states)
    if reverse:
        before[:-1] = states[1:]
    else:
        before[1:] = states[:-1]
    return before


def _lstm_direction(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray, reverse: bool):
    """One LSTM direction over a whole sentence, from zero state.

    ``xd`` is [T x d_in]; ``wd`` is [4h x (d_in + h)] with gate blocks in
    order input, forget, output, candidate, and ``bd`` is [4h].  Returns
    the [T x h] states, row t the hidden state after reading position t
    (reading from the last position backwards when ``reverse``), and the
    backward rule mapping their gradient to (dx, dw, db).
    """
    T, d_in = xd.shape
    h = wd.shape[0] // 4
    wx, wh = wd[:, :d_in], wd[:, d_in:]
    zx = xd @ wx.T + bd
    gates = np.empty((T, 4 * h))  # activated i, f, o, g
    cells = np.empty((T, h))
    tanh_cells = np.empty((T, h))
    states = np.empty((T, h))
    h_t, c_t = np.zeros(h), np.zeros(h)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        z = zx[t] + wh @ h_t
        a = gates[t]
        a[:3 * h] = ad.stable_sigmoid(z[:3 * h])
        a[3 * h:] = np.tanh(z[3 * h:])
        c_t = a[h:2 * h] * c_t + a[:h] * a[3 * h:]
        cells[t] = c_t
        tanh_cells[t] = np.tanh(c_t)
        h_t = a[2 * h:3 * h] * tanh_cells[t]
        states[t] = h_t

    def backward(g):
        # BPTT with everything that does not depend on the carried gradients
        # computed for all positions up front.  Position t's pre-activation
        # gradient dz[t] is dc * via_cell[t] on the i, f and g rows and
        # dh * via_state[t] on the o row, with dh = g[t] + dz[t+1] Wh and
        # dc = dh * dc_by_dh[t] + dc[t+1] * f[t+1] (t+1: the next position
        # read).  Activation derivatives are the tape's own backward rules
        # applied to a unit gradient.
        i, f, o, cand = (gates[:, k * h:(k + 1) * h] for k in range(4))
        d_sig = ad._sigmoid_backward(gates[:, :3 * h], 1.0)
        via_cell = np.zeros((T, 4, h))
        via_cell[:, 0] = cand * d_sig[:, :h]
        via_cell[:, 1] = _state_before(cells, reverse) * d_sig[:, h:2 * h]
        via_cell[:, 3] = i * ad._tanh_backward(cand, 1.0)
        via_state = tanh_cells * d_sig[:, 2 * h:]
        dc_by_dh = o * ad._tanh_backward(tanh_cells, 1.0)
        dz = np.empty((T, 4, h))
        dh_next, dc_next = np.zeros(h), np.zeros(h)
        for t in reversed(steps):
            dh = g[t] + dh_next
            dc = dh * dc_by_dh[t] + dc_next
            np.multiply(via_cell[t], dc, out=dz[t])
            np.multiply(dh, via_state[t], out=dz[t, 2])
            dc_next = dc * f[t]
            dh_next = dz[t].reshape(-1) @ wh
        dz = dz.reshape(T, 4 * h)
        # dW = dz^T [X, H_before] as one product: concatenating the outputs
        # of two products, a [4h x (d_in + h)] copy, costs more than both
        inputs = np.concatenate([xd, _state_before(states, reverse)], axis=1)
        return dz @ wx, dz.T @ inputs, dz.sum(axis=0)

    return states, backward


def bilstm_level(x: Tensor, fw: Tensor, fb: Tensor, bw: Tensor, bb: Tensor) -> Tensor:
    """One BiLSTM level as a single tape node: [T x d_in] inputs to the
    [T x 2h] matrix whose row t is the forward state beside the backward
    state at position t.

    ``fw``/``bw`` are each direction's [4h x (d_in + h)] gate matrix and
    ``fb``/``bb`` its [4h] bias.  Computes what chains of single LSTM steps
    from zero state compute, up to floating-point evaluation order; the
    tests hold it to such chains composed from tape primitives.
    """
    xd = x.data
    h = fw.data.shape[0] // 4
    for w, b in ((fw, fb), (bw, bb)):
        if (xd.ndim != 2 or w.data.shape != (4 * h, xd.shape[1] + h)
                or b.data.shape != (4 * h,)):
            raise ValueError(
                f"bilstm_level shapes: x {xd.shape}, W {w.data.shape}, b {b.data.shape}"
            )
    fwd, fwd_backward = _lstm_direction(xd, fw.data, fb.data, reverse=False)
    bwd, bwd_backward = _lstm_direction(xd, bw.data, bb.data, reverse=True)

    def backward(g):
        dx_fwd, dfw, dfb = fwd_backward(g[:, :h])
        dx_bwd, dbw, dbb = bwd_backward(g[:, h:])
        return dx_fwd + dx_bwd, dfw, dfb, dbw, dbb

    return ad.make_node(np.concatenate([fwd, bwd], axis=1), (x, fw, fb, bw, bb), backward)


def bilstm_encode(encodings: Tensor,
                  levels: list[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Stacked bidirectional pass: [n x d] encodings to [n x 2h] context
    vectors, one :func:`bilstm_level` node per level.  Each level is its
    (forward w, forward b, backward w, backward b)."""
    if encodings.data.shape[0] == 0:
        raise ValueError("cannot encode an empty sentence")
    xs = encodings
    for level in levels:
        xs = bilstm_level(xs, *level)
    return xs
