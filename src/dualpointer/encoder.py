"""Sentence encoder: dual embedding lookup with word dropout, then a
stacked bidirectional LSTM producing one context vector per token.

Each token is the concatenation of a pretrained-map vector and a randomly
initialized vector, both fine-tuned during training.  Word dropout replaces
both halves with the corresponding unknown vectors, with probability
decreasing in the training-set frequency of the word.

Sentences travel as matrices, one row per token: the lookup is one tape
node, :func:`encode_tokens`, and each BiLSTM level another,
:func:`bilstm_level`, whose one direction over a batch of sentences is
:func:`_lstm_direction`.

The functions take the tensors they read, which ``model.sentence_contexts``
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

# word dropout's alpha (:func:`dropout_prob`) where a run sets none
WORD_DROPOUT = 0.25


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
    alpha: float = WORD_DROPOUT,
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


def encode_tokens(rows, pre: Tensor, rand: Tensor) -> Tensor:
    """Token encodings as one [n x (d_pretrained + d_random)] matrix: one
    tape node gathering n (pretrained row, random row) pairs, such as
    :func:`token_rows` gives, from the pretrained and random tables.  Its
    backward gives each table a :class:`~dualpointer.autodiff.RowGrad`
    over the rows used, repeated rows adding."""
    idx = np.asarray(rows, dtype=np.intp).reshape(len(rows), 2)
    pre_shape, rand_shape = pre.data.shape, rand.data.shape
    d = pre_shape[1]

    def backward(g):
        return (ad.RowGrad.gather(idx[:, 0], g[:, :d], pre_shape),
                ad.RowGrad.gather(idx[:, 1], g[:, d:], rand_shape))

    data = np.concatenate([pre.data[idx[:, 0]], rand.data[idx[:, 1]]], axis=1)
    return ad.make_node(data, (pre, rand), backward)


def _packing(lengths) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """How an LSTM reads a batch of sentences stored one after another, a
    step at a time: the row order of the forward direction and that of the
    backward direction, each an index array, and how many sentences each
    step reads.  A step reads the sentences still running, longest first
    (ties in batch order), so the k of step s are the first k of step
    s - 1, and no step reads padding."""
    lengths = np.asarray(lengths, dtype=np.intp)
    by_length = np.argsort(-lengths, kind="stable")
    running = lengths[by_length] > np.arange(lengths.max())[:, None]  # [steps x batch]
    step, rank = np.nonzero(running)
    sentence = by_length[rank]
    first = (np.cumsum(lengths) - lengths)[sentence]
    last = first + lengths[sentence] - 1
    return first + step, last - step, running.sum(axis=1).tolist()


def _in_order(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rows read in ``order`` put back into the batch's row order."""
    out = np.empty_like(rows)
    out[order] = rows
    return out


def _shifted(rows: np.ndarray) -> np.ndarray:
    """Row s: row s - 1, zero for s = 0; in one sentence's step order, the
    state the recurrence held before step s."""
    before = np.zeros_like(rows)
    before[1:] = rows[:-1]
    return before


def _lstm_direction(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray,
                    order: np.ndarray, sizes: list[int], rows: np.ndarray):
    """One LSTM direction over a batch of sentences, each from zero state.

    ``xd`` is [U x d_in], the distinct input rows, and ``rows`` the [N]
    index of each token's row of ``xd``, the tokens of every sentence of
    the batch; ``wd`` is [4h x (d_in + h)] with gate blocks in order
    input, forget, output, candidate, and ``bd`` is [4h].

    The input product runs before the recurrence, once per row of ``xd``
    (the hoisting of Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946),
    so a word that several tokens read meets the input weights once (the
    pre-computation of Chen & Manning 2014, EMNLP).  The direction reads
    the tokens in ``order``, ``sizes[s]`` of them at step s
    (:func:`_packing`), with one [k x h] by [h x 4h] product per step over
    the k sentences still running (operation batching as in Neubig,
    Goldberg & Dyer 2017, arXiv:1705.07860).  Returns the [N x h] states in
    token order, each the hidden state after reading its token, and the
    backward rule of a one-sentence batch, mapping their gradient to (dx,
    dw, db) with dx one row per token and dw an
    :class:`~dualpointer.autodiff.OuterGrad`.

    A step works in place on its own rows of the step-ordered gate matrix,
    one contiguous [k x 4h] block that holds the input pre-activations: it
    adds the recurrent product, sets aside the candidate rows'
    pre-activations, runs :func:`~dualpointer.autodiff.stable_sigmoid` over
    the whole block and ``np.tanh`` back over the candidate rows.  The
    cell and state are written into their rows of ``cells`` and
    ``states``, and the product and the candidate rows into two buffers
    that every step reuses, so no step allocates.  The contiguity is the
    gain: the logistic over the strided first 3h columns alone was slower.

    When the call packs more than one sentence, the steps reading more than
    one row multiply by one C-contiguous copy of ``wh.T``, made per call: on
    OpenBLAS 0.3.31 a multi-row product through the copy has the bits of
    one through the strided view, and is faster.  A one-row step, such as
    every step of training, keeps the strided view, since there the copy
    changes the bits.
    """
    N, d_in = len(rows), xd.shape[1]
    h = wd.shape[0] // 4
    wx, wh = wd[:, :d_in], wd[:, d_in:]
    wh_t = wh.T
    wh_rows = np.ascontiguousarray(wh_t) if sizes[0] > 1 else wh_t
    zx = xd @ wx.T
    zx += bd
    # step order from here on: row s is the s-th row read
    gates = zx[rows[order]]  # i, f, o, g: pre-activations until a step activates them
    cells = np.empty((N, h))
    states = np.empty((N, h))
    recurrent = np.empty((sizes[0], 4 * h))
    scratch = np.empty((sizes[0], h))
    h_t = c_t = np.zeros((sizes[0], h))
    end = 0
    # here and in the backward, a gate a hair above 0 times a small cell or
    # state rounds to a subnormal or to 0: the intended rounding, not a
    # floating-point error
    with np.errstate(under="ignore"):
        for k in sizes:
            start, end = end, end + k
            a, tmp = gates[start:end], scratch[:k]
            a += np.matmul(h_t[:k], wh_rows if k > 1 else wh_t, out=recurrent[:k])
            np.copyto(tmp, a[:, 3 * h:])
            ad.stable_sigmoid(a, out=a)
            np.tanh(tmp, out=a[:, 3 * h:])
            # the carried cell and hidden state are this step's rows of
            # cells and states, written in place
            c_t = np.multiply(a[:, h:2 * h], c_t[:k], out=cells[start:end])
            c_t += np.multiply(a[:, :h], a[:, 3 * h:], out=tmp)
            h_t = np.multiply(a[:, 2 * h:3 * h], np.tanh(c_t, out=tmp), out=states[start:end])

    @np.errstate(under="ignore")
    def backward(g):
        dz = _in_order(_gate_gradients(g[order], gates, cells, wh), order)
        # dW = dz^T [X, H_before], left to the optimizer as its two factors
        inputs = np.empty((N, d_in + h))
        np.take(xd, rows, axis=0, out=inputs[:, :d_in])
        inputs[order, d_in:] = _shifted(states)
        return dz @ wx, ad.OuterGrad(dz, inputs), dz.sum(axis=0)

    return _in_order(states, order), backward


def _gate_gradients(g: np.ndarray, gates: np.ndarray, cells: np.ndarray,
                    wh: np.ndarray) -> np.ndarray:
    """BPTT through one sentence read in step order: the [N x 4h] gradient
    of each step's gate pre-activations, given ``g``, that of its hidden
    states, what the forward kept of each step (activated gates and cell)
    and the recurrent weights ``wh``.

    Everything that does not depend on the carried gradients is computed
    for all steps up front.  Step s's gradient dz[s] is dc times its
    multiplier on the i, f and g rows, which dz[s] holds until step s, and
    dh * via_state[s] on the o row, with dh = g[s] + dz[s+1] Wh and dc = dh
    * dc_by_dh[s] + dc[s+1] * f[s+1].  The activation derivatives are the
    tape's own backward rules, applied to the factor they multiply.
    """
    N, h = cells.shape
    i, f, o, cand = (gates[:, k * h:(k + 1) * h] for k in range(4))
    dz = np.zeros((N, 4, h))
    dz[:, 0] = ad._sigmoid_backward(i, cand)
    dz[:, 1] = ad._sigmoid_backward(f, _shifted(cells))
    dz[:, 3] = ad._tanh_backward(cand, i)
    tanh_cells = np.tanh(cells)
    via_state = ad._sigmoid_backward(o, tanh_cells)
    dc_by_dh = ad._tanh_backward(tanh_cells, o)
    dh_next, dc_next = np.zeros(h), np.zeros(h)
    for s in range(N - 1, -1, -1):
        dh = g[s] + dh_next
        dc = dh * dc_by_dh[s] + dc_next
        dz[s] *= dc
        np.multiply(dh, via_state[s], out=dz[s, 2])
        dc_next = dc * f[s]
        dh_next = dz[s].reshape(-1) @ wh
    return dz.reshape(N, 4 * h)


def bilstm_level(x: Tensor, fw: Tensor, fb: Tensor, bw: Tensor, bb: Tensor,
                 lengths: list[int] | None = None, rows=None) -> Tensor:
    """One BiLSTM level as a single tape node: [U x d_in] input rows to the
    [N x 2h] matrix whose row is the forward state beside the backward
    state at that token.  ``rows`` names each of the N tokens' row of ``x``
    (token t reads row t by default), the tokens of sentences of
    ``lengths`` tokens stored one after another, one sentence by default.

    ``fw``/``bw`` are each direction's [4h x (d_in + h)] gate matrix and
    ``fb``/``bb`` its [4h] bias.  Computes what chains of single LSTM steps
    from zero state compute, up to floating-point evaluation order; the
    tests hold it to such chains composed from tape primitives.  The
    gradient of ``x`` adds up the gradients of the tokens reading each
    row.  The tape takes one sentence at a time: a batch is encoded under
    ``no_grad``.
    """
    xd = x.data
    h = fw.data.shape[0] // 4
    for w, b in ((fw, fb), (bw, bb)):
        if (xd.ndim != 2 or w.data.shape != (4 * h, xd.shape[1] + h)
                or b.data.shape != (4 * h,)):
            raise ValueError(
                f"bilstm_level shapes: x {xd.shape}, W {w.data.shape}, b {b.data.shape}"
            )
    rows = np.arange(len(xd)) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or (rows.size and not 0 <= rows.min() <= rows.max() < len(xd)):
        raise ValueError(f"bilstm_level: token rows out of range for {len(xd)} input rows")
    lengths = [len(rows)] if lengths is None else list(lengths)
    if not lengths or min(lengths) < 1 or sum(lengths) != len(rows):
        raise ValueError(f"bilstm_level: sentence lengths {lengths} for {len(rows)} tokens")
    fwd_order, bwd_order, sizes = _packing(lengths)
    fwd, fwd_backward = _lstm_direction(xd, fw.data, fb.data, fwd_order, sizes, rows)
    bwd, bwd_backward = _lstm_direction(xd, bw.data, bb.data, bwd_order, sizes, rows)

    def backward(g):
        dx_fwd, dfw, dfb = fwd_backward(g[:, :h])
        dx_bwd, dbw, dbb = bwd_backward(g[:, h:])
        dx_fwd += dx_bwd
        return np.asarray(ad.RowGrad.gather(rows, dx_fwd, xd.shape)), dfw, dfb, dbw, dbb

    out = ad.make_node(np.concatenate([fwd, bwd], axis=1), (x, fw, fb, bw, bb), backward)
    if len(lengths) > 1 and out.requires_grad:
        raise ValueError("bilstm_level records one sentence on the tape; "
                         "encode a batch under no_grad")
    return out


def bilstm_encode(encodings: Tensor,
                  levels: list[tuple[Tensor, Tensor, Tensor, Tensor]],
                  lengths: list[int] | None = None, rows=None) -> Tensor:
    """Stacked bidirectional pass: [U x d] encodings to [N x 2h] context
    vectors, one :func:`bilstm_level` node per level.  Each level is its
    (forward w, forward b, backward w, backward b).  ``lengths`` and
    ``rows`` are as for :func:`bilstm_level`; ``rows`` goes to level 0 only,
    since the levels above read one contextual row per token."""
    xs = bilstm_level(encodings, *levels[0], lengths=lengths, rows=rows)
    for level in levels[1:]:
        xs = bilstm_level(xs, *level, lengths=lengths)
    return xs
