"""Composed references that the fused kernels of the library are checked
against: a per-step LSTM cell, the vector ops it is built from, and a
single-pair attention score.  Only tests use them."""
import numpy as np

from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor
from dualpointer.pointer import _attention_kernel


def sigmoid(x: Tensor) -> Tensor:
    out = ad.stable_sigmoid(x.data)

    def backward(g):
        return (ad._sigmoid_backward(out, g),)

    return ad.make_node(out, (x,), backward)


def segment(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice of a vector."""
    if x.data.ndim != 1:
        raise ValueError(f"segment expects a vector, got shape {x.data.shape}")
    n = x.data.shape[0]
    if not (0 <= start <= stop <= n):
        raise ValueError(f"segment [{start}:{stop}] out of bounds for length {n}")

    def backward(g):
        full = np.zeros(n)
        full[start:stop] = g
        return (full,)

    return ad.make_node(x.data[start:stop], (x,), backward)


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: Tensor, b: Tensor):
    """One LSTM step composed from tape primitives: returns (h, c).  The
    reference for ``encoder.lstm_sequence``, with the same ``w`` and ``b``."""
    h = b.data.shape[0] // 4
    if x.data.ndim != 1 or h_prev.data.shape != (h,) or c_prev.data.shape != (h,):
        raise ValueError(
            f"lstm_cell shapes: x {x.data.shape}, h {h_prev.data.shape}, "
            f"c {c_prev.data.shape}, hidden {h}"
        )
    z = ad.affine(w, ad.concat([x, h_prev]), b)
    i = sigmoid(segment(z, 0, h))
    f = sigmoid(segment(z, h, 2 * h))
    o = sigmoid(segment(z, 2 * h, 3 * h))
    g = ad.tanh(segment(z, 3 * h, 4 * h))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c)), c


def attention_score(query: Tensor, key: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Score one (query, key) pair: v . tanh(W [key; query] + b).

    Returns a 1x1 tensor; its single entry equals the corresponding entry
    of ``pointer.score_all`` bit-for-bit.
    """
    if query.data.ndim != 1 or key.data.ndim != 1:
        raise ValueError("attention_score takes single context vectors")
    return _attention_kernel(_as_row(query), _as_row(key), w, b, v)


def _as_row(x: Tensor) -> Tensor:
    def backward(g):
        return (g[0],)

    return ad.make_node(x.data[None, :], (x,), backward)
