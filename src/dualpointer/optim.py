"""Adam optimizer over tape tensors (Kingma & Ba 2015, arXiv:1412.6980).

A parameter whose gradient is a :class:`~dualpointer.autodiff.RowGrad`
(an embedding table read by row gather) is updated on the rows that
gradient names only: the other rows keep their values and their moments
frozen, which keeps per-sentence updates cheap for large vocabularies.  A
parameter whose gradient is an :class:`~dualpointer.autodiff.OuterGrad`
(a weight matrix) gets its dense gradient formed one block of rows at a
time, so no dense gradient of it outlives the block's update.
:func:`adam_step` gives the update itself.
"""
from __future__ import annotations

import numpy as np

from .autodiff import OuterGrad, RowGrad, Tensor

__all__ = ["Adam"]

# elements per block of an update: the five blocks one pass touches
# (parameter, gradient, both moments, one scratch) take 1.3 MB and stay in
# a core's 2 MB L2 cache.  On the default-size model's dense tensors
# (interleaved medians, one core) a step took 14.8 ms at this block size,
# 16.0 ms at 16,384 and 16.5 ms at 65,536.
ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction (step size alpha, decay rates beta1/beta2).

    ``m``/``v`` hold each parameter's first moment and rescaled second
    moment (:func:`adam_step`), allocated as zeros when it is first
    updated, and ``t`` counts the steps applied.
    """

    # the defaults Kingma & Ba suggest (Algorithm 1); an instance's own
    # values shadow them
    alpha, beta1, beta2, eps = 0.001, 0.9, 0.999, 1e-8

    def __init__(
        self,
        params: list[Tensor],
        alpha: float = alpha,
        beta1: float = beta1,
        beta2: float = beta2,
        eps: float = eps,
    ):
        self.params = params
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: list[np.ndarray | None] = [None] * len(params)
        self.v: list[np.ndarray | None] = [None] * len(params)
        self.t = 0
        self._scratch = np.empty((2, ADAM_CHUNK))

    def zero_grad(self) -> None:
        """Clear every gradient."""
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """Apply one update from the gradients currently on the parameters.

        Returns False (and applies nothing) if any gradient is non-finite.
        """
        if not all(_finite(p.grad) for p in self.params if p.grad is not None):
            return False

        self.t += 1
        bc1, bc2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        c = self.alpha * np.sqrt(bc2) / (bc1 * np.sqrt(1.0 - self.beta2))
        eps = self.eps * np.sqrt(bc2 / (1.0 - self.beta2))
        hyper = (self.beta1, self.beta2, c, eps, self._scratch)
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.m[i] is None:
                self.m[i], self.v[i] = np.zeros(p.data.shape), np.zeros(p.data.shape)
            if isinstance(g, RowGrad):
                rows, m, v = g.rows, self.m[i], self.v[i]
                p_rows, m_rows, v_rows = p.data[rows], m[rows], v[rows]
                adam_step(p_rows, g.values, m_rows, v_rows, *hyper)
                p.data[rows], m[rows], v[rows] = p_rows, m_rows, v_rows
            else:
                adam_step(p.data, g, self.m[i], self.v[i], *hyper)
        return True


def _finite(grad) -> bool:
    """Whether every entry of a gradient of any kind is finite."""
    if isinstance(grad, RowGrad):
        grad = grad.values
    elif isinstance(grad, OuterGrad):
        # each entry sums T terms of at most max|left| max|right|; half the maximum
        # covers rounding, and a NaN factor gives a NaN bound, failing the comparison
        bound = len(grad.left) * float(np.abs(grad.left).max()) * float(np.abs(grad.right).max())
        if bound < np.finfo(np.float64).max / 2:
            return True
        grad = np.asarray(grad)
    # a finite sum proves every entry finite; only a sum that is not
    # (non-finite entries, or finite ones overflowing) needs the scan
    return bool(np.isfinite(grad.sum()) or np.all(np.isfinite(grad)))


def adam_step(param, grad, m, v, beta1, beta2, c, eps, scratch) -> None:
    """In-place Adam update on the second moment rescaled as
    v = v' / (1 - beta2), with both bias corrections folded into the step
    size ``c`` and the epsilon ``eps`` (Kingma & Ba, Section 2): at step t,
    with bc1 = 1 - beta1^t and bc2 = 1 - beta2^t,
    c = alpha sqrt(bc2) / (bc1 sqrt(1 - beta2)) and ``eps`` is Adam's
    epsilon times sqrt(bc2 / (1 - beta2)).  Per element this evaluates, in
    this order, in 11 elementwise passes::

        m = m * beta1 + grad * (1 - beta1)
        v = v * beta2 + grad * grad
        param -= (m / (sqrt(v) + eps)) * c

    which is the textbook p -= alpha (m / bc1) / (sqrt(v' / bc2) + epsilon)
    up to rounding.  It runs over blocks of rows of ``param``, seen as one
    column for a dense ``grad`` and as the factors' [rows x cols] matrix
    for an :class:`OuterGrad`, whose gradient each block forms by one
    product into ``scratch[1]``, a float64 [2 x block] array.  ``param``,
    ``m`` and ``v`` must be C-contiguous.
    """
    outer = isinstance(grad, OuterGrad)
    cols = grad.right.shape[1] if outer else 1
    p_rows, m_rows, v_rows = (x.reshape(-1, cols, copy=False) for x in (param, m, v))
    g_rows = None if outer else grad.reshape(-1, 1)
    if cols > scratch.shape[1]:  # a row wider than a block is a block of its own
        scratch = np.empty((2, cols))
    step = scratch.shape[1] // cols
    for start in range(0, len(p_rows), step):
        stop = min(start + step, len(p_rows))
        p, mb, vb = (x[start:stop].reshape(-1) for x in (p_rows, m_rows, v_rows))
        s, g = scratch[0, :p.size], scratch[1, :p.size]
        if outer:
            np.matmul(grad.left[:, start:stop].T, grad.right, out=g.reshape(stop - start, cols))
        else:
            g = g_rows[start:stop].reshape(-1)
        mb *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        mb += s
        vb *= beta2
        np.multiply(g, g, out=s)
        vb += s
        np.sqrt(vb, out=s)
        s += eps
        np.divide(mb, s, out=s)
        s *= c
        p -= s
