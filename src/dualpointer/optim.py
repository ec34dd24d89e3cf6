"""Adam optimizer over tape tensors (Kingma & Ba 2015, arXiv:1412.6980).

One optimizer instance owns first/second moment buffers for every parameter
it manages and a single shared step counter.  A parameter whose gradient is
a :class:`~dualpointer.autodiff.RowGrad` (an embedding table read by row
gather) is updated on the rows that gradient names only: the other rows
keep their values and their moments frozen, which keeps per-sentence
updates cheap for large vocabularies.  Every other parameter gets a
persistent gradient buffer with its moments (``Tensor.grad_buffer``), which
the backward pass writes into, so a step allocates no parameter-sized
array; buffers and moments live as long as the parameters and the
optimizer do.

Each update folds both bias corrections into the step size and the
epsilon (Kingma & Ba, Section 2) and keeps the second moment rescaled as
v / (1 - beta2), so that it takes 11 elementwise passes: with bc1 = 1 -
beta1^t and bc2 = 1 - beta2^t at step t,

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + g * g
    p <- p - c * (m / (sqrt(v) + eps'))
    c = alpha * sqrt(bc2) / (bc1 * sqrt(1 - beta2)),  eps' = eps * sqrt(bc2 / (1 - beta2))

which is the textbook update p <- p - alpha * (m / bc1) / (sqrt(v' / bc2)
+ eps) on the unscaled moment v' = (1 - beta2) * v, up to rounding.
Updates run in place, block by block through one small scratch buffer, so
they allocate nothing beyond a row update's gathered rows and each block
of parameter, gradient and moments stays in cache while the whole formula
runs over it.
"""
from __future__ import annotations

import numpy as np

from .autodiff import RowGrad, Tensor

__all__ = ["Adam"]

# elements per block of a dense update: the five blocks one pass touches
# (parameter, gradient, both moments, one scratch) take 1.3 MB and stay in
# a core's 2 MB L2 cache.  On the default-size model's dense tensors
# (interleaved medians, one core) a step took 14.8 ms at this block size,
# 16.0 ms at 16,384 and 16.5 ms at 65,536.
ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction (step size alpha, decay rates beta1/beta2).

    ``m``/``v`` hold each parameter's first moment and rescaled second
    moment (module docstring), allocated as zeros when it is first
    updated, and ``t`` counts the steps applied.  A parameter first updated
    by a dense gradient gets its ``grad_buffer`` then too.
    """

    def __init__(
        self,
        params: list[Tensor],
        alpha: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: list[np.ndarray | None] = [None] * len(params)
        self.v: list[np.ndarray | None] = [None] * len(params)
        self.t = 0
        self._scratch = np.empty(ADAM_CHUNK)

    def zero_grad(self) -> None:
        """Clear every gradient; the buffers stay for the next backward."""
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """Apply one update from the gradients currently on the parameters.

        Returns False (and applies nothing) if any gradient is non-finite.
        """
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad.values if isinstance(p.grad, RowGrad) else p.grad
            # a finite sum proves every entry finite; only a sum that is not
            # (non-finite entries, or finite ones overflowing) needs the scan
            if not np.isfinite(g.sum()) and not np.all(np.isfinite(g)):
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
                self.m[i] = np.zeros(p.data.shape)
                self.v[i] = np.zeros(p.data.shape)
                if not isinstance(g, RowGrad):
                    p.grad_buffer = np.empty(p.data.shape)
            if isinstance(g, RowGrad):
                rows, m, v = g.rows, self.m[i], self.v[i]
                p_rows, m_rows, v_rows = p.data[rows], m[rows], v[rows]
                adam_step(p_rows, g.values, m_rows, v_rows, *hyper)
                p.data[rows], m[rows], v[rows] = p_rows, m_rows, v_rows
            else:
                adam_step(p.data, g, self.m[i], self.v[i], *hyper)
        return True


def adam_step(param, grad, m, v, beta1, beta2, c, eps, scratch) -> None:
    """In-place dense Adam update on the rescaled second moment ``v``, with
    the step's size ``c`` and epsilon ``eps`` (c and eps' of the module
    docstring).

    Per element this evaluates, in this order::

        m = m * beta1 + grad * (1 - beta1)
        v = v * beta2 + grad * grad
        param -= (m / (sqrt(v) + eps)) * c

    ``param``, ``m`` and ``v`` must be C-contiguous; ``scratch`` is a
    float64 buffer of one block.
    """
    p_flat = param.reshape(-1, copy=False)
    m_flat = m.reshape(-1, copy=False)
    v_flat = v.reshape(-1, copy=False)
    g_flat = grad.reshape(-1)
    block = scratch.size
    for start in range(0, p_flat.size, block):
        stop = min(start + block, p_flat.size)
        p, g = p_flat[start:stop], g_flat[start:stop]
        mb, vb = m_flat[start:stop], v_flat[start:stop]
        s = scratch[:stop - start]
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
