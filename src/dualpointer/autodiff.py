"""Dense float64 tensors on a reverse-mode gradient tape.

The tape is built implicitly: every operation that touches a tensor with
``requires_grad`` records its inputs and a backward rule on the output.
Calling :meth:`Tensor.backward` on a scalar walks the graph once in reverse
topological order and accumulates gradients on the leaves.

The module holds the tape's mechanics only.  Every node of the parser's
training graph is a fused kernel of ``encoder`` or ``pointer``, one per
layer, recording itself through :func:`make_node`.

Everything is double precision.  Backward closures capture plain numpy
arrays and at most their own node's parents, so the graph is a pure DAG
with child-to-parent references only, freed by reference counting as soon
as the loss goes out of scope.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "RowGrad",
    "OuterGrad",
    "no_grad",
    "make_node",
    "stable_sigmoid",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends tape construction."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + e^{-x}), written into ``out`` when given
    (``out=x`` activates in place), in four passes: negate, exponentiate,
    add one, take the reciprocal.

    Within 2 ulp of the exact value wherever the result is a normal number,
    but for x in (-37.5, -36.7): there 1 + e^{-x} has just passed 2^53, the
    add rounds part of the one away, and the bound is 3 ulp.  Always in
    [0, 1]; NaN stays NaN.  Below x = -709.78, e^{-x} overflows to inf and
    the result is exactly 0 (the exact value there is subnormal, as it is
    below x = -708.40); above x = 36.74 it is exactly 1.  That overflow,
    and the underflows near both ends, are the intended rounding, so they
    raise no floating-point error, whatever ``np.errstate`` the caller has
    set."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


class Tensor:
    """A dense float64 array plus its place in the gradient tape.

    ``grad`` holds the gradient accumulated by :meth:`backward`: an array
    of ``data``'s shape, a :class:`RowGrad` for a table read by row
    gather, or an :class:`OuterGrad` for a weight matrix.  The
    array may share memory with other gradients, so treat it as read-only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | OuterGrad | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    def item(self) -> float:
        return self.data.item()

    def backward(self) -> None:
        """Backpropagate from a scalar output.

        Every intermediate node has its parent links, backward rule and
        gradient dropped as soon as it has been processed, so the
        tape holds no storage afterwards; leaves keep their gradients.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            rule = node._backward
            if rule is None:
                continue
            grads = rule(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            node._parents = ()
            node._backward = None
            node.grad = None


class RowGrad:
    """Gradient of a table read by row gather: row ``rows[k]`` has gradient
    ``values[k]`` and every other row zero.

    ``rows`` are distinct and ascending.  ``np.asarray(grad)`` gives the
    dense array of ``shape``.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows = rows
        self.values = values
        self.shape = shape

    @classmethod
    def gather(cls, idx: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> RowGrad:
        """The gradient of ``table[idx]`` given ``g``, the gradient of the
        gathered rows; repeated rows add in one product with the 0/1 matrix
        of which row each gathered row is, in BLAS's order."""
        rows = np.unique(idx)
        reads = np.equal.outer(rows, idx).astype(np.float64)
        return cls(rows, reads @ g, shape)

    def __add__(self, other: RowGrad) -> RowGrad:
        return RowGrad.gather(np.concatenate([self.rows, other.rows]),
                              np.concatenate([self.values, other.values]), self.shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows] = self.values
        return dense


class OuterGrad:
    """Gradient ``left.T @ right`` of a [rows x cols] matrix kept as its
    factors, [T x rows] and [T x cols], one row per outer product (Goodfellow
    2015, arXiv:1510.01799).  The matrix is the parameter's row-major values
    seen as [rows x cols]; ``shape`` is the parameter's shape, that of the
    matrix by default.  ``np.asarray(grad)`` gives the dense gradient in
    ``shape``."""

    __slots__ = ("left", "right", "shape")

    def __init__(self, left: np.ndarray, right: np.ndarray,
                 shape: tuple[int, ...] | None = None):
        self.left = left
        self.right = right
        self.shape = (left.shape[1], right.shape[1]) if shape is None else tuple(shape)

    def __add__(self, other: OuterGrad) -> OuterGrad:
        return OuterGrad(np.concatenate([self.left, other.left]),
                         np.concatenate([self.right, other.right]), self.shape)

    def __array__(self, dtype=None, copy=None):
        return np.asarray((self.left.T @ self.right).reshape(self.shape), dtype=dtype)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Create an op output, recording the tape edge only when gradients are
    enabled and some parent requires one."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._backward = backward
        return out
    return Tensor(data)


# Backward rules of the two activations, from their outputs.  The kernels
# look them up through this module at backward time.
def _tanh_backward(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (1.0 - out_data * out_data)


def _sigmoid_backward(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * out_data * (1.0 - out_data)
