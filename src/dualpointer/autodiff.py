"""Dense float64 tensors on a reverse-mode gradient tape.

The tape is built implicitly: every operation that touches a tensor with
``requires_grad`` records its inputs and a backward rule on the output.
Calling :meth:`Tensor.backward` on a scalar walks the graph once in reverse
topological order and accumulates gradients on the leaves; a table read
by row gather gets a :class:`RowGrad` that names only the rows it touched.

Everything is double precision.  Backward closures capture plain numpy
arrays, never tensor objects, so the graph is a pure DAG with child-to-parent
references only and is freed by reference counting as soon as the loss goes
out of scope (``backward`` additionally severs the graph eagerly).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "RowGrad",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "affine",
    "tanh",
    "concat",
    "stack",
    "sum_all",
    "bce_loss",
    "bce_with_logits",
    "mse_loss",
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


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free for any finite input."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


class Tensor:
    """A dense float64 array plus its place in the gradient tape.

    ``grad`` holds the gradient accumulated by :meth:`backward`: an array
    of ``data``'s shape, or a :class:`RowGrad` for a table read by row
    gather.  The array may share memory with other gradients, so treat it
    as read-only.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __float__(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def backward(self) -> None:
        """Backpropagate from a scalar output.

        Every intermediate node has its parent links, backward rule and
        gradient buffer dropped as soon as it has been processed, so the
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
        gathered rows; repeated rows add in order of appearance."""
        rows, inverse = np.unique(idx, return_inverse=True)
        values = np.zeros((rows.size,) + shape[1:])
        np.add.at(values, inverse, g)
        return cls(rows, values, shape)

    def __add__(self, other: RowGrad) -> RowGrad:
        rows = np.union1d(self.rows, other.rows)
        values = np.zeros((rows.size,) + self.shape[1:])
        values[np.searchsorted(rows, self.rows)] += self.values
        values[np.searchsorted(rows, other.rows)] += other.values
        return RowGrad(rows, values, self.shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows] = self.values
        return dense


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Create an op output, recording the tape edge only when gradients flow."""
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._backward = backward
        return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return make_node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return make_node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return make_node(ad * bd, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        return (g * c,)

    return make_node(a.data * c, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product of a 2-d tensor with a 1-d or 2-d tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2) or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

    def backward(g):
        if bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        return g @ bd.T, ad.T @ g

    return make_node(ad @ bd, (a, b), backward)


def affine(w, x, b) -> Tensor:
    """``W @ x + b`` with gradients for all three inputs."""
    w, x, b = _as_tensor(w), _as_tensor(x), _as_tensor(b)
    if w.data.ndim != 2 or w.data.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"affine shape mismatch: W {w.data.shape} against x {x.data.shape}"
        )
    if b.data.shape != (w.data.shape[0],):
        raise ValueError(
            f"affine bias shape {b.data.shape} does not match output rows {w.data.shape[0]}"
        )
    return add(matmul(w, x), b)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.tanh(x.data)
    od = out_data

    def backward(g):
        return (_tanh_backward(od, g),)

    return make_node(out_data, (x,), backward)


def _tanh_backward(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (1.0 - out_data * out_data)


def _sigmoid_backward(out_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * out_data * (1.0 - out_data)


def concat(xs) -> Tensor:
    """Concatenate vectors into one vector, or matrices with equal row
    counts side by side (along the last axis)."""
    xs = [_as_tensor(x) for x in xs]
    if not xs:
        raise ValueError("concat of an empty list")
    lead = xs[0].data.shape[:-1]
    for x in xs:
        if x.data.ndim not in (1, 2) or x.data.shape[:-1] != lead:
            raise ValueError(
                f"concat expects vectors or matrices with equal row counts, "
                f"got shapes {[x.data.shape for x in xs]}"
            )
    lengths = [x.data.shape[-1] for x in xs]
    offsets = np.cumsum([0] + lengths)

    def backward(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(lengths)))

    return make_node(np.concatenate([x.data for x in xs], axis=-1), tuple(xs), backward)


def stack(xs) -> Tensor:
    """Stack equal-length vectors into a matrix, one row per input."""
    xs = [_as_tensor(x) for x in xs]
    if not xs:
        raise ValueError("stack of an empty list")
    for x in xs:
        if x.data.ndim != 1:
            raise ValueError(f"stack expects vectors, got shape {x.data.shape}")

    def backward(g):
        return tuple(g[i] for i in range(len(xs)))

    return make_node(np.stack([x.data for x in xs]), tuple(xs), backward)


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, shape).astype(np.float64, copy=False),)

    return make_node(np.asarray(x.data.sum()), (x,), backward)


_BCE_CLAMP = 1e-12


def bce_loss(predicted, target) -> Tensor:
    """Mean binary cross-entropy of probabilities against 0/1 targets.

    Predictions are clamped to [1e-12, 1 - 1e-12]; gradients vanish in the
    clamped region.
    """
    predicted = _as_tensor(predicted)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    p = predicted.data
    if p.shape != t.shape:
        raise ValueError(f"bce_loss shape mismatch: predicted {p.shape}, target {t.shape}")
    pc = np.clip(p, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    n = max(p.size, 1)
    loss = -(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)).sum() / n
    inside = (p > _BCE_CLAMP) & (p < 1.0 - _BCE_CLAMP)

    def backward(g):
        gp = np.where(inside, (pc - t) / (pc * (1.0 - pc)), 0.0)
        return (g * gp / n,)

    return make_node(np.asarray(loss), (predicted,), backward)


def bce_with_logits(scores, target) -> Tensor:
    """Mean binary cross-entropy of ``sigmoid(scores)`` against 0/1 targets.

    Fused form: stable for any score magnitude, with the exact backward
    ``(sigmoid(s) - t) / n``.
    """
    scores = _as_tensor(scores)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    s = scores.data
    if s.shape != t.shape:
        raise ValueError(f"bce_with_logits shape mismatch: scores {s.shape}, target {t.shape}")
    n = max(s.size, 1)
    loss = (np.maximum(s, 0.0) - s * t + np.log1p(np.exp(-np.abs(s)))).sum() / n

    def backward(g):
        return (g * (stable_sigmoid(s) - t) / n,)

    return make_node(np.asarray(loss), (scores,), backward)


def mse_loss(predicted, target) -> Tensor:
    """Mean squared error; used by the tanh output-activation variant."""
    predicted = _as_tensor(predicted)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    p = predicted.data
    if p.shape != t.shape:
        raise ValueError(f"mse_loss shape mismatch: predicted {p.shape}, target {t.shape}")
    n = max(p.size, 1)
    diff = p - t

    def backward(g):
        return (g * 2.0 * diff / n,)

    return make_node(np.asarray((diff * diff).sum() / n), (predicted,), backward)
