"""Composed references that the library is checked against: a per-step
LSTM cell and the vector ops it is built from, a single-pair attention
score, the unfused output losses, an exact maximum spanning tree decoder,
and a model loader that reads the whole file before it parses it.  Only
tests use them."""
import math
import struct
import zlib
from dataclasses import fields

import numpy as np

from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor
from dualpointer.model import ModelParams, ModelShape, tensor_layout
from dualpointer.modelio import FORMAT_VERSION, MAGIC, ModelFormatError
from dualpointer.pointer import score_all
from dualpointer.vocab import WEIGHT_BOUND, Vocabulary, within_bound


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")

    def backward(g):
        return g, g

    return ad.make_node(a.data + b.data, (a, b), backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g):
        return (ad._tanh_backward(out, g),)

    return ad.make_node(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out = ad.stable_sigmoid(x.data)

    def backward(g):
        return (ad._sigmoid_backward(out, g),)

    return ad.make_node(out, (x,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    av, bv = a.data, b.data
    if av.shape != bv.shape:
        raise ValueError(f"mul shape mismatch: {av.shape} * {bv.shape}")

    def backward(g):
        return g * bv, g * av

    return ad.make_node(av * bv, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, shape).astype(np.float64, copy=False),)

    return ad.make_node(np.asarray(x.data.sum()), (x,), backward)


def concat(xs) -> Tensor:
    """Concatenate vectors into one vector."""
    if not xs:
        raise ValueError("concat of an empty list")
    for x in xs:
        if x.data.ndim != 1:
            raise ValueError(f"concat expects vectors, got shapes {[x.data.shape for x in xs]}")
    offsets = np.cumsum([0] + [x.data.shape[0] for x in xs])

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(xs)))

    return ad.make_node(np.concatenate([x.data for x in xs]), tuple(xs), backward)


def stack(xs) -> Tensor:
    """Stack equal-length vectors into a matrix, one row per input."""
    if not xs:
        raise ValueError("stack of an empty list")
    for x in xs:
        if x.data.ndim != 1:
            raise ValueError(f"stack expects vectors, got shape {x.data.shape}")

    def backward(g):
        return tuple(g[i] for i in range(len(xs)))

    return ad.make_node(np.stack([x.data for x in xs]), tuple(xs), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-d tensor with a 1-d or 2-d tensor."""
    av, bv = a.data, b.data
    if av.ndim != 2 or bv.ndim not in (1, 2) or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g):
        if bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        return g @ bv.T, av.T @ g

    return ad.make_node(av @ bv, (a, b), backward)


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``W @ x + b`` with gradients for all three inputs."""
    if w.data.ndim != 2 or w.data.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"affine shape mismatch: W {w.data.shape} against x {x.data.shape}"
        )
    if b.data.shape != (w.data.shape[0],):
        raise ValueError(
            f"affine bias shape {b.data.shape} does not match output rows {w.data.shape[0]}"
        )
    return add(matmul(w, x), b)


_BCE_CLAMP = 1e-12


def bce_loss(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of probabilities against 0/1 targets; with
    :func:`sigmoid` in front, the composed reference of the logistic
    ``pointer.output_loss``.

    Predictions are clamped to [1e-12, 1 - 1e-12]; gradients vanish in the
    clamped region.
    """
    t = np.asarray(target, dtype=np.float64)
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

    return ad.make_node(np.asarray(loss), (predicted,), backward)


def mse_loss(predicted: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error; with :func:`tanh` in front, the composed
    reference of the tanh ``pointer.output_loss``."""
    t = np.asarray(target, dtype=np.float64)
    p = predicted.data
    if p.shape != t.shape:
        raise ValueError(f"mse_loss shape mismatch: predicted {p.shape}, target {t.shape}")
    n = max(p.size, 1)
    diff = p - t

    def backward(g):
        return (g * 2.0 * diff / n,)

    return ad.make_node(np.asarray((diff * diff).sum() / n), (predicted,), backward)


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
    reference for each direction of ``encoder.bilstm_level``, with the same
    ``w`` and ``b``."""
    h = b.data.shape[0] // 4
    if x.data.ndim != 1 or h_prev.data.shape != (h,) or c_prev.data.shape != (h,):
        raise ValueError(
            f"lstm_cell shapes: x {x.data.shape}, h {h_prev.data.shape}, "
            f"c {c_prev.data.shape}, hidden {h}"
        )
    z = affine(w, concat([x, h_prev]), b)
    i = sigmoid(segment(z, 0, h))
    f = sigmoid(segment(z, h, 2 * h))
    o = sigmoid(segment(z, 2 * h, 3 * h))
    g = tanh(segment(z, 3 * h, 4 * h))
    c = add(mul(f, c_prev), mul(i, g))
    return mul(o, tanh(c)), c


def attention_score(query: Tensor, key: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Score one (query, key) pair: v . tanh(W [key; query] + b), as entry
    (1, 0) of ``pointer.score_all`` on the two rows [key; query].

    Returns a scalar tensor that matches the corresponding entry of
    ``score_all`` on any matrix holding both rows within 1e-12 of the
    largest score, relative, the bound the tests hold (the differences seen
    are about 1e-15).  It need not match bit for bit: BLAS may round a row
    differently with the rows around it.
    The entry is picked with tape ops, so gradients reach both vectors
    through the kernel.
    """
    pick = np.zeros((2, 2))
    pick[1, 0] = 1.0
    return sum_all(mul(score_all(stack([key, query]), w, b, v), Tensor(pick)))


def tree_score(scores: np.ndarray, heads: list[int]) -> float:
    """Sum of ``scores[i - 1, heads[i - 1] - 1]`` over the non-top tokens
    i, in token order (1-based heads, 0 for the top)."""
    return float(sum(scores[i, h - 1] for i, h in enumerate(heads) if h))


def max_spanning_tree(scores: np.ndarray, top: int) -> list[int]:
    """The highest-:func:`tree_score` tree with ``top`` (1-based) as its
    top, found by Chu-Liu/Edmonds: entry (i, j) of ``scores`` is the weight
    of the arc "j heads i".  Returns 1-based heads, 0 for the top."""
    return [h + 1 for h in _arborescence(np.asarray(scores, dtype=np.float64), top - 1)]


def _arborescence(w: np.ndarray, root: int) -> list[int]:
    """0-based heads of the maximum spanning arborescence of the complete
    digraph on ``len(w)`` nodes rooted at ``root``, -1 for the root."""
    n = len(w)
    w = w.copy()
    np.fill_diagonal(w, -np.inf)
    w[root, :] = -np.inf
    best = [int(j) for j in np.argmax(w, axis=1)]
    best[root] = -1
    cycle = _cycle(best)
    if cycle is None:
        return best
    on_cycle = set(cycle)
    rest = [u for u in range(n) if u not in on_cycle]
    new = {u: k for k, u in enumerate(rest)}
    c = len(rest)  # the contracted cycle's node
    sub = np.full((c + 1, c + 1), -np.inf)
    sub[:c, :c] = w[np.ix_(rest, rest)]
    # entering the cycle at u from v breaks the cycle's arc into u
    gain = np.array([[w[u, v] - w[u, best[u]] for v in rest] for u in cycle])
    enter = [cycle[k] for k in np.argmax(gain, axis=0)]
    sub[c, :c] = gain.max(axis=0)
    # leaving the cycle towards u goes from its best head on the cycle
    out = w[np.ix_(rest, cycle)]
    leave = [cycle[k] for k in np.argmax(out, axis=1)]
    sub[:c, c] = out.max(axis=1)
    sub_heads = _arborescence(sub, new[root])
    heads = [-1] * n
    for u in rest:
        h = sub_heads[new[u]]
        heads[u] = -1 if h == -1 else leave[new[u]] if h == c else rest[h]
    for u in cycle:
        heads[u] = best[u]
    heads[enter[sub_heads[c]]] = rest[sub_heads[c]]
    return heads


def _cycle(heads: list[int]) -> list[int] | None:
    """Nodes of some cycle of a 0-based head function, or None."""
    done = [False] * len(heads)
    for start in range(len(heads)):
        path, seen = [], {}
        j = start
        while j != -1 and not done[j] and j not in seen:
            seen[j] = len(path)
            path.append(j)
            j = heads[j]
        if j != -1 and j in seen:
            return path[seen[j]:]
        for p in path:
            done[p] = True
    return None


class _WholeFile:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ModelFormatError(
                f"truncated model file: needed {n} bytes at offset {self.pos}, "
                f"file ends at {len(self.data)}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise ModelFormatError(f"bad UTF-8 at offset {self.pos}: {e}") from None


def load_whole_model(data: bytes) -> ModelParams:
    """The model in a model file's bytes, by ``modelio``'s format, or its
    ModelFormatError: magic and version first, then the checksum over the
    whole body, then the body parsed from memory and each tensor copied out
    of it.  The loader ``modelio.load_model`` must give the same tensors
    and the same error messages, in the same precedence."""
    data = memoryview(data)
    r = _WholeFile(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version} not supported (expected {FORMAT_VERSION})"
        )
    if len(data) < len(MAGIC) + 8:
        raise ModelFormatError("truncated model file")
    body, crc_bytes = data[:-4], data[-4:]
    expected = struct.unpack("<I", crc_bytes)[0]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if expected != actual:
        raise ModelFormatError(
            f"checksum mismatch over {len(body)} bytes: stored {expected:#010x}, "
            f"computed {actual:#010x}"
        )

    meta: dict[str, str] = {}
    for _ in range(r.u32()):
        k = r.string()
        meta[k] = r.string()
    try:
        shape = ModelShape(**{f.name: type(f.default)(meta[f.name])
                              for f in fields(ModelShape)})
        indexed = meta["pretrained_indexed"] == "1"
    except KeyError as e:
        raise ModelFormatError(f"missing metadata entry {e}") from None
    except ValueError as e:
        raise ModelFormatError(f"bad metadata in model file: {e}") from None

    nvocab = r.u32()
    forms, counts = [], []
    for _ in range(nvocab):
        forms.append(r.string())
        counts.append(r.u64())
    try:
        vocab = Vocabulary(forms, counts)
    except ValueError as e:
        raise ModelFormatError(f"bad vocabulary in model file: {e}") from None

    index: dict[str, int] = {}
    for _ in range(r.u32()):
        word = r.string()
        index[word] = r.u32()

    count = r.u32()
    tensors: dict[str, Tensor] = {}
    for expected_name, expected_shape in tensor_layout(shape, len(vocab), indexed):
        name = r.string()
        dims = tuple(r.u64() for _ in range(r.u32()))
        fits = len(dims) == len(expected_shape) and all(
            e is None or d == e for d, e in zip(dims, expected_shape))
        if name != expected_name or not fits:
            raise ModelFormatError(
                f"tensor {name!r} of shape {dims} where the metadata calls for "
                f"{expected_name!r} of shape {expected_shape}"
            )
        if expected_shape[0] is None and max(index.values(), default=0) >= dims[0]:
            raise ModelFormatError(f"pretrained index points past the {dims[0]} table rows")
        nbytes = 8 * math.prod(dims)
        if nbytes > len(body) - r.pos:
            raise ModelFormatError(
                f"tensor {name!r} needs {nbytes} bytes, {len(body) - r.pos} remain"
            )
        values = np.frombuffer(r.take(nbytes), dtype="<f8").reshape(dims).copy()
        if not within_bound(values):
            raise ModelFormatError(
                f"tensor {name!r} holds a non-finite value or one beyond {WEIGHT_BOUND:g}")
        tensors[name] = Tensor(values, requires_grad=True)
    if count != len(tensors):
        raise ModelFormatError(
            f"model file declares {count} tensors, its metadata calls for {len(tensors)}"
        )
    if r.pos != len(body):
        raise ModelFormatError(
            f"{len(body) - r.pos} unexpected trailing bytes at offset {r.pos}"
        )
    return ModelParams(shape, vocab, tensors, index if indexed else None)
