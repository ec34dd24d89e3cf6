"""Versioned binary model files.

Layout, all integers little-endian, all floats IEEE-754 float64:

    magic    8 bytes  b"DPTRMODL"
    version  u32      format version (currently 1)
    meta     u32 count, then per entry: str key, str value -- the fields of
             the model's ModelShape in order, then pretrained_indexed
    vocab    u32 count, then per non-reserved form: str form, u64 count
    index    u32 count, then per pretrained word: str word, u32 row
    tensors  u32 count, then per tensor: str name, u32 ndim, u64 dims, raw data,
             in the names, dims and order of ``model.tensor_layout``
    crc      u32      CRC-32 of every preceding byte

where ``str`` is a u32 byte length followed by UTF-8 bytes.  Writing is
deterministic: identical parameters produce identical bytes.  Loading
verifies magic, version and checksum before reconstructing anything, so a
damaged file never yields a partial model, and every loaded value is finite.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import fields
from io import BytesIO
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .autodiff import Tensor
from .model import ModelParams, ModelShape, tensor_layout
from .vocab import Vocabulary

__all__ = ["ModelFormatError", "FORMAT_VERSION", "MAGIC", "save_model", "load_model"]

MAGIC = b"DPTRMODL"
FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """The stream is not a loadable model file."""


def _pack_str(out: BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    out.write(struct.pack("<I", len(raw)))
    out.write(raw)


class _Reader:
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


def save_model(model: ModelParams, dest: BinaryIO | str | Path) -> None:
    """Serialize a model; every parameter must be finite."""
    for name, t in model.named_params():
        if not np.all(np.isfinite(t.data)):
            raise ValueError(f"refusing to save non-finite parameter {name}")
    out = BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))

    meta = [(f.name, str(getattr(model.shape, f.name))) for f in fields(model.shape)]
    meta.append(("pretrained_indexed", "0" if model.encoder.pretrained.index is None else "1"))
    out.write(struct.pack("<I", len(meta)))
    for k, v in meta:
        _pack_str(out, k)
        _pack_str(out, v)

    forms = model.vocab.forms[1:]
    counts = model.vocab.counts[1:]
    out.write(struct.pack("<I", len(forms)))
    for f, c in zip(forms, counts):
        _pack_str(out, f)
        out.write(struct.pack("<Q", c))

    index = model.encoder.pretrained.index or {}
    out.write(struct.pack("<I", len(index)))
    for word, row in index.items():
        _pack_str(out, word)
        out.write(struct.pack("<I", row))

    named = model.named_params()
    out.write(struct.pack("<I", len(named)))
    for name, t in named:
        _pack_str(out, name)
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        out.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            out.write(struct.pack("<Q", d))
        out.write(arr.tobytes())

    body = out.getvalue()
    crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    # two writes, not body + crc: that concatenation is a second copy of
    # every parameter held at once
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") as fh:
            fh.write(body)
            fh.write(crc)
    else:
        dest.write(body)
        dest.write(crc)


def load_model(src: BinaryIO | str | Path) -> ModelParams:
    """Read a model file back; inverse of :func:`save_model`."""
    if isinstance(src, (str, Path)):
        with open(src, "rb") as fh:
            data = fh.read()
    else:
        data = src.read()
    # views, not copies: the file's bytes are copied once, into the tensors
    data = memoryview(data)

    r = _Reader(data)
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
        # each field's default gives its type: str or int
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
    # every shape is checked, and its size bounded by the bytes left, before
    # any data is read, so a crafted header can neither mis-split a weight
    # matrix nor ask for an absurd allocation
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
        data = np.frombuffer(r.take(nbytes), dtype="<f8").reshape(dims).copy()
        if not np.isfinite(data).all():
            raise ModelFormatError(f"tensor {name!r} holds a non-finite value")
        tensors[name] = Tensor(data, requires_grad=True)
    if count != len(tensors):
        raise ModelFormatError(
            f"model file declares {count} tensors, its metadata calls for {len(tensors)}"
        )
    if r.pos != len(body):
        raise ModelFormatError(
            f"{len(body) - r.pos} unexpected trailing bytes at offset {r.pos}"
        )

    return ModelParams.from_tensors(shape, vocab, index if indexed else None, tensors)
