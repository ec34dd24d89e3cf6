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
deterministic: identical parameters produce identical bytes.

Loading reads the file in one pass, front to back, from a stream that can
seek: its length bounds every read before anything is allocated for it.
Each tensor's values are read straight into that tensor's own array, a
:data:`CHUNK` at a time, and each chunk is checksummed and held to
``vocab.WEIGHT_BOUND`` while it is still in cache, so the model is held
once and never beside a copy of the file.  The checksum is compared
before a model is returned, so a damaged file never yields a partial
model.  Magic and version are checked first; after them, a damaged file
reports its checksum mismatch even when the damage also broke its
structure or its values, since any other fault is raised only once the
checksum over the whole body has passed.
"""
from __future__ import annotations

import io
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
from .vocab import WEIGHT_BOUND, Vocabulary, within_bound

__all__ = ["ModelFormatError", "FORMAT_VERSION", "MAGIC", "save_model", "load_model"]

MAGIC = b"DPTRMODL"
FORMAT_VERSION = 1
# Tensor values read, checksummed and bound-checked at a time: 32,768
# float64 values, 256 KB, which a core's 2 MB L2 cache still holds when the
# checksum and the bound check pass over them, like ``pointer.BLOCK``.
CHUNK = 32768


class ModelFormatError(Exception):
    """The stream is not a loadable model file."""


def _pack_str(out: BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    out.write(struct.pack("<I", len(raw)))
    out.write(raw)


class _Reader:
    """A seekable stream read front to back once, from where it stands to
    its end (``size`` bytes, the stored checksum the last 4 of them), with
    the CRC-32 of the body bytes read so far.  Every read is bounded by the
    bytes left before anything is allocated for it."""

    def __init__(self, stream: BinaryIO):
        if not stream.seekable():
            raise ModelFormatError("cannot read a model from a stream that cannot seek, "
                                   "such as a pipe: give the model file's path")
        self.stream = stream
        self.start = stream.tell()
        self.size = stream.seek(0, io.SEEK_END) - self.start
        stream.seek(self.start)
        self.body = self.size - 4
        self.pos = 0
        self.crc = 0

    def _truncated(self, n: int, at: int) -> ModelFormatError:
        return ModelFormatError(
            f"truncated model file: needed {n} bytes at offset {at}, file ends at {self.size}"
        )

    def _consumed(self, chunk) -> None:
        left = self.body - self.pos
        self.crc = zlib.crc32(chunk if left >= len(chunk) else chunk[:max(left, 0)], self.crc)
        self.pos += len(chunk)

    def take(self, n: int) -> bytes:
        if self.pos + n > self.size:
            raise self._truncated(n, self.pos)
        chunk = self.stream.read(n)
        if len(chunk) != n:
            raise self._truncated(n, self.pos)
        self._consumed(chunk)
        return chunk

    def read_into(self, buf: memoryview) -> None:
        """Fill ``buf``, which the bytes left are known to hold."""
        done = 0
        while done < len(buf):
            got = self.stream.readinto(buf[done:])
            if not got:
                raise self._truncated(len(buf) - done, self.pos + done)
            done += got
        self._consumed(buf)

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

    def dims(self) -> tuple[int, ...]:
        """A tensor's u32 rank and u64 dims; a rank that the bytes left
        cannot hold fails where reading its dims one by one would."""
        ndim = self.u32()
        if self.pos + 8 * ndim > self.size:
            raise self._truncated(8, self.pos + 8 * ((self.size - self.pos) // 8))
        return struct.unpack(f"<{ndim}Q", self.take(8 * ndim))

    def values(self, name: str, dims: tuple[int, ...]) -> np.ndarray:
        """A tensor's values, read into their own array a chunk at a time,
        each chunk checksummed and bound-checked while it is in cache."""
        data = np.empty(dims, dtype="<f8")
        flat = data.reshape(-1)
        raw = memoryview(flat.view(np.uint8))
        for i in range(0, flat.size, CHUNK):
            part = flat[i:i + CHUNK]
            self.read_into(raw[8 * i:8 * (i + part.size)])
            if not within_bound(part):
                raise ModelFormatError(
                    f"tensor {name!r} holds a non-finite value or one beyond {WEIGHT_BOUND:g}")
        return data

    def verify(self) -> None:
        """Checksum the rest of the body in bounded reads and compare the
        result with the stored checksum."""
        if self.pos < self.body:
            buf = memoryview(bytearray(min(8 * CHUNK, self.body - self.pos)))
            while self.pos < self.body:
                self.read_into(buf[:min(len(buf), self.body - self.pos)])
        if self.pos != self.body:
            # a crafted header ran into the stored checksum
            self.stream.seek(self.start + self.body)
            self.pos = self.body
        expected = self.u32()
        if expected != self.crc:
            raise ModelFormatError(
                f"checksum mismatch over {self.body} bytes: stored {expected:#010x}, "
                f"computed {self.crc:#010x}"
            )


def save_model(model: ModelParams, dest: BinaryIO | str | Path) -> None:
    """Serialize a model; every parameter must be finite and within
    ``WEIGHT_BOUND``, so that the file loads again."""
    out = BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))

    meta = [(f.name, str(getattr(model.shape, f.name))) for f in fields(model.shape)]
    meta.append(("pretrained_indexed", "0" if model.index is None else "1"))
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

    index = model.index or {}
    out.write(struct.pack("<I", len(index)))
    for word, row in index.items():
        _pack_str(out, word)
        out.write(struct.pack("<I", row))

    out.write(struct.pack("<I", len(model.tensors)))
    for name, t in model.tensors.items():
        if not within_bound(t.data):
            raise ValueError(f"refusing to save parameter {name}: "
                             f"a value is non-finite or beyond {WEIGHT_BOUND:g}")
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
    """Read a model file back; inverse of :func:`save_model`.  A stream is
    read from where it stands to its end, and must be able to seek."""
    if isinstance(src, (str, Path)):
        with open(src, "rb") as fh:
            return _load(fh)
    return _load(src)


def _load(stream: BinaryIO) -> ModelParams:
    r = _Reader(stream)
    if r.take(len(MAGIC)) != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version} not supported (expected {FORMAT_VERSION})"
        )
    if r.size < len(MAGIC) + 8:
        raise ModelFormatError("truncated model file")
    # a damaged file reports its checksum before anything its damage broke
    try:
        model = _read_body(r)
    except ModelFormatError:
        r.verify()
        raise
    r.verify()
    return model


def _read_body(r: _Reader) -> ModelParams:
    """Everything after the version, up to the stored checksum."""
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
        dims = r.dims()
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
        if nbytes > r.body - r.pos:
            raise ModelFormatError(
                f"tensor {name!r} needs {nbytes} bytes, {r.body - r.pos} remain"
            )
        tensors[name] = Tensor(r.values(name, dims), requires_grad=True)
    if count != len(tensors):
        raise ModelFormatError(
            f"model file declares {count} tensors, its metadata calls for {len(tensors)}"
        )
    if r.pos != r.body:
        raise ModelFormatError(
            f"{r.body - r.pos} unexpected trailing bytes at offset {r.pos}"
        )

    return ModelParams(shape, vocab, tensors, index if indexed else None)
