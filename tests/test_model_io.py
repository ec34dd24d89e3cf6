"""Model file round trips and damage handling."""
import hashlib
import io
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from corpora import DATA, bundled, sent
from oracles import load_whole_model

from dualpointer.cli import main
from dualpointer.conll import write_conll
from dualpointer.model import DEPS_ONLY, HEADS_ONLY, JOINT, init_model, score_sentence
from dualpointer.modelio import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    load_model,
    save_model,
)
from dualpointer.vocab import build_vocab, load_pretrained, pretrained_row
from dualpointer.decoding import merge, parse


def make_model(seed=3, mode=JOINT, pretrained=None):
    vocab = build_vocab([sent(["a", "b", "c", "The", "dog"])])
    return init_model(
        np.random.default_rng(seed), vocab, pretrained=pretrained, mode=mode,
        d_pretrained=3 if pretrained is None else pretrained.dim,
        d_random=4, bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6,
    )


def save_bytes(model):
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def test_roundtrip_bit_identical_params():
    m = make_model()
    loaded = load_model(io.BytesIO(save_bytes(m)))
    orig = m.tensors
    back = loaded.tensors
    assert orig.keys() == back.keys()
    for name in orig:
        np.testing.assert_array_equal(orig[name].data, back[name].data)
        assert back[name].requires_grad
    assert loaded.mode == m.mode
    assert loaded.vocab.forms == m.vocab.forms
    assert loaded.vocab.counts == m.vocab.counts


def test_save_load_save_byte_identical():
    m = make_model()
    first = save_bytes(m)
    second = save_bytes(load_model(io.BytesIO(first)))
    assert first == second


def test_scores_identical_after_roundtrip():
    m = make_model()
    s = sent(["a", "dog", "b", "c"])
    loaded = load_model(io.BytesIO(save_bytes(m)))
    before = score_sentence(m, s)
    after = score_sentence(loaded, s)
    np.testing.assert_array_equal(before.heads.data, after.heads.data)
    np.testing.assert_array_equal(before.deps.data, after.deps.data)
    merged_before = merge(before.heads, before.deps, "p1")
    merged_after = merge(after.heads, after.deps, "p1")
    np.testing.assert_array_equal(merged_before, merged_after)
    assert parse([s], m)[0].heads == parse([s], loaded)[0].heads


def test_single_task_modes_roundtrip():
    for mode in (HEADS_ONLY, DEPS_ONLY):
        m = make_model(mode=mode)
        loaded = load_model(io.BytesIO(save_bytes(m)))
        assert loaded.mode == mode
        assert list(loaded.tensors) == list(m.tensors)


def test_pretrained_index_preserved():
    table = load_pretrained(io.StringIO("dog 1 0 0\nThe 0 1 0\n"))
    m = make_model(pretrained=table)
    loaded = load_model(io.BytesIO(save_bytes(m)))
    assert loaded.index == table.index
    assert pretrained_row(loaded.index, "dog") == pretrained_row(table.index, "dog") == 1


def test_file_path_roundtrip(tmp_path):
    m = make_model()
    path = tmp_path / "model.bin"
    save_model(m, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(
        loaded.tensors["emb.random"].data, m.tensors["emb.random"].data
    )


def test_deterministic_bytes_same_seed_config():
    assert save_bytes(make_model(seed=11)) == save_bytes(make_model(seed=11))
    assert save_bytes(make_model(seed=11)) != save_bytes(make_model(seed=12))


def test_nonfinite_params_refused():
    m = make_model()
    m.tensors["ptr.heads.v"].data[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        save_model(m, io.BytesIO())


def with_tensor_dims(data, name, dims):
    """A saved model with the dims of one tensor rewritten and the checksum
    recomputed, so that only the shape checks can catch it."""
    body = bytearray(data[:-4])
    raw = name.encode("utf-8")
    at = body.index(struct.pack("<I", len(raw)) + raw) + 4 + len(raw)
    assert struct.unpack_from("<I", body, at)[0] == len(dims)
    struct.pack_into(f"<{len(dims)}Q", body, at + 4, *dims)
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class ShrinksOnceMeasured(io.BytesIO):
    """``data`` whose end moves back to ``keep`` bytes once a reader has
    measured it, as a file truncated after it was opened does."""

    def __init__(self, data, keep):
        super().__init__(data)
        self.keep = keep

    def seek(self, offset, whence=io.SEEK_SET):
        at = super().seek(offset, whence)
        if whence == io.SEEK_END:
            self.truncate(self.keep)
        return at


class TestDamage:
    def test_bad_magic(self):
        data = b"NOTMODEL" + save_bytes(make_model())[8:]
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(io.BytesIO(data))

    def test_version_mismatch_explicit(self):
        data = bytearray(save_bytes(make_model()))
        data[len(MAGIC)] = FORMAT_VERSION + 1
        with pytest.raises(ModelFormatError, match="version"):
            load_model(io.BytesIO(bytes(data)))

    def test_truncated_no_partial_model(self):
        data = save_bytes(make_model())
        for cut in (len(data) // 2, len(data) - 5):
            with pytest.raises(ModelFormatError):
                load_model(io.BytesIO(data[:cut]))

    @pytest.mark.parametrize("where", ["header", "metadata", "tensor"])
    def test_file_truncated_after_opening(self, where):
        """A stream that delivers fewer bytes than its measured size, as a
        file truncated after it was opened: the read that comes up short
        ends in a truncation error that names its own byte count and offset,
        in the header (the version), in the body's first string and in the
        last tensor's values."""
        data = save_bytes(make_model())
        assert len(data) == 12510
        keep, needed = {"header": (len(MAGIC) + 2, "4 bytes at offset 8"),
                        "metadata": (40, "10 bytes at offset 37"),
                        "tensor": (len(data) - 12, "8 bytes at offset 12498")}[where]
        with pytest.raises(ModelFormatError) as caught:
            load_model(ShrinksOnceMeasured(data, keep))
        assert str(caught.value) == (
            f"truncated model file: needed {needed}, file ends at {len(data)}")

    def test_flipped_byte_fails_checksum_with_offset(self):
        data = bytearray(save_bytes(make_model()))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ModelFormatError, match="checksum.*bytes"):
            load_model(io.BytesIO(bytes(data)))

    def test_trailing_garbage_rejected(self):
        data = save_bytes(make_model()) + b"xx"
        with pytest.raises(ModelFormatError):
            load_model(io.BytesIO(data))

    def test_empty_stream(self):
        with pytest.raises(ModelFormatError):
            load_model(io.BytesIO(b""))

    def test_transposed_weight_rejected(self):
        # same byte count, so only the shape check against the metadata
        # stops the fused LSTM from splitting the matrix at the wrong column
        data = with_tensor_dims(save_bytes(make_model()), "lstm.l0.fwd.w", (12, 20))
        with pytest.raises(ModelFormatError, match="metadata calls for"):
            load_model(io.BytesIO(data))

    def test_duplicate_vocabulary_form_rejected(self):
        body = bytearray(save_bytes(make_model())[:-4])
        at = body.index(b"dog")
        body[at:at + 3] = b"the"  # "the" is already a form: vocabulary keys are lowercased
        data = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ModelFormatError, match="vocabulary"):
            load_model(io.BytesIO(data))

    def test_absurd_dims_are_a_model_error_on_the_command_line(self, tmp_path, capsys):
        data = with_tensor_dims(save_bytes(make_model()), "emb.pretrained", (2**40, 2**40))
        model_path = tmp_path / "crafted.bin"
        model_path.write_bytes(data)
        test_path = tmp_path / "test.conllu"
        with open(test_path, "w", encoding="utf-8") as f:
            write_conll([sent(["a", "b"])], f)
        code = main(["parse", "--model", str(model_path), "--test", str(test_path),
                     "--output", str(tmp_path / "out.conllu")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:model:"), err

    def test_non_finite_tensor_is_a_model_error_on_the_command_line(self, tmp_path, capsys):
        m = make_model()
        m.tensors["ptr.deps.v"].data[1] = 1234.5
        body = bytearray(save_bytes(m)[:-4])
        at = body.index(struct.pack("<d", 1234.5))
        struct.pack_into("<d", body, at, np.nan)
        data = bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ModelFormatError, match="'ptr.deps.v' holds a non-finite"):
            load_model(io.BytesIO(data))
        model_path = tmp_path / "nan.bin"
        model_path.write_bytes(data)
        test_path = tmp_path / "test.conllu"
        with open(test_path, "w", encoding="utf-8") as f:
            write_conll([sent(["a", "b"])], f)
        code = main(["eval", "--model", str(model_path), "--test", str(test_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:model:") and "ptr.deps.v" in captured.err


def with_metadata(data, changes):
    """A saved model with metadata entries replaced (or, for a None value,
    removed) and the checksum recomputed, so that only the metadata checks
    can catch it."""
    body = bytes(data[:-4])
    pos = len(MAGIC) + 4
    (count,) = struct.unpack_from("<I", body, pos)
    pos += 4
    entries = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            (n,) = struct.unpack_from("<I", body, pos)
            pair.append(body[pos + 4:pos + 4 + n].decode("utf-8"))
            pos += 4 + n
        entries.append(pair)
    meta = {k: changes.get(k, v) for k, v in entries if changes.get(k, v) is not None}
    out = bytearray(body[:len(MAGIC) + 4])
    out += struct.pack("<I", len(meta))
    for k, v in meta.items():
        for s in (k, v):
            raw = s.encode("utf-8")
            out += struct.pack("<I", len(raw)) + raw
    out += body[pos:]
    return bytes(out) + struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)


def test_metadata_rewrite_unchanged_is_loadable():
    data = save_bytes(make_model())
    assert with_metadata(data, {}) == data


@pytest.mark.parametrize("changes", [
    {"mode": None}, {"activation": None}, {"bilstm_hidden": None},
    {"ptr_hidden": None}, {"pretrained_indexed": None},
    {"ptr_hidden": "1e3"}, {"bilstm_levels": "0"}, {"d_random": "-2"},
    {"mode": "both"}, {"activation": "relu"},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_bad_metadata_is_a_model_error(changes, tmp_path, capsys):
    data = with_metadata(save_bytes(make_model()), changes)
    with pytest.raises(ModelFormatError):
        load_model(io.BytesIO(data))
    model_path = tmp_path / "crafted.bin"
    model_path.write_bytes(data)
    test_path = tmp_path / "test.conllu"
    with open(test_path, "w", encoding="utf-8") as f:
        write_conll([sent(["a", "b"])], f)
    code = main(["parse", "--model", str(model_path), "--test", str(test_path),
                 "--output", str(tmp_path / "out.conllu")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:model:") and err.count("\n") == 1, err


def test_pretrained_table_sets_the_recorded_width():
    # a pretrained table brings its own width, whatever d_pretrained says,
    # and the model file must record that width to load again
    table = load_pretrained(io.StringIO("dog 1 0 0\nThe 0 1 0\n"))
    vocab = build_vocab([sent(["a", "dog"])])
    m = init_model(np.random.default_rng(1), vocab, pretrained=table, d_random=4,
                   bilstm_hidden=5, bilstm_levels=1, ptr_hidden=6)
    assert m.shape.d_pretrained == 3
    loaded = load_model(io.BytesIO(save_bytes(m)))
    assert loaded.shape == m.shape
    assert save_bytes(loaded) == save_bytes(m)


TOY = DATA / "toy.conllu"
VEC3 = "the 1 0 0\ndog 0 1 0\nbird 0 0 1\n"


@pytest.mark.parametrize("kw, digest", [
    ({}, "dbb9d41e5a93e7e71b437fe3cf4ba601b88bf6043b4a2aae363d15e1d663eb98"),
    ({"mode": HEADS_ONLY}, "6915e0bde081bd542bc5a518c0ceadd6e50700b95a468078f93e508c58ead4b2"),
    ({"mode": DEPS_ONLY}, "31568f82ad94ecce8e18922aa2675fc3f81c214065f83047195ade4a9aecf915"),
    ({"activation": "tanh"}, "ba116ecec76ecbee641558fc1b3e67fe31dcb0620bc3aaa61e8f42e7162cd7e9"),
    ({"pretrained": VEC3, "bilstm_hidden": 8},
     "27c6c08187f4c0e7c2f9ca7dea7a35672a7c42b1642776bbf04532e9f665a841"),
], ids=["joint", "heads-only", "deps-only", "tanh", "pretrained"])
def test_initial_model_bytes_are_pinned(kw, digest):
    """The draw order, draw rules and file layout of a fresh model, pinned
    across changes to the code: seed 7, the bundled toy corpus."""
    vocab = build_vocab(bundled("toy"))
    if "pretrained" in kw:
        kw = dict(kw, pretrained=load_pretrained(io.StringIO(kw["pretrained"])))
    data = save_bytes(init_model(np.random.default_rng(7), vocab, **kw))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("pretrained, mode, digest", [
    (False, None, "ef5997531f694f742c5a2ca0e4c13d1f3717c7db7fd52d34223be0fcdb93e954"),
    (True, None, "991d2aaedf8c13958b03ebd6c8ed9d393ef2dc8c708e1f5567647c573e32e19d"),
    (False, "heads", "5fe16195692cc22a489ffef285cc11fe0049db04b8bb5770d68b5e89c4a587d2"),
    (False, "deps", "3550fd86d67ffc2cfd8814aa2a2d872f18d39135a321027171aa027b43c99082"),
], ids=["joint", "pretrained", "heads-only", "deps-only"])
def test_trained_model_bytes_are_pinned(tmp_path, pretrained, mode, digest):
    """What training computes, pinned across changes to the code: two
    epochs on the bundled toy corpus, seed 3, BiLSTM hidden 16.

    A BLAS kernel's blocking and FMA order set the rounding of every matrix
    product, and numpy picks its ufunc loops by CPU (``np.exp`` and
    ``np.log1p`` round apart on AVX-512), so each run is a child process
    on OpenBLAS's Haswell (AVX2) kernel and one thread, with numpy's
    dispatch capped at AVX2 (``NPY_DISABLE_CPU_FEATURES``), set in the
    child's environment only.  The digests come from OpenBLAS 0.3.31 and
    numpy 2.4.6; another BLAS or numpy build ignores the variables or may
    round differently."""
    dest = tmp_path / "m.bin"
    argv = ["train", "--train", str(TOY), "--dev", str(TOY), "--model", str(dest),
            "--epochs", "2", "--bilstm-hidden", "16", "--seeds", "3"]
    if mode:
        argv += ["--mode", mode]
    if pretrained:
        vectors = tmp_path / "vec.txt"
        vectors.write_text(VEC3, encoding="utf-8")
        argv += ["--pretrained", str(vectors)]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DATA.parent / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "dualpointer.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


def outcome(load, data):
    """What loading ``data`` gives: its error message, or every value of
    the model, tensors as dtype, shape and bytes."""
    try:
        m = load(data)
    except ModelFormatError as e:
        return str(e)
    return (m.shape, m.vocab.forms, m.vocab.counts, m.index,
            [(name, t.data.dtype.str, t.data.shape, t.data.tobytes(), t.requires_grad)
             for name, t in m.tensors.items()])


def with_crc(body):
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class TestAgainstWholeFileLoader:
    """``load_model`` reads a file in one pass; the oracle reads it whole,
    checks its checksum, then parses it.  Both give the same tensors, or the
    same error message, in the same precedence."""

    @pytest.fixture(params=["joint", "pretrained"])
    def data(self, request):
        """A model file of a few kilobytes, so that every cut of it loads."""
        table = None
        if request.param == "pretrained":
            table = load_pretrained(io.StringIO("dog 1 0\nThe 0 1\n"))
        vocab = build_vocab([sent(["a", "b", "c", "dog"])])
        return save_bytes(init_model(
            np.random.default_rng(0), vocab, pretrained=table, d_pretrained=2, d_random=2,
            bilstm_hidden=2, bilstm_levels=1, ptr_hidden=2,
            mode=JOINT if table is None else HEADS_ONLY))

    @staticmethod
    def assert_same(data):
        mine = outcome(lambda d: load_model(io.BytesIO(d)), data)
        assert mine == outcome(load_whole_model, data)
        return mine

    def test_every_truncation(self, data):
        for cut in range(len(data)):
            assert isinstance(self.assert_same(data[:cut]), str)
            if cut >= 4:
                self.assert_same(with_crc(data[:cut - 4]))

    def test_random_byte_flips(self, data):
        rng = np.random.default_rng(5)
        loaded = 0
        for _ in range(300):
            body = bytearray(data[:-4])
            for pos in rng.integers(0, len(body), size=rng.integers(1, 4)):
                body[pos] ^= int(rng.integers(1, 256))
            assert isinstance(self.assert_same(bytes(body) + data[-4:]), str)
            loaded += not isinstance(self.assert_same(with_crc(body)), str)
        assert loaded  # some flips land in tensor values and still load

    def test_intact_with_trailing_bytes_and_from_mid_stream(self, data):
        assert not isinstance(self.assert_same(data), str)
        for tail in (b"x", b"xyzw", b"\0" * 9):
            assert isinstance(self.assert_same(data + tail), str)
        stream = io.BytesIO(b"prefix" + data)
        stream.seek(6)
        assert outcome(load_model, stream) == outcome(load_whole_model, data)


def test_flipped_header_byte_reports_the_checksum():
    """Damage that breaks the header's structure still reads as a checksum
    mismatch: every byte from the metadata count to the first tensor's
    values, flipped."""
    data = save_bytes(make_model())
    first_values = data.index(b"emb.pretrained") + len("emb.pretrained") + 4 + 2 * 8
    for pos in range(len(MAGIC) + 4, first_values):
        damaged = bytearray(data)
        damaged[pos] ^= 0xFF
        with pytest.raises(ModelFormatError, match="^checksum mismatch over"):
            load_model(io.BytesIO(bytes(damaged)))


def test_loading_holds_the_model_once(tmp_path):
    """``load_model(path)`` on a default-size model peaks below 1.25 times
    its tensor bytes (tracemalloc): the values go straight from the file
    into their tensors, with no whole-file buffer beside them."""
    model = init_model(np.random.default_rng(0), build_vocab(bundled("toy")))
    tensor_bytes = sum(t.data.nbytes for t in model.tensors.values())
    path = tmp_path / "default.bin"
    save_model(model, path)
    del model
    tracemalloc.start()
    try:
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for t in loaded.tensors.values()) == tensor_bytes
    assert peak < 1.25 * tensor_bytes, peak / tensor_bytes


@pytest.mark.parametrize("field, error", [
    ("metadata key", "truncated model file: needed 2147483648 bytes"),
    ("tensor name", "truncated model file: needed 4294967295 bytes"),
    ("rank", "truncated model file: needed 8 bytes"),
    ("dims", "tensor 'emb.pretrained' needs 26388279066624 bytes"),
])
def test_crafted_lengths_fail_before_allocating(field, error):
    """A header length, rank or shape beyond the file is refused before
    anything of its size is allocated, behind a valid checksum."""
    table = load_pretrained(io.StringIO("dog 1 0 0\nThe 0 1 0\n"))
    body = bytearray(save_bytes(make_model(pretrained=table))[:-4])
    at = body.index(b"lstm.l0.fwd.w")
    if field == "metadata key":
        struct.pack_into("<I", body, len(MAGIC) + 8, 2**31)
    elif field == "tensor name":
        struct.pack_into("<I", body, at - 4, 2**32 - 1)
    elif field == "rank":
        struct.pack_into("<I", body, at + len("lstm.l0.fwd.w"), 2**32 - 1)
    else:
        # the word index bounds only the rows of a table read from a file
        body = bytearray(with_tensor_dims(with_crc(body), "emb.pretrained", (2**40, 3))[:-4])
    data = with_crc(body)
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as caught:
            load_model(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value).startswith(error)
    assert str(caught.value) == outcome(load_whole_model, data)
    assert peak < 64 * len(data), peak


def test_stream_that_cannot_seek_is_a_model_error(tmp_path, capsys):
    # the loader refuses the stream before reading from it; a model's first
    # 4,096 bytes fit a pipe's buffer, so no writer waits on a reader
    data = save_bytes(make_model())[:4096]
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    with open(read_end, "rb") as pipe, pytest.raises(ModelFormatError, match="cannot seek"):
        load_model(pipe)

    if not hasattr(os, "mkfifo"):
        return
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as f:
                f.write(data)
        except BrokenPipeError:
            pass  # the reader may close before the write

    writer = threading.Thread(target=feed)
    writer.start()
    test_path = tmp_path / "test.conllu"
    with open(test_path, "w", encoding="utf-8") as f:
        write_conll([sent(["a", "b"])], f)
    code = main(["eval", "--model", str(fifo), "--test", str(test_path)])
    writer.join(timeout=10)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:model:") and captured.err.count("\n") == 1, captured.err
