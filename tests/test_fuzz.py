"""Hostile input: every reader either succeeds or raises its own module's
error, and the command line turns that error into one line of the right
category."""
import contextlib
import io
import struct
import warnings
import zlib

import numpy as np
import pytest
from corpora import DATA, sent
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpointer.cli import main
from dualpointer.config import ConfigError, RunConfig, dump_config, load_config
from dualpointer.conll import ConllError, read_conll, write_conll
from dualpointer.decoding import gold_trees
from dualpointer.model import init_model
from dualpointer.modelio import ModelFormatError, load_model, save_model
from dualpointer.vocab import (WEIGHT_BOUND, PretrainedError, build_vocab, load_pretrained,
                               within_bound)

TOY = (DATA / "toy.conllu").read_text(encoding="utf-8")
FUZZ = settings(max_examples=300)


def tiny_model():
    """A tiny model file's bytes, and (name, byte offset of its data, element
    count) of every tensor in it.  Only bytes are kept: a live model would
    leave tensors behind for other modules' garbage checks to find."""
    vocab = build_vocab([sent(["a", "b", "c"])])
    model = init_model(np.random.default_rng(0), vocab, d_pretrained=2, d_random=2,
                       bilstm_hidden=2, bilstm_levels=1, ptr_hidden=2)
    buf = io.BytesIO()
    save_model(model, buf)
    data = buf.getvalue()
    tensors = []
    for name, t in model.tensors.items():
        raw = name.encode("utf-8")
        at = data.index(struct.pack("<I", len(raw)) + raw) + 4 + len(raw)
        ndim = struct.unpack_from("<I", data, at)[0]
        tensors.append((name, at + 4 + 8 * ndim, t.data.size))
    return data, tensors


MODEL, TENSORS = tiny_model()


def with_crc(body: bytes) -> bytes:
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def mutated(base: str, edits, alphabet: str) -> str:
    """``base`` with each (position, op, char) edit applied in turn: op 0
    replaces the character at position, 1 inserts before it, 2 deletes it."""
    text = list(base)
    for pos, op, char in edits:
        pos %= len(text) + 1
        if op == 1 or pos == len(text):
            text.insert(pos, alphabet[char % len(alphabet)])
        elif op == 0:
            text[pos] = alphabet[char % len(alphabet)]
        else:
            del text[pos]
    return "".join(text)


EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 10**3)),
                 min_size=1, max_size=8)

# fields a CoNLL line might hold, hostile ones included
FIELD = st.one_of(
    st.sampled_from(["_", "0", "1", "2", "3", "-1", "1-2", "2.1", "NN", "#", "", " ",
                     "9" * 30, "1_0", "١", "+2", "0x1"]),
    st.text(max_size=4),
)
CONLL_TEXT = st.lists(
    st.one_of(st.lists(FIELD, max_size=11).map("\t".join), st.just(""), st.just("# c")),
    max_size=20,
).map("\n".join)


def read_or_conll_error(stream):
    try:
        return read_conll(stream)
    except ConllError:
        return None


class TestReadConll:
    @FUZZ
    @given(st.text())
    def test_any_text(self, text):
        read_or_conll_error(io.StringIO(text))

    @FUZZ
    @given(CONLL_TEXT)
    @example("1\t_\t_\t_\t_\t_\t2")
    def test_conll_shaped_text(self, text):
        """Reading checks ids and head syntax; a head out of range gets past
        the reader only to be refused by the one check of gold heads."""
        sentences = read_or_conll_error(io.StringIO(text))
        for s in sentences or []:
            assert [t.index for t in s] == list(range(1, len(s) + 1))
            if not all(t.head is None or 0 <= t.head <= len(s) for t in s):
                with pytest.raises(ConllError):
                    gold_trees([s], "fuzzed")

    @FUZZ
    @given(EDITS)
    def test_mutated_treebank(self, edits):
        read_or_conll_error(io.StringIO(mutated(TOY, edits, "\t\n _#-.0123456789x")))

    @FUZZ
    @given(st.binary(), st.binary(max_size=8))
    def test_any_bytes(self, head, tail):
        raw = TOY.encode("utf-8")[:200] + head + tail
        read_or_conll_error(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))


class TestLoadConfig:
    BASE = dump_config(RunConfig(train_path="t.conllu", seeds=(1, 2)))

    @FUZZ
    @given(EDITS)
    def test_mutated_config(self, edits):
        try:
            load_config(mutated(self.BASE, edits, "[]=#;:\n\t .,-_e019abcxyzé"))
        except ConfigError:
            pass

    @FUZZ
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=6))
    def test_shuffled_lines(self, picks):
        lines = self.BASE.splitlines()
        try:
            load_config("\n".join(lines[p % len(lines)] for p in picks))
        except ConfigError:
            pass


FLIPS = st.lists(st.tuples(st.integers(0, len(MODEL) - 5), st.integers(0, 7)),
                 min_size=1, max_size=3)


def flipped(flips) -> bytes:
    """MODEL with each (byte, bit) of ``flips`` flipped and the checksum recomputed."""
    body = bytearray(MODEL[:-4])
    for pos, bit in flips:
        body[pos] ^= 1 << bit
    return with_crc(body)


class TestLoadModel:
    def test_every_truncation(self):
        for cut in range(len(MODEL)):
            with pytest.raises(ModelFormatError):
                load_model(io.BytesIO(MODEL[:cut]))

    @settings(max_examples=1000)
    @given(FLIPS)
    def test_bit_flips_with_checksum_recomputed(self, flips):
        try:
            model = load_model(io.BytesIO(flipped(flips)))
        except ModelFormatError:
            return
        assert all(np.isfinite(t.data).all() for t in model.tensors.values())
        assert all(within_bound(t.data) for t in model.tensors.values())

    @given(st.sampled_from(TENSORS), st.integers(0, 10**6),
           st.sampled_from([np.nan, np.inf, -np.inf, 1.5e308, -1.5e308, 1.01 * WEIGHT_BOUND]))
    def test_non_finite_value(self, workdir, tensor, element, value):
        name, offset, size = tensor
        body = bytearray(MODEL[:-4])
        struct.pack_into("<d", body, offset + 8 * (element % size), value)
        with pytest.raises(ModelFormatError, match=f"tensor '{name}' holds a non-finite"):
            load_model(io.BytesIO(with_crc(body)))
        model, gold = workdir / "huge.bin", workdir / "gold.conllu"
        model.write_bytes(with_crc(body))
        gold.write_text(TOY, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_error(["eval", "--model", str(model), "--test", str(gold)]) == "model"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_weights_at_the_bound_decode_without_overflow(self, workdir):
        """Every weight and embedding value at +-WEIGHT_BOUND: the model
        loads and evaluates with no floating-point warning."""
        model = load_model(io.BytesIO(MODEL))
        signs = np.random.default_rng(0)
        for t in model.tensors.values():
            t.data[...] = WEIGHT_BOUND * signs.choice([-1.0, 1.0], size=t.data.shape)
        path, gold = workdir / "bound.bin", workdir / "gold.conllu"
        save_model(model, str(path))
        gold.write_text(TOY, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert cli_error(["eval", "--model", str(path), "--test", str(gold)]) is None


VECTORS = "the 0.5 -1 2\ndog 1e3 0 -0.25\nbird 0 0 1\n"
VECTOR_CHARS = " \n\t.-+_e0123456789naifxé"


def pretrained_or_error(stream):
    """The table ``load_pretrained`` reads from ``stream``, held to its
    promises, or None when it raised its own error."""
    try:
        table = load_pretrained(stream)
    except PretrainedError:
        return None
    assert within_bound(table.weights)
    assert not table.weights[0].any()
    assert sorted(table.index.values()) == list(range(1, len(table.weights)))
    return table


class TestLoadPretrained:
    @FUZZ
    @given(st.text())
    def test_any_text(self, text):
        pretrained_or_error(io.StringIO(text))

    @FUZZ
    @given(EDITS)
    def test_mutated_vectors(self, edits):
        pretrained_or_error(io.StringIO(mutated(VECTORS, edits, VECTOR_CHARS)))

    @FUZZ
    @given(st.binary(), st.binary(max_size=8))
    def test_any_bytes(self, head, tail):
        raw = VECTORS.encode("utf-8") + head + tail
        pretrained_or_error(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def cli_error(argv):
    """The category of the one error line ``main(argv)`` printed, or None
    when it succeeded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert "Traceback" not in err
        return None
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err.split(":")[1]


class TestCommandLine:
    @FUZZ
    @given(CONLL_TEXT)
    def test_self_eval_of_any_corpus(self, workdir, text):
        # a corpus scored against itself can only be a corpus error
        path = workdir / "self.conllu"
        path.write_text(text, encoding="utf-8")
        assert cli_error(["eval", "--test", str(path), "--output", str(path)]) in (
            None, "corpus")

    @settings(max_examples=100)
    @given(FLIPS)
    def test_eval_with_flipped_model(self, workdir, flips):
        model, gold = workdir / "flipped.bin", workdir / "gold.conllu"
        model.write_bytes(flipped(flips))
        with open(gold, "w", encoding="utf-8") as f:
            write_conll([sent(["a", "b", "zz"]), sent(["c"])], f)
        assert cli_error(["eval", "--model", str(model), "--test", str(gold)]) in (
            None, "model")

    @pytest.mark.parametrize("data, category", [
        (b"\xff\xfe[run]\n", "config"),
        (b"[run]\nseeds = \xe9\n", "config"),
        (b"seeds = 1\n", "config"),
        (b"[run]\n[run]\n", "config"),
        (b"[training]\nepochs = 1e400\n", "config"),
        (b"[training]\nadam_alpha = nan\n", "config"),
        (b"[paths]\ntest = missing.conllu\n", "io"),
    ])
    def test_hostile_config(self, workdir, data, category):
        path = workdir / "hostile.ini"
        path.write_bytes(data)
        assert cli_error(["eval", "--config", str(path)]) == category

    @pytest.mark.parametrize("data", [
        b"\xff\n", TOY.encode("utf-8") + b"\x80", b"1\tx\n", b"1\ta\t_\tN\t_\t_\tx\t_\t_\t_\n",
        b"2\ta\t_\tN\t_\t_\t0\t_\t_\t_\n", b"1\ta\t_\tN\t_\t_\t1\t_\t_\t_\n",
    ], ids=["bad-byte", "bad-last-byte", "short-line", "bad-head", "bad-id", "self-head"])
    def test_hostile_corpus(self, workdir, data):
        path = workdir / "hostile.conllu"
        path.write_bytes(data)
        assert cli_error(["eval", "--test", str(path), "--output", str(path)]) == "corpus"

    @settings(max_examples=60)
    @given(EDITS, st.binary(max_size=4))
    def test_train_with_hostile_vectors(self, workdir, edits, tail):
        vectors, corpus = workdir / "vec.txt", workdir / "train.conllu"
        model = workdir / "vec.bin"
        vectors.write_bytes(mutated(VECTORS, edits, VECTOR_CHARS).encode("utf-8") + tail)
        with open(corpus, "w", encoding="utf-8") as f:
            write_conll([sent(["the", "dog", "a"]), sent(["bird"])], f)
        category = cli_error(["train", "--train", str(corpus), "--dev", str(corpus),
                              "--model", str(model), "--pretrained", str(vectors),
                              "--epochs", "1", "--d-random", "2", "--bilstm-hidden", "2",
                              "--bilstm-levels", "1", "--ptr-hidden", "2"])
        assert category in (None, "vectors", "io")
        if category is None:
            load_model(str(model))

    @pytest.mark.parametrize("damage", ["truncated", "nan", "flipped"])
    def test_hostile_model(self, workdir, damage):
        _, offset, _ = TENSORS[-1]
        body = bytearray(MODEL[:-4])
        if damage == "nan":
            struct.pack_into("<d", body, offset, np.nan)
        data = with_crc(body)
        if damage == "truncated":
            data = data[:len(data) // 2]
        elif damage == "flipped":
            data = data[:-5] + bytes([data[-5] ^ 1]) + data[-4:]
        model, gold = workdir / "hostile.bin", workdir / "gold.conllu"
        model.write_bytes(data)
        gold.write_text(TOY, encoding="utf-8")
        assert cli_error(["eval", "--model", str(model), "--test", str(gold)]) == "model"
