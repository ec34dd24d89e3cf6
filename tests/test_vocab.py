"""Vocabulary counting and pretrained-table loading."""
import io
import logging

import numpy as np
import pytest

from dualpointer.conll import Sentence, Token
from dualpointer.model import init_model
from dualpointer.vocab import UNKNOWN_ID, build_vocab, load_pretrained, pretrained_row


def sent(words, heads=None):
    heads = heads or [0] + [1] * (len(words) - 1)
    return Sentence([Token(i + 1, w, None, h) for i, (w, h) in enumerate(zip(words, heads))])


def test_counts():
    v = build_vocab([sent(["a", "a", "b"])])
    assert v.frequency(v.lookup("a")) == 2
    assert v.frequency(v.lookup("b")) == 1


def test_unseen_maps_to_unknown():
    v = build_vocab([sent(["a", "b", "c"])])
    assert v.lookup("zzz") == UNKNOWN_ID
    assert "zzz" not in v.ids


def test_lookup_is_lowercased():
    v = build_vocab([sent(["The", "the", "cat"])])
    assert v.lookup("THE") == v.lookup("the")
    assert v.frequency(v.lookup("the")) == 2


def test_size_counts_distinct_lowercased_forms_plus_reserved():
    corpus = [
        sent(["The", "cat", "sat"]),
        sent(["the", "dog", "sat"]),
        sent(["A", "cat", "ran"]),
    ]
    # distinct lowercased: the, cat, sat, dog, a, ran = 6
    v = build_vocab(corpus)
    assert len(v) == 6 + 1


def test_frequencies_sum_to_token_count():
    corpus = [sent(["a", "b", "a"]), sent(["c", "b"])]
    v = build_vocab(corpus)
    assert sum(v.counts) == 5


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([])


def test_every_nonreserved_frequency_positive():
    v = build_vocab([sent(["x", "y"])])
    assert all(c >= 1 for c in v.counts[1:])
    assert v.counts[UNKNOWN_ID] == 0



def test_corpus_word_spelled_like_the_reserved_entry_is_a_word():
    v = build_vocab([sent(["<UNK>", "a", "<unk>"])])
    assert len(v) == 2 + 1
    assert v.lookup("<unk>") not in (UNKNOWN_ID, v.lookup("a"))
    assert v.frequency(v.lookup("<unk>")) == 2
    assert v.counts[UNKNOWN_ID] == 0 and v.lookup("zzz") == UNKNOWN_ID

EMB = "hello 0.1 0.2 0.3\nworld -1.0 0.0 1.0\n"


class TestPretrained:
    def test_basic_load(self):
        t = load_pretrained(io.StringIO(EMB))
        assert t.dim == 3
        assert len(t.weights) == 3  # two words + unknown row
        row = pretrained_row(t.index, "hello")
        np.testing.assert_allclose(t.weights[row], [0.1, 0.2, 0.3])

    def test_header_tolerated(self):
        t = load_pretrained(io.StringIO("2 3\n" + EMB))
        assert t.dim == 3 and len(t.weights) == 3

    def test_unknown_row_zero_and_trainable(self):
        t = load_pretrained(io.StringIO(EMB))
        np.testing.assert_array_equal(t.weights[UNKNOWN_ID], np.zeros(3))
        # a model trains its own copy of the table
        model = init_model(np.random.default_rng(0), build_vocab([sent(["hello"])]), t,
                           d_random=2, bilstm_hidden=2, bilstm_levels=1, ptr_hidden=2)
        trained = model.tensors["emb.pretrained"]
        assert trained.requires_grad and trained.data is not t.weights
        np.testing.assert_array_equal(trained.data, t.weights)

    def test_raw_then_lowercase_lookup(self):
        t = load_pretrained(io.StringIO("Paris 1 1\nparis 2 2\nLondon 3 3\n"))
        assert pretrained_row(t.index, "Paris") != pretrained_row(t.index, "paris")
        # raw miss, lowercase miss: "london" itself is not in the table
        assert pretrained_row(t.index, "LONDON") == UNKNOWN_ID

    def test_case_fallback(self):
        t = load_pretrained(io.StringIO("london 3 3\n"))
        assert pretrained_row(t.index, "London") == pretrained_row(t.index, "london")

    def test_oov_gets_unknown_row(self):
        t = load_pretrained(io.StringIO(EMB))
        assert pretrained_row(t.index, "missing") == UNKNOWN_ID

    def test_dimension_mismatch_names_line(self):
        bad = "a 1 2 3\nb 1 2 3\nc 1 2\n"
        with pytest.raises(ValueError, match="line 3"):
            load_pretrained(io.StringIO(bad))

    def test_duplicate_last_wins_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            t = load_pretrained(io.StringIO("a 1 1\na 2 2\n"))
        assert "duplicate" in caplog.text
        np.testing.assert_allclose(t.weights[pretrained_row(t.index, "a")], [2.0, 2.0])
        assert len(t.weights) == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            load_pretrained(io.StringIO(""))
