"""Decoding pipeline: merge math, top detection, greedy selection, cycle
repair, UAS, and the structural guarantees on every output."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualpointer.decoding as decoding
from dualpointer.conll import Sentence, Token
from dualpointer.decoding import (
    AlignmentError,
    DepTree,
    MergedHeadScores,
    PunctuationPolicy,
    cycle_stats,
    decode,
    decode_corpus,
    find_top,
    fix_cycles,
    greedy_heads,
    merge,
    parse,
    uas,
)
from dualpointer.model import JOINT, ModeMismatchError, init_model, score_sentence
from dualpointer.pointer import DEPENDENTS, HEADS, ScoreMatrix
from dualpointer.autodiff import Tensor
from dualpointer.vocab import build_vocab


def mat(data, orientation):
    return ScoreMatrix(Tensor(np.array(data, dtype=np.float64)), orientation)


def sent(words, heads=None, pos=None):
    heads = heads or ([0] + [1] * (len(words) - 1))
    pos = pos or [None] * len(words)
    return Sentence([Token(i + 1, w, p, h) for i, (w, h, p) in enumerate(zip(words, heads, pos))])


class TestMerge:
    def test_zero_scores_give_half(self):
        h = mat(np.zeros((3, 3)), HEADS)
        d = mat(np.zeros((3, 3)), DEPENDENTS)
        np.testing.assert_array_equal(merge(h, d, "p1").m, np.full((3, 3), 0.5))

    def test_p1_averages_before_activation(self):
        # H(1,2)=2, D(2,1)=0: merged entry is the logistic of (2+0)/2
        h = mat([[0.0, 2.0], [0.0, 0.0]], HEADS)
        d = mat(np.zeros((2, 2)), DEPENDENTS)
        m = merge(h, d, "p1")
        np.testing.assert_allclose(m.m[0, 1], 0.7310585786300049, rtol=0, atol=1e-15)

    def test_p1_transposes_dependents(self, rng):
        h = mat(rng.normal(size=(4, 4)), HEADS)
        d = mat(rng.normal(size=(4, 4)), DEPENDENTS)
        m = merge(h, d, "p1")
        expected = 1.0 / (1.0 + np.exp(-(h.data + d.data.T) / 2.0))
        np.testing.assert_allclose(m.m, expected, rtol=1e-12)

    def test_p2_ignores_dependents(self, rng):
        h = mat(rng.normal(size=(3, 3)), HEADS)
        d1 = mat(rng.normal(size=(3, 3)), DEPENDENTS)
        d2 = mat(rng.normal(size=(3, 3)), DEPENDENTS)
        np.testing.assert_array_equal(merge(h, d1, "p2").m, merge(h, d2, "p2").m)
        np.testing.assert_array_equal(merge(h, None, "p2").m, merge(h, d1, "p2").m)

    def test_p3_uses_transposed_dependents_only(self, rng):
        d = mat(rng.normal(size=(3, 3)), DEPENDENTS)
        m = merge(None, d, "p3")
        np.testing.assert_allclose(m.m, 1.0 / (1.0 + np.exp(-d.data.T)), rtol=1e-12)

    def test_entries_open_unit_interval(self, rng):
        h = mat(rng.normal(size=(5, 5)) * 10, HEADS)
        d = mat(rng.normal(size=(5, 5)) * 10, DEPENDENTS)
        m = merge(h, d, "p1").m
        assert np.all(m > 0.0) and np.all(m < 1.0)

    def test_saturated_scores_stay_bounded(self, rng):
        # beyond float64 resolution the logistic clamps to the closed interval
        h = mat(rng.normal(size=(5, 5)) * 500, HEADS)
        d = mat(rng.normal(size=(5, 5)) * 500, DEPENDENTS)
        m = merge(h, d, "p1").m
        assert np.all(np.isfinite(m))
        assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_size_mismatch_rejected(self):
        h = mat(np.zeros((3, 3)), HEADS)
        d = mat(np.zeros((2, 2)), DEPENDENTS)
        with pytest.raises(ValueError):
            merge(h, d, "p1")

    def test_wrong_orientation_rejected(self):
        h = mat(np.zeros((2, 2)), HEADS)
        with pytest.raises(ValueError):
            merge(h, h, "p1")
        with pytest.raises(ValueError):
            merge(None, h, "p3")

    def test_missing_matrix_rejected(self):
        h = mat(np.zeros((2, 2)), HEADS)
        with pytest.raises(ValueError):
            merge(h, None, "p1")

    def test_tanh_activation_variant(self, rng):
        h = mat(rng.normal(size=(3, 3)), HEADS)
        m = merge(h, None, "p2", activation="tanh")
        np.testing.assert_allclose(m.m, np.tanh(h.data), rtol=1e-15)


class TestFindTop:
    def test_single_token(self):
        assert find_top(MergedHeadScores(np.array([[0.7]]))) == 1

    def test_row_maxima_oracle(self):
        # off-diagonal row maxima 0.9 / 0.08 / 0.7: weakest row is token 2
        m = np.array([
            [1.0, 0.9, 0.5],
            [0.05, 1.0, 0.08],
            [0.7, 0.2, 1.0],
        ])
        assert find_top(MergedHeadScores(m)) == 2

    def test_diagonal_never_consulted(self):
        m = np.array([
            [0.0, 0.9, 0.5],
            [9.0, 0.0, 0.08],  # huge diagonal entries elsewhere
            [0.7, 0.2, 0.0],
        ])
        m2 = m.copy()
        np.fill_diagonal(m2, 0.99)
        assert find_top(MergedHeadScores(m)) == find_top(MergedHeadScores(m2))

    def test_tie_breaks_to_smallest_index(self):
        m = np.full((4, 4), 0.5)
        assert find_top(MergedHeadScores(m)) == 1

    def test_sum_aggregation(self):
        # row sums: 1.4 / 0.13 / 0.9 -> token 2 again, but rows built so
        # max and sum disagree are also covered below
        m = np.array([
            [1.0, 0.9, 0.5],
            [0.05, 1.0, 0.08],
            [0.7, 0.2, 1.0],
        ])
        assert find_top(MergedHeadScores(m), agg="sum") == 2

    def test_max_and_sum_can_disagree(self):
        # row maxima: 0.8, 0.5, 0.9, 0.9 -> token 2; row sums: 0.8, 0.95, 2.7, 2.7 -> token 1
        m = np.array([
            [0.0, 0.8, 0.0, 0.0],
            [0.5, 0.0, 0.45, 0.0],
            [0.9, 0.9, 0.0, 0.9],
            [0.9, 0.9, 0.9, 0.0],
        ])
        assert find_top(MergedHeadScores(m), agg="max") == 2
        assert find_top(MergedHeadScores(m), agg="sum") == 1

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            find_top(MergedHeadScores(np.zeros((2, 2))), agg="median")

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    def test_monotone_transform_invariance(self, seed, n):
        m = np.random.default_rng(seed).random((n, n))
        t = find_top(MergedHeadScores(m))
        warped = m ** 3 + m
        assert find_top(MergedHeadScores(warped)) == t


class TestGreedyHeads:
    def test_two_tokens_attach_to_top(self):
        m = MergedHeadScores(np.array([[0.9, 0.1], [0.4, 0.2]]))
        assert greedy_heads(m, 1) == [0, 1]
        assert greedy_heads(m, 2) == [2, 0]

    def test_unique_maxima_exact(self):
        m = MergedHeadScores(np.array([
            [0.0, 0.9, 0.1],
            [0.2, 0.0, 0.8],
            [0.6, 0.3, 0.0],
        ]))
        assert greedy_heads(m, 3) == [2, 3, 0]

    def test_tie_breaks_to_smallest_j(self):
        m = MergedHeadScores(np.full((3, 3), 0.5))
        assert greedy_heads(m, 3) == [2, 1, 0]

    def brute_force(self, m, top):
        n = m.shape[0]
        heads = []
        for i in range(1, n + 1):
            if i == top:
                heads.append(0)
                continue
            best_j, best = None, -np.inf
            for j in range(1, n + 1):
                if j != i and m[i - 1, j - 1] > best:
                    best_j, best = j, m[i - 1, j - 1]
            heads.append(best_j)
        return heads

    def test_against_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-3, 3, size=(n, n))
            top = int(rng.integers(1, n + 1))
            assert greedy_heads(MergedHeadScores(m), top) == self.brute_force(m, top)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_monotone_transform_invariance(self, seed, n):
        g = np.random.default_rng(seed)
        m = g.random((n, n))
        top = int(g.integers(1, n + 1))
        base = greedy_heads(MergedHeadScores(m), top)
        assert greedy_heads(MergedHeadScores(m ** 3 + m), top) == base


def original_cycle_nodes(heads):
    on_cycle = set()
    n = len(heads)
    for i in range(1, n + 1):
        seen = []
        j = i
        while j != 0 and j not in seen:
            seen.append(j)
            j = heads[j - 1]
        if j != 0:
            on_cycle.update(seen[seen.index(j):])
    return on_cycle


class TestFixCycles:
    def test_tree_returned_unchanged(self):
        m = MergedHeadScores(np.random.default_rng(0).random((4, 4)))
        heads = [2, 0, 2, 3]
        assert fix_cycles(heads, m, 2).heads == heads

    def test_three_token_oracle(self):
        """Cycle {1,2}; arc 2->1 at 0.6 is weakest, token 2 reattaches to
        the only non-descendant, the top."""
        m = np.array([
            [0.0, 0.8, 0.1],
            [0.6, 0.0, 0.3],
            [0.1, 0.1, 0.0],
        ])
        tree = fix_cycles([2, 1, 0], MergedHeadScores(m), 3)
        assert tree.heads == [2, 3, 0]
        assert tree.top == 3

    def test_removes_weakest_arc_tie_smallest_dependent(self):
        # both cycle arcs at 0.5: token 1's arc goes
        m = np.full((3, 3), 0.5)
        m[0, 2] = 0.9  # 1 -> 3 is the attractive repair
        tree = fix_cycles([2, 1, 0], MergedHeadScores(m), 3)
        assert tree.heads == [3, 1, 0]

    def test_never_touches_top_or_noncycle_arcs(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            top = int(rng.integers(1, n + 1))
            heads = []
            for i in range(1, n + 1):
                if i == top:
                    heads.append(0)
                else:
                    j = int(rng.integers(1, n + 1))
                    while j == i:
                        j = int(rng.integers(1, n + 1))
                    heads.append(j)
            m = MergedHeadScores(rng.random((n, n)))
            tree = fix_cycles(list(heads), m, top)
            assert tree.top == top
            cyclic = original_cycle_nodes(heads)
            for i in range(1, n + 1):
                if tree.heads[i - 1] != heads[i - 1]:
                    assert i in cyclic, (heads, tree.heads, i)

    def test_wrong_top_precondition_rejected(self):
        m = MergedHeadScores(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fix_cycles([2, 1], m, 1)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_output_always_valid(self, seed, n):
        g = np.random.default_rng(seed)
        top = int(g.integers(1, n + 1))
        heads = []
        for i in range(1, n + 1):
            if i == top:
                heads.append(0)
            else:
                j = int(g.integers(1, n + 1))
                while j == i:
                    j = int(g.integers(1, n + 1))
                heads.append(j)
        tree = fix_cycles(heads, MergedHeadScores(g.random((n, n))), top)
        assert tree.invariant_violation() is None


class TestDepTree:
    def test_valid_tree(self):
        t = DepTree([2, 0, 2])
        assert t.top == 2 and len(t) == 3

    def test_rejects_no_top(self):
        with pytest.raises(ValueError, match="top"):
            DepTree([2, 1])

    def test_rejects_two_tops(self):
        with pytest.raises(ValueError):
            DepTree([0, 0])

    def test_rejects_self_head(self):
        with pytest.raises(ValueError, match="own head"):
            DepTree([1, 0])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            DepTree([2, 3, 1, 0])


class TestParse:
    @pytest.fixture
    def model(self, rng):
        vocab = build_vocab([sent(["a", "b", "c", "d", "e"])])
        return init_model(rng, vocab, mode=JOINT, d_pretrained=3, d_random=4,
                          bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6)

    def test_deterministic(self, model):
        s = sent(["a", "c", "b"])
        t1 = parse(s, model, "p1")
        t2 = parse(s, model, "p1")
        assert t1.heads == t2.heads

    def test_always_valid_on_random_inputs(self, model, rng):
        words = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            n = int(rng.integers(1, 7))
            s = sent([words[int(rng.integers(0, 5))] for _ in range(n)])
            tree = parse(s, model, "p1")
            assert tree.invariant_violation() is None

    def test_variant_gate(self, model):
        with pytest.raises(Exception):
            parse(sent(["a"]), model, "p4")

    def test_p2_independent_of_deps_net(self, model, rng):
        s = sent(["a", "b", "c", "d"])
        before = parse(s, model, "p2").heads
        model.deps_net.w.data += rng.normal(size=model.deps_net.w.data.shape)
        model.deps_net.v.data += 1.0
        assert parse(s, model, "p2").heads == before

    def test_p3_independent_of_heads_net(self, model, rng):
        s = sent(["a", "b", "c", "d"])
        before = parse(s, model, "p3").heads
        model.heads_net.v.data += 1.0
        assert parse(s, model, "p3").heads == before

    def test_output_ignores_gold_head_column(self, model):
        # inference must never peek at the annotation
        words = ["a", "b", "c", "d"]
        annotated = parse(sent(words, [2, 0, 2, 3]), model, "p1")
        different = parse(sent(words, [0, 1, 1, 1]), model, "p1")
        blank = sent(words)
        for t in blank.tokens:
            t.head = None
        unannotated = parse(blank, model, "p1")
        assert annotated.heads == different.heads == unannotated.heads


class TestUas:
    def test_perfect(self):
        gold = [sent(["a", "b"], [2, 0])]
        assert uas(gold, [DepTree([2, 0])]) == 100.0

    def test_three_of_four(self):
        gold = [sent(["a", "b", "c", "d"], [2, 0, 2, 3])]
        pred = [DepTree([2, 0, 2, 2])]
        assert uas(gold, pred) == 75.0

    def test_punctuation_excluded_by_tag_characters(self):
        # a wrong head on the "." tagged token does not lower the score
        gold = [sent(["a", "b", "."], [2, 0, 2], pos=["N", "V", "."])]
        pred = [DepTree([2, 0, 1])]
        assert uas(gold, pred) == 100.0

    def test_extra_tag_list(self):
        gold = [sent(["a", "b", "x"], [2, 0, 2], pos=["N", "V", "PUNCT"])]
        pred = [DepTree([2, 0, 1])]
        assert uas(gold, pred) == pytest.approx(200.0 / 3)
        assert uas(gold, pred, PunctuationPolicy(frozenset({"PUNCT"}))) == 100.0

    def test_top_correct_only_when_gold_zero(self):
        gold = [sent(["a", "b"], [2, 0])]
        assert uas(gold, [DepTree([0, 1])]) == 0.0

    def test_no_countable_tokens_vacuous(self):
        gold = [sent(["."], [0], pos=["."])]
        assert uas(gold, [DepTree([0])]) == 100.0

    def test_corpus_length_mismatch(self):
        with pytest.raises(AlignmentError):
            uas([sent(["a"])], [])

    def test_sentence_length_mismatch(self):
        with pytest.raises(AlignmentError):
            uas([sent(["a", "b"], [2, 0])], [DepTree([0])])


class TestCycleStats:
    def test_range_on_random_model(self, rng):
        vocab = build_vocab([sent(["a", "b", "c"])])
        model = init_model(rng, vocab, d_pretrained=3, d_random=3,
                           bilstm_hidden=4, bilstm_levels=1, ptr_hidden=4)
        corpus = [sent(["a", "b", "c"]), sent(["c", "b"]), sent(["a"])]
        frac = cycle_stats(corpus, model, "p1")
        assert 0.0 <= frac <= 1.0

    def test_single_token_sentences_always_valid(self, rng):
        vocab = build_vocab([sent(["a"])])
        model = init_model(rng, vocab, d_pretrained=3, d_random=3,
                           bilstm_hidden=4, bilstm_levels=1, ptr_hidden=4)
        assert cycle_stats([sent(["a"])] * 5, model, "p1") == 1.0

    def test_empty_corpus(self, rng):
        vocab = build_vocab([sent(["a"])])
        model = init_model(rng, vocab, d_pretrained=3, d_random=3,
                           bilstm_hidden=4, bilstm_levels=1, ptr_hidden=4)
        assert cycle_stats([], model, "p1") == 1.0


class TestDecodeCorpus:
    WORDS = ["a", "b", "c", "d", "e"]

    @pytest.fixture
    def model(self, rng):
        vocab = build_vocab([sent(self.WORDS)])
        return init_model(rng, vocab, mode=JOINT, d_pretrained=3, d_random=4,
                          bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6)

    @pytest.fixture
    def corpus(self, rng):
        return [sent([self.WORDS[int(rng.integers(0, 5))]
                      for _ in range(int(rng.integers(1, 9)))])
                for _ in range(40)]

    @staticmethod
    def greedy_is_tree(sentence, model, variant):
        scored = score_sentence(model, sentence)
        merged = merge(scored.heads, scored.deps, variant)
        try:
            DepTree(greedy_heads(merged, find_top(merged)))
        except ValueError:
            return False
        return True

    def test_matches_parse_and_greedy_tree_share(self, model, corpus):
        decoded = decode_corpus(corpus, model, ("p1", "p2", "p3"))
        assert list(decoded) == ["p1", "p2", "p3"]
        for variant, (trees, fraction) in decoded.items():
            assert [t.heads for t in trees] == [parse(s, model, variant).heads
                                                for s in corpus]
            clean = sum(self.greedy_is_tree(s, model, variant) for s in corpus)
            assert fraction == clean / len(corpus)
            assert fraction == cycle_stats(corpus, model, variant)

    def test_scores_each_sentence_once(self, model, corpus, monkeypatch):
        calls = []
        real = decoding.score_sentence

        def counted(model, sentence, **kwargs):
            calls.append(sentence)
            return real(model, sentence, **kwargs)

        monkeypatch.setattr(decoding, "score_sentence", counted)
        decode_corpus(corpus, model, ("p1", "p2", "p3"))
        assert len(calls) == len(corpus)
        assert all(a is b for a, b in zip(calls, corpus))

    def test_variant_checked_before_scoring(self, model):
        with pytest.raises(ModeMismatchError):
            decode_corpus([], model, ("p1", "p4"))

    def test_empty_corpus_is_cycle_free(self, model):
        assert decode_corpus([], model, ("p2",)) == {"p2": ([], 1.0)}

    def test_flag_is_greedy_tree(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            merged = MergedHeadScores(rng.uniform(size=(n, n)))
            greedy = greedy_heads(merged, find_top(merged))
            tree, was_tree = decode(merged)
            try:
                DepTree(greedy)
                valid = True
            except ValueError:
                valid = False
            assert was_tree == valid
            assert (tree.heads == greedy) == valid
