"""Decoding pipeline: merge math, top detection, greedy selection, cycle
repair, UAS, and the structural guarantees on every output."""
import io
import itertools

import numpy as np
import pytest
from corpora import bundled, sent
from hypothesis import given
from hypothesis import strategies as st
from oracles import max_spanning_tree, tree_score

import dualpointer.decoding as decoding
import dualpointer.model as model_module
from dualpointer import pointer
from dualpointer.config import RunConfig
from dualpointer.decoding import (
    AlignmentError,
    DepTree,
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
from dualpointer.model import (JOINT, MODE_NETS, MODE_VARIANTS, MODES, VARIANTS,
                               ModeMismatchError, init_model, score_sentence)
from dualpointer.modelio import load_model
from dualpointer.training import train
from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor
from dualpointer.vocab import build_vocab


def mat(data):
    return Tensor(np.array(data, dtype=np.float64))


def act(activation):
    return {"sigmoid": ad.stable_sigmoid, "tanh": np.tanh}[activation]


# the formula each variant's merge replaced, on raw (heads, dependents) arrays
FORMULAS = {
    "p1": lambda h, d: (h + d.T) / 2.0,
    "p2": lambda h, d: h,
    "p3": lambda h, d: d.T,
    "p4": lambda h, d: h,
    "p5": lambda h, d: d.T,
}


class TestMerge:
    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("variant", list(FORMULAS))
    def test_matches_formula_bit_for_bit(self, rng, variant, activation):
        for n in (1, 2, 7, 30):
            h, d = rng.normal(size=(n, n)) * 5, rng.normal(size=(n, n)) * 5
            got = merge(mat(h), mat(d), variant, activation)
            assert np.array_equal(got, act(activation)(FORMULAS[variant](h, d)))

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("variant", list(FORMULAS))
    def test_every_variant_stays_in_range(self, rng, variant, activation):
        h, d = mat(rng.normal(size=(5, 5)) * 500), mat(rng.normal(size=(5, 5)) * 500)
        m = merge(h, d, variant, activation)
        assert np.all(np.isfinite(m))
        assert np.all(m >= (0.0 if activation == "sigmoid" else -1.0)) and np.all(m <= 1.0)

    @pytest.mark.parametrize("variant", list(FORMULAS))
    def test_missing_net_rejected(self, variant):
        for tag in VARIANTS[variant][1]:
            given = {"heads": mat(np.zeros((2, 2))), "deps": mat(np.zeros((2, 2))), tag: None}
            with pytest.raises(ValueError, match=f"needs the {tag}"):
                merge(given["heads"], given["deps"], variant)

    def test_unknown_variant_rejected(self):
        h = mat(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unknown"):
            merge(h, h, "p9")

    def test_zero_scores_give_half(self):
        h = mat(np.zeros((3, 3)))
        d = mat(np.zeros((3, 3)))
        np.testing.assert_array_equal(merge(h, d, "p1"), np.full((3, 3), 0.5))

    def test_p1_averages_before_activation(self):
        # H(1,2)=2, D(2,1)=0: merged entry is the logistic of (2+0)/2
        h = mat([[0.0, 2.0], [0.0, 0.0]])
        d = mat(np.zeros((2, 2)))
        m = merge(h, d, "p1")
        np.testing.assert_allclose(m[0, 1], 0.7310585786300049, rtol=0, atol=1e-15)

    def test_p1_transposes_dependents(self, rng):
        h = mat(rng.normal(size=(4, 4)))
        d = mat(rng.normal(size=(4, 4)))
        m = merge(h, d, "p1")
        expected = 1.0 / (1.0 + np.exp(-(h.data + d.data.T) / 2.0))
        np.testing.assert_allclose(m, expected, rtol=1e-12)

    def test_p2_ignores_dependents(self, rng):
        h = mat(rng.normal(size=(3, 3)))
        d1 = mat(rng.normal(size=(3, 3)))
        d2 = mat(rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(merge(h, d1, "p2"), merge(h, d2, "p2"))
        np.testing.assert_array_equal(merge(h, None, "p2"), merge(h, d1, "p2"))

    def test_p3_uses_transposed_dependents_only(self, rng):
        d = mat(rng.normal(size=(3, 3)))
        m = merge(None, d, "p3")
        np.testing.assert_allclose(m, 1.0 / (1.0 + np.exp(-d.data.T)), rtol=1e-12)

    def test_entries_open_unit_interval(self, rng):
        h = mat(rng.normal(size=(5, 5)) * 10)
        d = mat(rng.normal(size=(5, 5)) * 10)
        m = merge(h, d, "p1")
        assert np.all(m > 0.0) and np.all(m < 1.0)

    def test_saturated_scores_stay_bounded(self, rng):
        # beyond float64 resolution the logistic clamps to the closed interval
        h = mat(rng.normal(size=(5, 5)) * 500)
        d = mat(rng.normal(size=(5, 5)) * 500)
        m = merge(h, d, "p1")
        assert np.all(np.isfinite(m))
        assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_size_mismatch_rejected(self):
        h = mat(np.zeros((3, 3)))
        d = mat(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            merge(h, d, "p1")

    def test_missing_matrix_rejected(self):
        h = mat(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            merge(h, None, "p1")

    def test_tanh_activation_variant(self, rng):
        h = mat(rng.normal(size=(3, 3)))
        m = merge(h, None, "p2", activation="tanh")
        np.testing.assert_allclose(m, np.tanh(h.data), rtol=1e-15)


class TestFindTop:
    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_single_token(self, agg):
        assert find_top(np.array([[0.7]]), agg=agg) == 1

    def test_row_maxima_oracle(self):
        # off-diagonal row maxima 0.9 / 0.08 / 0.7: weakest row is token 2
        m = np.array([
            [1.0, 0.9, 0.5],
            [0.05, 1.0, 0.08],
            [0.7, 0.2, 1.0],
        ])
        assert find_top(m) == 2

    def test_diagonal_never_consulted(self):
        m = np.array([
            [0.0, 0.9, 0.5],
            [9.0, 0.0, 0.08],  # huge diagonal entries elsewhere
            [0.7, 0.2, 0.0],
        ])
        m2 = m.copy()
        np.fill_diagonal(m2, 0.99)
        assert find_top(m) == find_top(m2)

    def test_tie_breaks_to_smallest_index(self):
        m = np.full((4, 4), 0.5)
        assert find_top(m) == 1

    def test_sum_aggregation(self):
        # row sums: 1.4 / 0.13 / 0.9 -> token 2 again, but rows built so
        # max and sum disagree are also covered below
        m = np.array([
            [1.0, 0.9, 0.5],
            [0.05, 1.0, 0.08],
            [0.7, 0.2, 1.0],
        ])
        assert find_top(m, agg="sum") == 2

    def test_max_and_sum_can_disagree(self):
        # row maxima: 0.8, 0.5, 0.9, 0.9 -> token 2; row sums: 0.8, 0.95, 2.7, 2.7 -> token 1
        m = np.array([
            [0.0, 0.8, 0.0, 0.0],
            [0.5, 0.0, 0.45, 0.0],
            [0.9, 0.9, 0.0, 0.9],
            [0.9, 0.9, 0.9, 0.0],
        ])
        assert find_top(m, agg="max") == 2
        assert find_top(m, agg="sum") == 1

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            find_top(np.zeros((2, 2)), agg="median")

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    def test_monotone_transform_invariance(self, seed, n):
        m = np.random.default_rng(seed).random((n, n))
        t = find_top(m)
        warped = m ** 3 + m
        assert find_top(warped) == t


class TestGreedyHeads:
    def test_two_tokens_attach_to_top(self):
        m = np.array([[0.9, 0.1], [0.4, 0.2]])
        assert greedy_heads(m, 1) == [0, 1]
        assert greedy_heads(m, 2) == [2, 0]

    def test_unique_maxima_exact(self):
        m = np.array([
            [0.0, 0.9, 0.1],
            [0.2, 0.0, 0.8],
            [0.6, 0.3, 0.0],
        ])
        assert greedy_heads(m, 3) == [2, 3, 0]

    def test_tie_breaks_to_smallest_j(self):
        m = np.full((3, 3), 0.5)
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
            assert greedy_heads(m, top) == self.brute_force(m, top)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_monotone_transform_invariance(self, seed, n):
        g = np.random.default_rng(seed)
        m = g.random((n, n))
        top = int(g.integers(1, n + 1))
        base = greedy_heads(m, top)
        assert greedy_heads(m ** 3 + m, top) == base


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
        m = np.random.default_rng(0).random((4, 4))
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
        tree = fix_cycles([2, 1, 0], m, 3)
        assert tree.heads == [2, 3, 0]
        assert tree.top == 3

    def test_removes_weakest_arc_tie_smallest_dependent(self):
        # both cycle arcs at 0.5: token 1's arc goes
        m = np.full((3, 3), 0.5)
        m[0, 2] = 0.9  # 1 -> 3 is the attractive repair
        tree = fix_cycles([2, 1, 0], m, 3)
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
            m = rng.random((n, n))
            tree = fix_cycles(list(heads), m, top)
            assert tree.top == top
            cyclic = original_cycle_nodes(heads)
            for i in range(1, n + 1):
                if tree.heads[i - 1] != heads[i - 1]:
                    assert i in cyclic, (heads, tree.heads, i)

    def test_wrong_top_precondition_rejected(self):
        m = np.zeros((2, 2))
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
        tree = fix_cycles(heads, g.random((n, n)), top)
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


def random_tree(g, n):
    order = g.permutation(n)
    heads = [0] * n
    for pos in range(1, n):
        heads[order[pos]] = int(order[g.integers(0, pos)]) + 1
    return heads


def mutate(g, heads):
    """Repoint one token: at another token, at 0 (an extra top), at itself,
    out of range, or at a token below it (a cycle)."""
    n = len(heads)
    kind = int(g.integers(5))
    i = int(g.integers(n))
    if kind == 4:
        # the lowest token k of a path up the tree; its ancestor i heads k
        k, path = i + 1, []
        while k != 0 and k not in path and 1 <= k <= n:
            path.append(k)
            k = heads[k - 1]
        if len(path) < 2:
            return
        heads[path[int(g.integers(1, len(path)))] - 1] = path[0]
        return
    heads[i] = [int(g.integers(1, n + 1)), 0, i + 1, int(g.choice([-1, n + 1, n + 7]))][kind]


def reference_tree_problem(heads):
    """Which rule a head list breaks, checked apart from DepTree: one top,
    heads in range, no self-head, every token reaching 0 within n steps."""
    n = len(heads)
    if heads.count(0) != 1:
        return "top"
    if any(not 0 <= h <= n or h == i for i, h in enumerate(heads, start=1)):
        return "head"
    for i in range(1, n + 1):
        j = i
        for _ in range(n):
            j = heads[j - 1]
            if j == 0:
                break
        if j != 0:
            return "cycle"
    return None


class TestTreeCheckProperties:
    """DepTree against a reference on head lists up to 150 tokens, and the
    decoder's output on random scores of the same sizes."""

    def test_accepts_exactly_the_reference_trees(self, rng):
        seen = dict.fromkeys(["top", "head", "cycle", None], 0)
        for _ in range(1000):
            n = int(rng.integers(1, 151))
            heads = random_tree(rng, n)
            for _ in range(int(rng.integers(0, 4))):
                mutate(rng, heads)
            expected = reference_tree_problem(heads)
            seen[expected] += 1
            if expected is None:
                assert DepTree(heads).invariant_violation() is None
                continue
            with pytest.raises(ValueError, match="cycle" if expected == "cycle" else None):
                DepTree(heads)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("variant", ["p1", "p2", "p3"])
    def test_decode_returns_a_tree_topped_by_find_top(self, rng, variant):
        for n in [1, 2, 3, 150] + [int(x) for x in rng.integers(4, 151, size=8)]:
            h = Tensor(rng.uniform(-3.0, 3.0, (n, n)))
            d = Tensor(rng.uniform(-3.0, 3.0, (n, n)))
            merged = merge(h, d, variant)
            tree, _ = decode(merged)
            assert tree.invariant_violation() is None
            assert len(tree) == n and tree.top == find_top(merged)


class TestExactDecoderOracle:
    """Greedy plus repair against the best tree with the same top
    (Chu-Liu/Edmonds, in ``tests/oracles.py``)."""

    def test_oracle_is_the_best_tree(self, rng):
        # every head function with the given top, for n up to 6
        for _ in range(60):
            n = int(rng.integers(1, 7))
            scores, top = rng.normal(size=(n, n)), int(rng.integers(1, n + 1))
            others = [i for i in range(1, n + 1) if i != top]
            best = -np.inf
            for choice in itertools.product(range(1, n + 1), repeat=n - 1):
                heads = [0] * n
                for i, h in zip(others, choice):
                    heads[i - 1] = h
                if reference_tree_problem(heads) is None:
                    best = max(best, tree_score(scores, heads))
            found = max_spanning_tree(scores, top)
            assert DepTree(found).top == top
            assert tree_score(scores, found) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.booleans(),
           st.sampled_from(["max", "sum"]))
    def test_decode_never_beats_the_oracle(self, seed, n, planted, root_agg):
        g = np.random.default_rng(seed)
        scores = g.random((n, n))
        if planted:
            # a boosted random tree makes an already-tree greedy decode likely
            for i, h in enumerate(random_tree(g, n)):
                if h:
                    scores[i, h - 1] += 1.0
        tree, greedy_was_tree = decode(scores, root_agg)
        best = max_spanning_tree(scores, find_top(scores, root_agg))
        got, want = tree_score(scores, tree.heads), tree_score(scores, best)
        assert got <= want + 1e-12 * n
        if greedy_was_tree:
            assert got == want


class TestParse:
    @pytest.fixture
    def model(self, rng):
        vocab = build_vocab([sent(["a", "b", "c", "d", "e"])])
        return init_model(rng, vocab, mode=JOINT, d_pretrained=3, d_random=4,
                          bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6)

    def test_deterministic(self, model):
        s = sent(["a", "c", "b"])
        t1 = parse([s], model, "p1")[0]
        t2 = parse([s], model, "p1")[0]
        assert t1.heads == t2.heads

    def test_always_valid_on_random_inputs(self, model, rng):
        words = ["a", "b", "c", "d", "e"]
        for _ in range(50):
            n = int(rng.integers(1, 7))
            s = sent([words[int(rng.integers(0, 5))] for _ in range(n)])
            tree = parse([s], model, "p1")[0]
            assert tree.invariant_violation() is None

    def test_variant_gate(self, model):
        with pytest.raises(Exception):
            parse([sent(["a"])], model, "p4")

    def test_p2_independent_of_deps_tensors(self, model, rng):
        s = sent(["a", "b", "c", "d"])
        before = parse([s], model, "p2")[0].heads
        w = model.tensors["ptr.deps.w"]
        w.data += rng.normal(size=w.data.shape)
        model.tensors["ptr.deps.v"].data += 1.0
        assert parse([s], model, "p2")[0].heads == before

    def test_p3_independent_of_heads_tensors(self, model, rng):
        s = sent(["a", "b", "c", "d"])
        before = parse([s], model, "p3")[0].heads
        model.tensors["ptr.heads.v"].data += 1.0
        assert parse([s], model, "p3")[0].heads == before

    def test_output_ignores_gold_head_column(self, model):
        # inference must never peek at the annotation
        words = ["a", "b", "c", "d"]
        annotated = parse([sent(words, [2, 0, 2, 3])], model, "p1")[0]
        different = parse([sent(words, [0, 1, 1, 1])], model, "p1")[0]
        blank = sent(words)
        for t in blank.tokens:
            t.head = None
        unannotated = parse([blank], model, "p1")[0]
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
        assert uas(gold, pred, ("PUNCT",)) == 100.0

    def test_tags_decided_alike_in_every_sentence(self):
        """A missing or empty tag counts, a punctuation tag never does, in
        every sentence it appears in: 3 of the 4 countable heads right."""
        gold = [sent(["a", "b", "."], [2, 0, 2], pos=[None, "", "."]),
                sent([".", "c", "d"], [2, 0, 2], pos=[".", "", None])]
        pred = [DepTree([2, 0, 1]), DepTree([2, 0, 1])]
        assert uas(gold, pred) == 75.0

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
            assert [t.heads for t in trees] == [parse([s], model, variant)[0].heads
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
            merged = rng.uniform(size=(n, n))
            greedy = greedy_heads(merged, find_top(merged))
            tree, was_tree = decode(merged)
            try:
                DepTree(greedy)
                valid = True
            except ValueError:
                valid = False
            assert was_tree == valid
            assert (tree.heads == greedy) == valid


@pytest.fixture(scope="module")
def dev_corpus():
    return bundled("ambiguous-dev")


@pytest.fixture(scope="module")
def trained(dev_corpus):
    """One small model per training mode, trained for two epochs."""
    models = {}
    for mode in MODES:
        _, model_bytes = train(dev_corpus[:80], dev_corpus[80:100], RunConfig(
            mode=mode, epochs=2, seeds=(3,), d_pretrained=4, d_random=5, bilstm_hidden=6,
            ptr_hidden=7))
        models[mode] = load_model(io.BytesIO(model_bytes))
    return models


class TestBatchedDecode:
    """Corpus decoding, which encodes sentences a batch at a time, against
    decoding one sentence at a time."""

    @pytest.mark.parametrize("root_agg", ["max", "sum"])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_sentence_at_a_time(self, trained, dev_corpus, mode, root_agg):
        model, variants = trained[mode], MODE_VARIANTS[mode]
        corpus = dev_corpus * 3  # several token budgets' worth
        assert sum(map(len, corpus)) > 3 * decoding.BATCH_TOKENS
        decoded = decode_corpus(corpus, model, variants, root_agg)
        for variant in variants:
            alone = [decode_corpus([s], model, (variant,), root_agg)[variant]
                     for s in dev_corpus]
            heads = [trees[0].heads for trees, _ in alone] * 3
            trees, clean = decoded[variant]
            assert [t.heads for t in trees] == heads
            assert clean == 3 * sum(c for _, c in alone) / len(corpus)
            assert [t.heads for t in parse(corpus, model, variant, root_agg)] == heads

    @pytest.mark.parametrize("budget", [8, 300])
    def test_batches_cover_corpus_in_order(self, trained, dev_corpus, monkeypatch, budget):
        """Each batch is a run of consecutive sentences within the budget,
        or one sentence longer than it; the trees do not depend on it."""
        model = trained[JOINT]
        expected = [t.heads for t in parse(dev_corpus, model)]
        batches = []
        real = decoding.sentence_contexts

        def spied(model, sentences):
            batches.append(sentences)
            return real(model, sentences)

        monkeypatch.setattr(decoding, "BATCH_TOKENS", budget)
        monkeypatch.setattr(decoding, "sentence_contexts", spied)
        assert [t.heads for t in parse(dev_corpus, model)] == expected
        assert len(batches) >= 3
        assert [s for batch in batches for s in batch] == dev_corpus
        for batch in batches:
            assert len(batch) == 1 or sum(map(len, batch)) <= budget

    def test_input_order_kept(self, trained, dev_corpus, rng):
        model = trained[JOINT]
        heads = [t.heads for t in parse(dev_corpus, model, "p2")]
        order = rng.permutation(len(dev_corpus))
        shuffled = parse([dev_corpus[i] for i in order], model, "p2")
        assert [t.heads for t in shuffled] == [heads[i] for i in order]

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_corpus(self, trained, mode):
        model, variants = trained[mode], MODE_VARIANTS[mode]
        assert parse([], model, variants[0]) == []
        assert decode_corpus([], model, variants) == {v: ([], 1.0) for v in variants}


class TestBatchedProjections:
    """Corpus decoding encodes a batch of sentences at once, then scores
    each sentence by ``pointer.score_all`` alone, which projects that
    sentence's keys and queries from its own context rows."""

    WORDS = ["a", "b", "c", "d", "e"]

    @staticmethod
    def model(mode):
        vocab = build_vocab([sent(TestBatchedProjections.WORDS)])
        return init_model(np.random.default_rng(4), vocab, mode=mode, d_pretrained=3,
                          d_random=4, bilstm_hidden=5, bilstm_levels=2, ptr_hidden=6)

    def corpus(self, rng):
        """A 1-token sentence, short ones, and one of 14 tokens."""
        lengths = [1, 3, 2, 14, 5, 1, 4]
        return [sent([self.WORDS[int(i)] for i in rng.integers(0, 5, size=n)])
                for n in lengths]

    @pytest.mark.parametrize("mode", MODES)
    def test_scores_match_one_sentence_scoring(self, mode, rng, monkeypatch):
        # 14 tokens at pointer hidden 6 take blocks of 2 query rows
        monkeypatch.setattr(pointer, "BLOCK", 170)
        model, corpus = self.model(mode), self.corpus(rng)
        scored = []
        real = decoding.score_sentence

        def kept(model, sentence, **kwargs):
            scored.append(real(model, sentence, **kwargs))
            return scored[-1]

        monkeypatch.setattr(decoding, "score_sentence", kept)
        decode_corpus(corpus, model, MODE_VARIANTS[mode])
        assert len(scored) == len(corpus)
        for sentence, batched in zip(corpus, scored):
            alone = score_sentence(model, sentence)
            for tag in MODE_NETS[mode]:
                got, want = getattr(batched, tag).data, getattr(alone, tag).data
                assert got.shape == want.shape == (len(sentence),) * 2
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), tag

    @pytest.mark.parametrize("mode", MODES)
    def test_projection_products_per_sentence(self, mode, rng, monkeypatch):
        """Each owned net's weight enters two matrix products per sentence,
        keys and queries, each over that sentence's context rows and inside
        a ``pointer.score_all`` call, whatever batch the sentence is in."""
        model, corpus = self.model(mode), self.corpus(rng) * 2
        monkeypatch.setattr(decoding, "BATCH_TOKENS", 16)
        assert 1 < len(list(decoding._batches(corpus))) < len(corpus)
        products = {tag: [] for tag in MODE_NETS[mode]}
        inside = []

        class Counted(np.ndarray):
            def __array_finalize__(self, base):
                self.tag = getattr(base, "tag", None)  # views of w keep its tag

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products[self.tag].append((len(inputs[0]), bool(inside)))
                plain = tuple(x.view(np.ndarray) if isinstance(x, Counted) else x
                              for x in inputs)
                return getattr(ufunc, method)(*plain, **kwargs)

        real = model_module.score_all

        def scoring(*args, **kwargs):
            inside.append(True)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(model_module, "score_all", scoring)
        for tag in products:
            w = model.tensors[f"ptr.{tag}.w"]
            w.data = w.data.view(Counted)
            w.data.tag = tag
        decode_corpus(corpus, model, MODE_VARIANTS[mode])
        for tag, rows in products.items():
            assert rows == [(len(s), True) for s in corpus for _ in range(2)], tag
