"""Attention scorer: closed-form zeros, batched-vs-pairwise exactness,
target matrices, and gradients."""
import numpy as np
import pytest
from fd import numeric_grad, rel_err
from hypothesis import given
from hypothesis import strategies as st
from oracles import attention_score

from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor
from dualpointer.conll import Sentence, Token
from dualpointer.pointer import (
    DEPENDENTS,
    HEADS,
    PointerParams,
    score_all,
    target_matrix,
)


def make_params(rng, ctx=6, hidden=4):
    # Glorot-uniform W, zero b, v uniform within sqrt(3 / hidden)
    w_limit = np.sqrt(6.0 / (2 * ctx + hidden))
    w = rng.uniform(-w_limit, w_limit, size=(hidden, 2 * ctx))
    v = rng.uniform(-np.sqrt(3.0 / hidden), np.sqrt(3.0 / hidden), size=hidden)
    return PointerParams(Tensor(w, requires_grad=True), Tensor(np.zeros(hidden), requires_grad=True),
                         Tensor(v, requires_grad=True))


def contexts(rng, n, ctx=6):
    return [Tensor(rng.normal(size=ctx)) for _ in range(n)]


class TestAttentionScore:
    def test_zero_v_scores_zero(self, rng):
        p = make_params(rng)
        p.v.data[:] = 0.0
        s = attention_score(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)), p)
        assert s.item() == 0.0

    def test_zero_affine_scores_zero(self, rng):
        p = make_params(rng)
        p.w.data[:] = 0.0
        p.b.data[:] = 0.0
        s = attention_score(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)), p)
        assert s.item() == 0.0

    def test_matches_manual_formula(self, rng):
        p = make_params(rng)
        q, k = rng.normal(size=6), rng.normal(size=6)
        manual = p.v.data @ np.tanh(p.w.data @ np.concatenate([k, q]) + p.b.data)
        s = attention_score(Tensor(q), Tensor(k), p)
        np.testing.assert_allclose(s.item(), manual, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        p = make_params(rng, ctx=6)
        with pytest.raises(ValueError):
            attention_score(Tensor(np.zeros(5)), Tensor(np.zeros(6)), p)

    def test_gradient_all_params(self, rng):
        p = make_params(rng, ctx=4, hidden=3)
        for t in (p.w, p.b, p.v):
            t.requires_grad = True
        q0, k0 = rng.normal(size=4), rng.normal(size=4)
        q = Tensor(q0.copy(), requires_grad=True)
        k = Tensor(k0.copy(), requires_grad=True)
        ad.sum_all(attention_score(q, k, p)).backward()

        for name, tensor in [("w", p.w), ("b", p.b), ("v", p.v), ("q", q), ("k", k)]:
            orig = tensor.data.copy()

            def f(arr, tensor=tensor):
                tensor.data = arr
                with ad.no_grad():
                    val = attention_score(Tensor(q0) if tensor is not q else q,
                                          Tensor(k0) if tensor is not k else k,
                                          p).item()
                tensor.data = orig
                return val

            num = numeric_grad(f, orig.copy())
            tensor.data = orig
            assert rel_err(tensor.grad, num) < 1e-6, name


class TestScoreAll:
    def test_single_context(self, rng):
        p = make_params(rng)
        m = score_all(ad.stack(contexts(rng, 1)), p)
        assert m.data.shape == (1, 1)

    def test_entries_match_pairwise_calls_exactly(self, rng):
        """Every batched entry equals the standalone pairwise score
        bit-for-bit, diagonal included."""
        p = make_params(rng, ctx=8, hidden=5)
        ctx = contexts(rng, 7, ctx=8)
        m = score_all(ad.stack(ctx), p)
        for i in range(7):
            for j in range(7):
                single = attention_score(ctx[i], ctx[j], p).item()
                assert m.data[i, j] == single, (i, j)

    def test_two_instances_share_nothing(self, rng):
        ph = make_params(rng)
        pd = make_params(rng)
        ctx = contexts(rng, 4)
        before = score_all(ad.stack(ctx), ph).data.copy()
        pd.w.data[:] = 99.0
        np.testing.assert_array_equal(score_all(ad.stack(ctx), ph).data, before)

    def test_pure_under_reevaluation(self, rng):
        p = make_params(rng)
        ctx = contexts(rng, 5)
        np.testing.assert_array_equal(score_all(ad.stack(ctx), p).data,
                                      score_all(ad.stack(ctx), p).data)

    def test_all_entries_finite(self, rng):
        p = make_params(rng)
        ctx = [Tensor(rng.normal(size=6) * 100.0) for _ in range(6)]
        assert np.all(np.isfinite(score_all(ad.stack(ctx), p).data))

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            score_all(Tensor(np.zeros((0, 6))), make_params(rng))

    def test_gradient_through_batched_scorer(self, rng):
        p = make_params(rng, ctx=4, hidden=3)
        for t in (p.w, p.b, p.v):
            t.requires_grad = True
        c0 = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 5))

        def loss_value():
            ctx = [Tensor(c0[i]) for i in range(5)]
            m = score_all(ad.stack(ctx), p)
            return ad.sum_all(ad.mul(m, Tensor(weights)))

        loss_value().backward()
        for name, tensor in [("w", p.w), ("b", p.b), ("v", p.v)]:
            orig = tensor.data.copy()

            def f(arr, tensor=tensor):
                tensor.data = arr
                with ad.no_grad():
                    val = loss_value().item()
                tensor.data = orig
                return val

            num = numeric_grad(f, orig.copy())
            tensor.data = orig
            assert rel_err(tensor.grad, num) < 1e-6, name


def tree_sentence(heads):
    return Sentence([Token(i + 1, f"w{i}", None, h) for i, h in enumerate(heads)])


def random_tree_heads(rng, n):
    """Uniform-ish random tree: attach each node to a random earlier-added
    node of a random permutation; root drawn uniformly."""
    order = rng.permutation(n) + 1
    heads = [0] * n
    for pos in range(1, n):
        parent = order[rng.integers(0, pos)]
        heads[order[pos] - 1] = int(parent)
    return heads


class TestTargetMatrix:
    def test_two_token_heads(self):
        m = target_matrix(tree_sentence([2, 0]), HEADS)
        np.testing.assert_array_equal(m, [[0, 1], [0, 0]])

    def test_two_token_dependents(self):
        m = target_matrix(tree_sentence([2, 0]), DEPENDENTS)
        np.testing.assert_array_equal(m, [[0, 0], [1, 0]])

    def test_top_row_zero_heads(self):
        m = target_matrix(tree_sentence([3, 3, 0]), HEADS)
        np.testing.assert_array_equal(m[2], [0, 0, 0])

    def test_leaf_rows_zero_dependents(self):
        m = target_matrix(tree_sentence([3, 3, 0]), DEPENDENTS)
        np.testing.assert_array_equal(m[0], [0, 0, 0])
        np.testing.assert_array_equal(m[1], [0, 0, 0])
        np.testing.assert_array_equal(m[2], [1, 1, 0])

    def test_heads_rows_one_hot(self):
        m = target_matrix(tree_sentence([2, 0, 2, 3]), HEADS)
        sums = m.sum(axis=1)
        assert sorted(sums) == [0.0, 1.0, 1.0, 1.0]
        assert np.count_nonzero(sums == 0) == 1

    def test_transpose_identity_on_random_trees(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 15))
            s = tree_sentence(random_tree_heads(rng, n))
            h = target_matrix(s, HEADS)
            d = target_matrix(s, DEPENDENTS)
            np.testing.assert_array_equal(d, h.T)
            assert np.all(np.diag(h) == 0)

    def test_missing_gold_head_rejected(self):
        s = Sentence([Token(1, "a", None, None)])
        with pytest.raises(ValueError):
            target_matrix(s, HEADS)

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError):
            target_matrix(tree_sentence([0]), "sideways")

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_transpose_identity_property(self, n, seed):
        heads = random_tree_heads(np.random.default_rng(seed), n)
        s = tree_sentence(heads)
        np.testing.assert_array_equal(
            target_matrix(s, DEPENDENTS), target_matrix(s, HEADS).T
        )
