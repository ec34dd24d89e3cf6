"""Attention scorer: closed-form zeros, batched-vs-pairwise exactness,
the composed per-pair reference, blocks of query rows and the memory they
bound, the factored tanh on reciprocals and its range, target matrices,
and gradients."""
import tracemalloc

import numpy as np
import pytest
from fd import numeric_grad, rel_err
from hypothesis import given
from hypothesis import strategies as st
from oracles import add, affine, attention_score, concat, mul, stack, sum_all, tanh

from dualpointer import autodiff as ad
from dualpointer import pointer
from dualpointer.autodiff import Tensor
from dualpointer.conll import Sentence, Token
from dualpointer.decoding import parse
from dualpointer.gradcheck import random_sentence
from dualpointer.model import init_model
from dualpointer.pointer import score_all, target_matrix
from dualpointer.vocab import build_vocab


def make_params(rng, ctx=6, hidden=4):
    """One net's (w, b, v): Glorot-uniform W, zero b, v uniform within
    sqrt(3 / hidden)."""
    w_limit = np.sqrt(6.0 / (2 * ctx + hidden))
    w = rng.uniform(-w_limit, w_limit, size=(hidden, 2 * ctx))
    v = rng.uniform(-np.sqrt(3.0 / hidden), np.sqrt(3.0 / hidden), size=hidden)
    return (Tensor(w, requires_grad=True), Tensor(np.zeros(hidden), requires_grad=True),
            Tensor(v, requires_grad=True))


def contexts(rng, n, ctx=6):
    return [Tensor(rng.normal(size=ctx)) for _ in range(n)]


class TestAttentionScore:
    def test_zero_v_scores_zero(self, rng):
        p = make_params(rng)
        p[2].data[:] = 0.0  # v
        s = attention_score(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)), *p)
        assert s.item() == 0.0

    def test_zero_affine_scores_zero(self, rng):
        p = make_params(rng)
        for t in p[:2]:  # w and b
            t.data[:] = 0.0
        s = attention_score(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)), *p)
        assert s.item() == 0.0

    def test_matches_manual_formula(self, rng):
        p = make_params(rng)
        w, b, v = p
        q, k = rng.normal(size=6), rng.normal(size=6)
        manual = v.data @ np.tanh(w.data @ np.concatenate([k, q]) + b.data)
        s = attention_score(Tensor(q), Tensor(k), *p)
        np.testing.assert_allclose(s.item(), manual, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        p = make_params(rng, ctx=6)
        with pytest.raises(ValueError):
            attention_score(Tensor(np.zeros(5)), Tensor(np.zeros(6)), *p)

    def test_gradient_all_params(self, rng):
        p = make_params(rng, ctx=4, hidden=3)
        w, b, v = p
        for t in p:
            t.requires_grad = True
        q0, k0 = rng.normal(size=4), rng.normal(size=4)
        q = Tensor(q0.copy(), requires_grad=True)
        k = Tensor(k0.copy(), requires_grad=True)
        sum_all(attention_score(q, k, *p)).backward()

        for name, tensor in [("w", w), ("b", b), ("v", v), ("q", q), ("k", k)]:
            orig = tensor.data.copy()

            def f(arr, tensor=tensor):
                tensor.data = arr
                with ad.no_grad():
                    val = attention_score(Tensor(q0) if tensor is not q else q,
                                          Tensor(k0) if tensor is not k else k,
                                          *p).item()
                tensor.data = orig
                return val

            num = numeric_grad(f, orig.copy())
            tensor.data = orig
            assert rel_err(tensor.grad, num) < 1e-6, name


class TestScoreAll:
    def test_single_context(self, rng):
        p = make_params(rng)
        m = score_all(stack(contexts(rng, 1)), *p)
        assert m.data.shape == (1, 1)

    def test_entries_match_pairwise_calls(self, rng):
        """Every batched entry equals the standalone pairwise score within
        1e-12 of the largest score, relative, diagonal included: the bound
        TestComposedReference holds.  Not bit for bit, since a BLAS kernel
        may round a row differently with the rows around it."""
        p = make_params(rng, ctx=8, hidden=5)
        ctx = contexts(rng, 7, ctx=8)
        m = score_all(stack(ctx), *p)
        pairwise = np.array([[attention_score(ctx[i], ctx[j], *p).item() for j in range(7)]
                             for i in range(7)])
        assert rel_err(m.data, pairwise) <= 1e-12

    def test_two_instances_share_nothing(self, rng):
        ph = make_params(rng)
        pd = make_params(rng)
        ctx = contexts(rng, 4)
        before = score_all(stack(ctx), *ph).data.copy()
        pd[0].data[:] = 99.0  # its w
        np.testing.assert_array_equal(score_all(stack(ctx), *ph).data, before)

    def test_pure_under_reevaluation(self, rng):
        p = make_params(rng)
        ctx = contexts(rng, 5)
        np.testing.assert_array_equal(score_all(stack(ctx), *p).data,
                                      score_all(stack(ctx), *p).data)

    def test_all_entries_finite(self, rng):
        p = make_params(rng)
        ctx = [Tensor(rng.normal(size=6) * 100.0) for _ in range(6)]
        assert np.all(np.isfinite(score_all(stack(ctx), *p).data))

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            score_all(Tensor(np.zeros((0, 6))), *make_params(rng))

    @pytest.mark.parametrize("shape", [(3, 5), (6,), (2, 3, 6)])
    def test_wrong_width_or_rank_rejected(self, rng, shape):
        with pytest.raises(ValueError, match="context rows of width 6"):
            score_all(Tensor(np.zeros(shape)), *make_params(rng))

    def test_gradient_through_batched_scorer(self, rng):
        p = make_params(rng, ctx=4, hidden=3)
        w, b, v = p
        for t in p:
            t.requires_grad = True
        c0 = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 5))

        def loss_value():
            ctx = [Tensor(c0[i]) for i in range(5)]
            m = score_all(stack(ctx), *p)
            return sum_all(mul(m, Tensor(weights)))

        loss_value().backward()
        for name, tensor in [("w", w), ("b", b), ("v", v)]:
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


def composed_pair(ci: Tensor, cj: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Entry (i, j) of ``score_all`` from tape ops: v . tanh(W [c_j; c_i] + b)."""
    return sum_all(mul(v, tanh(affine(w, concat([cj, ci]), b))))


def weighted_problem(n, width, hidden):
    """Contexts, one net's parameters with a nonzero b, and weights of a
    weighted sum of the n x n scores."""
    rng = np.random.default_rng(n)
    p0 = [t.data.copy() for t in make_params(rng, ctx=width, hidden=hidden)]
    p0[1] = rng.normal(size=hidden) * 0.5
    return rng.normal(size=(n, width)), p0, rng.normal(size=(n, n))


def assert_matches_composed_reference(c0, p0, weights):
    """``score_all``'s scores and the gradients of the weighted sum of them
    with respect to contexts, w, b and v are within 1e-12 relative of the
    per-pair composition."""
    n = len(c0)
    params = [Tensor(a.copy(), requires_grad=True) for a in p0]
    c = Tensor(c0.copy(), requires_grad=True)
    m = score_all(c, *params)
    sum_all(mul(m, Tensor(weights))).backward()
    fused = [m.data, c.grad] + [t.grad for t in params]

    params = [Tensor(a.copy(), requires_grad=True) for a in p0]
    rows = [Tensor(r.copy(), requires_grad=True) for r in c0]
    pairs = [[composed_pair(rows[i], rows[j], *params) for j in range(n)]
             for i in range(n)]
    loss = None
    for i in range(n):
        for j in range(n):
            term = mul(pairs[i][j], Tensor(weights[i, j]))
            loss = term if loss is None else add(loss, term)
    loss.backward()
    reference = [np.array([[s.item() for s in row] for row in pairs]),
                 np.stack([r.grad for r in rows])] + [t.grad for t in params]

    for got, want in zip(fused, reference):
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-12


class TestComposedReference:
    @pytest.mark.parametrize("n, width, hidden", [
        pytest.param(1, 8, 5, id="1"), pytest.param(2, 8, 5, id="2"),
        pytest.param(7, 8, 5, id="7"), pytest.param(1, 400, 100, id="1-wide"),
        pytest.param(7, 400, 100, id="7-wide")])
    def test_values_and_gradients(self, n, width, hidden):
        """Scores and the gradients of contexts, w, b and v within 1e-12
        relative of the per-pair composition, also at the default model's
        widths (context 400, hidden 100), where BLAS may round rows apart."""
        assert_matches_composed_reference(*weighted_problem(n, width, hidden))

    @staticmethod
    def check_long_sentence(n, width, hidden):
        rng = np.random.default_rng(n)
        p = make_params(rng, ctx=width, hidden=hidden)
        rows = contexts(rng, n, ctx=width)
        got = score_all(stack(rows), *p).data
        with ad.no_grad():
            want = np.array([[composed_pair(ci, cj, *p).item() for cj in rows] for ci in rows])
        assert rel_err(got, want) <= 1e-12

    def test_values_of_a_long_sentence(self):
        self.check_long_sentence(120, 8, 5)

    def test_values_of_a_long_sentence_at_wide_widths(self):
        self.check_long_sentence(100, 128, 100)


def test_gradients_match_finite_differences_at_blocked_widths():
    """Central differences of a weighted sum of the scores along random
    directions of contexts, w, b and v, at sizes (40 rows, context 400,
    hidden 100) where each matrix-matrix product of the kernel does 1.6M
    multiply-adds, past BLAS's small-matrix sizes, so it takes the blocked
    path."""
    rng = np.random.default_rng(40)
    w, b, v = make_params(rng, ctx=400, hidden=100)
    b.data[:] = rng.normal(size=100) * 0.5
    c = Tensor(rng.normal(size=(40, 400)), requires_grad=True)
    weights = Tensor(rng.normal(size=(40, 40)))
    sum_all(mul(score_all(c, w, b, v), weights)).backward()
    for name, tensor in [("contexts", c), ("w", w), ("b", b), ("v", v)]:
        x0 = tensor.data.copy()
        for _ in range(3):
            u = rng.normal(size=x0.shape)

            def f(step, tensor=tensor, x0=x0, u=u):
                tensor.data = x0 + step[0] * u
                with ad.no_grad():
                    return sum_all(mul(score_all(c, w, b, v), weights)).item()

            num = numeric_grad(f, np.zeros(1))[0]
            tensor.data = x0
            assert rel_err(np.sum(tensor.grad * u), num) < 1e-6, name


def test_weight_gradient_is_factored_over_key_and_query_rows(rng):
    """``w``'s gradient is an OuterGrad of one outer product per context row
    over ``w`` seen as [2 hidden x context]: rows 2r and 2r + 1 are the
    key and query halves of ``w``'s row r.  Its dense form has ``w``'s
    shape, each half is the product of the context rows with the gradient
    of their keys or queries, and the query gradients sum to ``b``'s."""
    w, b, v = make_params(rng, ctx=6, hidden=4)
    c = Tensor(rng.normal(size=(5, 6)))
    sum_all(mul(score_all(c, w, b, v), Tensor(rng.normal(size=(5, 5))))).backward()
    grad = w.grad
    assert isinstance(grad, ad.OuterGrad)
    assert grad.shape == (4, 12) and grad.left.shape == (5, 8) and grad.right is c.data
    dense = np.asarray(grad)
    dk, dq = grad.left[:, 0::2], grad.left[:, 1::2]
    np.testing.assert_allclose(dense[:, :6], dk.T @ c.data, rtol=1e-12)
    np.testing.assert_allclose(dense[:, 6:], dq.T @ c.data, rtol=1e-12)
    np.testing.assert_allclose(dq.sum(axis=0), b.grad, rtol=1e-12)


def assert_gradients_match_finite_differences(n, hidden):
    """The gradients of a weighted sum of ``score_all``'s scores with
    respect to contexts, w, b and v within 1e-6 of central differences."""
    c0, p0, weights = weighted_problem(n, 3, hidden)
    inputs = [Tensor(a.copy(), requires_grad=True) for a in [c0] + p0]
    sum_all(mul(score_all(*inputs), Tensor(weights))).backward()
    for name, tensor in zip(("contexts", "w", "b", "v"), inputs):
        x0 = tensor.data.copy()

        def f(x, tensor=tensor):
            tensor.data = x
            with ad.no_grad():
                return float(np.sum(score_all(*inputs).data * weights))

        num = numeric_grad(f, x0.copy())
        tensor.data = x0
        assert rel_err(tensor.grad, num) < 1e-6, name


def assert_same_forward_on_and_off_the_tape(n, hidden):
    c0, p0, _ = weighted_problem(n, 3, hidden)
    on_tape = score_all(Tensor(c0), *(Tensor(a, requires_grad=True) for a in p0))
    assert on_tape.requires_grad
    with ad.no_grad():
        off_tape = score_all(Tensor(c0), *(Tensor(a, requires_grad=True) for a in p0))
    assert not off_tape.requires_grad
    np.testing.assert_array_equal(on_tape.data, off_tape.data)


# (n, hidden, block) with blocks of max(1, block // (n * hidden)) query rows
BLOCK_CASES = [
    pytest.param(3, 5, 80, id="below-one-block"),        # 5 rows: one block, part full
    pytest.param(4, 5, 80, id="one-full-block"),         # 4 rows: n x n x hidden == block
    pytest.param(7, 5, 80, id="short-last-block"),       # 2 rows: blocks of 2, 2, 2 and 1
    pytest.param(9, 5, 40, id="one-row-blocks"),         # n x hidden > block: 1 row each
    pytest.param(32, 128, pointer.BLOCK, id="module-block"),     # exactly one block
    pytest.param(33, 128, pointer.BLOCK, id="module-block+1"),   # blocks of 31 and 2
]


class TestBlocks:
    """``score_all`` walks blocks of query rows.  Each geometry is checked
    against the composed per-pair reference, against central differences
    of all four inputs, and for equal forwards on and off the tape."""

    def test_cases_have_the_named_geometries(self):
        assert [max(1, block // (n * hidden)) for n, hidden, block in
                (c.values for c in BLOCK_CASES)] == [5, 4, 2, 1, 32, 31]

    @pytest.mark.parametrize("n, hidden, block", BLOCK_CASES)
    def test_values_and_gradients_match_composed_reference(self, monkeypatch, n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_matches_composed_reference(*weighted_problem(n, 3, hidden))

    @pytest.mark.parametrize("n, hidden, block", [c for c in BLOCK_CASES if c.values[0] < 10])
    def test_gradients_match_finite_differences(self, monkeypatch, n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_gradients_match_finite_differences(n, hidden)

    @pytest.mark.parametrize("n, hidden, block", BLOCK_CASES)
    def test_forward_is_the_same_on_and_off_the_tape(self, monkeypatch, n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_same_forward_on_and_off_the_tape(n, hidden)

    def test_one_tape_node_over_many_blocks(self, monkeypatch):
        monkeypatch.setattr(pointer, "BLOCK", 40)
        c0, p0, _ = weighted_problem(9, 3, 5)
        inputs = tuple(Tensor(a, requires_grad=True) for a in [c0] + p0)
        m = score_all(*inputs)
        assert m._parents == inputs


LOW, HIGH = pointer.FACTORED_RANGE
# n and hidden of FACTORED_MIN tanh elements, the fewest a call factors
N, H = 32, 16


def scaled_keys_and_queries(q_top, k_top, n=N, hidden=H):
    """Queries and keys, uniform in sign and size, whose largest
    magnitudes are exactly ``q_top`` and ``k_top``."""
    rng = np.random.default_rng(n * hidden)
    q, k = rng.uniform(-1.0, 1.0, size=(2, n, hidden))
    return q * (q_top / np.abs(q).max()), k * (k_top / np.abs(k).max())


def score_weights(n=N, hidden=H):
    """A net's ``v`` and the gradient ``g`` of its n x n scores."""
    rng = np.random.default_rng(1)
    return rng.normal(size=hidden), rng.normal(size=(n, n))


def kernel(q, k, v, g, rows=5):
    """The scores of ``score_all``'s pair kernel and the gradients
    (dq, dk, dv) it gives for ``g``."""
    out, gradients = pointer._pair_scores(q, k, v, rows)
    return (out,) + tuple(gradients(g))


def tanh_reference(q, k, v, g):
    """The scores and gradients of ``kernel`` from the whole n x n x hidden
    np.tanh array, and the scale of each: its bound with |tanh| <= 1."""
    t = np.tanh(q[:, None, :] + k)
    dpre = g[:, :, None] * v * (1.0 - t * t)
    values = (t @ v, dpre.sum(axis=1), dpre.sum(axis=0), np.einsum("ij,ijh->h", g, t))
    av, ag = np.abs(v), np.abs(g)
    scales = (av.sum(), av.max() * ag.sum(axis=1).max(), av.max() * ag.sum(axis=0).max(),
              ag.sum())
    return values, scales


def assert_matches_tanh_reference(got, q, k, v, g, of_scale=False):
    """Each of ``got`` within 1e-12 of the reference, relative to the
    reference's largest entry, or with ``of_scale`` to its scale: the
    yardstick where the reference cancels to zero."""
    values, scales = tanh_reference(q, k, v, g)
    for name, a, want, scale in zip(("scores", "dq", "dk", "dv"), got, values, scales):
        assert a.shape == want.shape, name
        assert np.abs(a - want).max() <= 1e-12 * (scale if of_scale else np.abs(want).max()), name


def tanh_form(q, k, v, rows=5):
    """The scores of the np.add + np.tanh form, by the same matrix-vector
    products, one block of ``rows`` query rows each, as the kernel's."""
    blocks = [np.tanh(q[i:i + rows, None, :] + k).reshape(-1, len(v)) @ v
              for i in range(0, len(q), rows)]
    return np.concatenate(blocks).reshape(len(q), len(k))


@pytest.fixture
def block_kinds(monkeypatch):
    """The ufunc (np.tanh or np.reciprocal) of every block the kernel
    forms, with the block's first row and a copy of it, in order: the
    np.tanh blocks of ``_blocks`` are [rows, n, hidden], the reciprocal
    blocks of ``_reciprocal_blocks`` hidden-major [hidden, rows, n]."""
    seen = []
    for name, f in (("_blocks", np.tanh), ("_reciprocal_blocks", np.reciprocal)):
        def spy(*args, former=getattr(pointer, name), f=f):
            for i, ti in former(*args):
                seen.append((f, i, ti.copy()))
                yield i, ti

        monkeypatch.setattr(pointer, name, spy)
    return seen


SCALES = [1e-8, 1e-4, 1e-3, 1e-2, 1.0, 30.0, 176.0, 349.0]
SUM_SCALES = [LOW, 0.1, 1.0, 10.0, HIGH]
RANGE_ENDS = [
    pytest.param(LOW * 1.001, id="low-inside"), pytest.param(LOW * 0.999, id="low-outside"),
    pytest.param(HIGH * 0.999, id="high-inside"), pytest.param(HIGH * 1.001, id="high-outside")]
# (n, hidden, block) of at least FACTORED_MIN tanh elements, in blocks of
# max(1, block // (n * hidden)) query rows
FACTORED_CASES = [
    pytest.param(N, H, pointer.BLOCK, id="below-one-block"),  # 256 rows: one block, part full
    pytest.param(N, H, N * N * H, id="one-full-block"),       # 32 rows
    pytest.param(N + 1, H, N * N * H, id="short-last-block"),  # blocks of 31 and 2
    pytest.param(N, H, N * H, id="one-row-blocks"),
]


class TestFactoredBlocks:
    """From ``FACTORED_MIN`` elements up and inside ``FACTORED_RANGE`` the
    scores and their gradients come from hidden-major blocks of
    reciprocals 1 / (e^{-2q} + e^{2k}), their sums stacked rank-2 matrix
    products; otherwise from blocks of np.tanh of the sums.
    Both are held to the n x n x hidden np.tanh reference within 1e-12 of
    its scale, and the np.tanh form to its own products bit for bit."""

    @pytest.mark.parametrize("k_top", SCALES)
    @pytest.mark.parametrize("q_top", SCALES)
    def test_scores_agree_with_tanh_of_sums(self, q_top, k_top):
        q, k = scaled_keys_and_queries(q_top, k_top)
        v, g = score_weights()
        assert_matches_tanh_reference(kernel(q, k, v, g), q, k, v, g)

    @pytest.mark.parametrize("top", RANGE_ENDS)
    @pytest.mark.parametrize("side", ["q", "k"])
    def test_scores_agree_at_the_range_ends(self, top, side, block_kinds):
        """The largest |q| or |k| just inside or just outside either end;
        outside, the scores are those of the np.tanh form bit for bit."""
        other = min(0.5, top / 2)
        q, k = scaled_keys_and_queries(*((top, other) if side == "q" else (other, top)))
        v, g = score_weights()
        got = kernel(q, k, v, g)
        assert_matches_tanh_reference(got, q, k, v, g)
        inside = LOW <= top <= HIGH
        assert {f for f, _, _ in block_kinds} == {np.reciprocal if inside else np.tanh}
        if not inside:
            np.testing.assert_array_equal(got[0], tanh_form(q, k, v))

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, HIGH * 1.001, -HIGH * 1.001, 177.177, -177.177])
    @pytest.mark.parametrize("side", ["q", "k"])
    def test_outside_the_range_the_blocks_are_tanh_of_sums(self, value, side):
        """One entry of q or of k beyond the range, or not a number, sends
        the whole call to the np.add + np.tanh form, bit for bit."""
        q, k = scaled_keys_and_queries(2.0, 2.0)
        (q if side == "q" else k)[3, 4] = value
        v, _ = score_weights()
        out, _ = pointer._pair_scores(q, k, v, 5)
        np.testing.assert_array_equal(out, tanh_form(q, k, v))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_floating_point_exception_at_the_top_of_the_range(self, sign, block_kinds):
        """Every query at ``sign`` times the top of the range and every key
        at either sign of it, through score_all's forward and backward,
        both on the factored blocks: each step stays finite and normal,
        the backward's (g r^2) ek of dq and wv (g r^2) of dk included,
        whose products reach e^{-528}.  Contexts of the n x n identity
        make the queries and keys exactly the rows of w's halves."""
        v, g = score_weights()
        for k_sign in (1.0, -1.0):
            q, k = np.full((N, H), sign * HIGH), np.full((N, H), k_sign * HIGH)
            assert pointer._factored(q, k)
            block_kinds.clear()
            c = Tensor(np.eye(N), requires_grad=True)
            w = Tensor(np.concatenate([k.T, q.T], axis=1), requires_grad=True)
            b, vt = Tensor(np.zeros(H), requires_grad=True), Tensor(v, requires_grad=True)
            with np.errstate(all="raise"):
                m = score_all(c, w, b, vt)
                sum_all(mul(m, Tensor(g))).backward()
                dw = np.asarray(w.grad)
            assert [(f, i) for f, i, _ in block_kinds] == [(np.reciprocal, 0)] * 2
            # with identity contexts, dq and dk are the halves of dw
            got = (m.data, dw[:, N:].T, dw[:, :N].T, vt.grad)
            assert_matches_tanh_reference(got, q, k, v, g, of_scale=True)

    @pytest.mark.parametrize("top", [LOW * 1.001, 1.0, 20.0, HIGH])
    def test_scores_where_every_sum_is_zero(self, top):
        """q + k = 0 for every pair: the scores sum(v) - 2 sum(v) / 2 and
        the gradient of v cancel to within 1e-12 of their scales."""
        u = np.random.default_rng(0).uniform(-1.0, 1.0, size=H)
        q = np.tile(u * (top / np.abs(u).max()), (N, 1))
        k = -q
        v, g = score_weights()
        assert pointer._factored(q, k)
        assert_matches_tanh_reference(kernel(q, k, v, g), q, k, v, g, of_scale=True)

    def test_geometry_has_the_fewest_elements_factored(self):
        assert N * N * H == pointer.FACTORED_MIN

    @pytest.mark.parametrize("n, hidden", [(N - 1, H), (N, H - 1), (11, 100)])
    def test_below_the_fewest_elements_the_blocks_are_tanh_of_sums(self, n, hidden):
        q, k = scaled_keys_and_queries(4.0, 3.0, n, hidden)
        v, _ = score_weights(n, hidden)
        out, _ = pointer._pair_scores(q, k, v, 5)
        np.testing.assert_array_equal(out, tanh_form(q, k, v))

    @pytest.mark.parametrize("rows", [1, 5, N])
    def test_inside_the_range_the_blocks_are_the_factored_form(self, rows, block_kinds):
        """The blocks of the forward and again of the backward are
        1 / (e^{-2q} + e^{2k}), hidden-major, bit for bit, each of its
        ``rows``."""
        q, k = scaled_keys_and_queries(4.0, 3.0)
        v, g = score_weights()
        got = kernel(q, k, v, g, rows)
        assert_matches_tanh_reference(got, q, k, v, g)
        want = 1.0 / (np.exp(-2.0 * q).T[:, :, None] + np.exp(2.0 * k).T[:, None, :])
        starts = list(range(0, N, rows))
        assert [(f, i) for f, i, _ in block_kinds] == [(np.reciprocal, i) for i in starts * 2]
        for _, i, ti in block_kinds:
            np.testing.assert_array_equal(ti, want[:, i:i + rows])

    @pytest.mark.parametrize("rows", [1, 5, N])
    @pytest.mark.parametrize("k_top", SUM_SCALES)
    @pytest.mark.parametrize("q_top", SUM_SCALES)
    def test_rank_2_products_are_the_sums(self, q_top, k_top, rows):
        """Each block's stacked product of the factors [e^{-2q}, 1] and
        [1; e^{2k}], written through out= as the kernel writes it, is
        np.add's e^{-2q}[i] + e^{2k}[j], hidden-major, bit for bit: at
        random keys and queries of either end of the range and between,
        in blocks of ``rows`` of n + 1 query rows, so that the last block
        of 5 or of 32 rows is short."""
        q, k = scaled_keys_and_queries(q_top, k_top, N + 1)
        at, ek = np.exp(-2.0 * q), np.exp(2.0 * k)
        left, right = pointer._sum_factors(at, ek)
        want = np.add(at.T[:, :, None], ek.T[:, None, :])
        for i in range(0, N + 1, rows):
            got = np.empty((H, min(rows, N + 1 - i), N + 1))
            np.matmul(left[:, i:i + rows], right, out=got)
            np.testing.assert_array_equal(got, want[:, i:i + rows])

    @pytest.mark.parametrize("n, hidden, block", FACTORED_CASES)
    def test_values_and_gradients_match_composed_reference(self, monkeypatch, block_kinds,
                                                           n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_matches_composed_reference(*weighted_problem(n, 3, hidden))
        assert {f for f, _, _ in block_kinds} == {np.reciprocal}

    @pytest.mark.parametrize("n, hidden, block", FACTORED_CASES[2:])
    def test_gradients_match_finite_differences(self, monkeypatch, block_kinds, n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_gradients_match_finite_differences(n, hidden)
        assert {f for f, _, _ in block_kinds} == {np.reciprocal}

    @pytest.mark.parametrize("n, hidden, block", FACTORED_CASES)
    def test_forward_is_the_same_on_and_off_the_tape(self, monkeypatch, block_kinds,
                                                     n, hidden, block):
        monkeypatch.setattr(pointer, "BLOCK", block)
        assert_same_forward_on_and_off_the_tape(n, hidden)
        assert {f for f, _, _ in block_kinds} == {np.reciprocal}


def test_parsing_a_long_sentence_allocates_a_bounded_peak():
    """Parsing one 300-token sentence at small encoder sizes and pointer
    hidden 100 stays under 8 MB at its peak (tracemalloc).  A whole
    n x n x hidden tanh array would take 72 MB per net."""
    rng = np.random.default_rng(3)
    sentence = random_sentence(rng, 300)
    model = init_model(rng, build_vocab([sentence]), d_pretrained=4, d_random=4,
                       bilstm_hidden=4, ptr_hidden=100)
    tracemalloc.start()
    try:
        (tree,) = parse([sentence], model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.heads) == 300
    assert peak < 8 * 2**20, peak


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
        m = target_matrix(tree_sentence([2, 0]), "heads")
        np.testing.assert_array_equal(m, [[0, 1], [0, 0]])

    def test_two_token_dependents(self):
        m = target_matrix(tree_sentence([2, 0]), "deps")
        np.testing.assert_array_equal(m, [[0, 0], [1, 0]])

    def test_top_row_zero_heads(self):
        m = target_matrix(tree_sentence([3, 3, 0]), "heads")
        np.testing.assert_array_equal(m[2], [0, 0, 0])

    def test_leaf_rows_zero_dependents(self):
        m = target_matrix(tree_sentence([3, 3, 0]), "deps")
        np.testing.assert_array_equal(m[0], [0, 0, 0])
        np.testing.assert_array_equal(m[1], [0, 0, 0])
        np.testing.assert_array_equal(m[2], [1, 1, 0])

    def test_heads_rows_one_hot(self):
        m = target_matrix(tree_sentence([2, 0, 2, 3]), "heads")
        sums = m.sum(axis=1)
        assert sorted(sums) == [0.0, 1.0, 1.0, 1.0]
        assert np.count_nonzero(sums == 0) == 1

    def test_transpose_identity_on_random_trees(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 15))
            s = tree_sentence(random_tree_heads(rng, n))
            h = target_matrix(s, "heads")
            d = target_matrix(s, "deps")
            np.testing.assert_array_equal(d, h.T)
            assert np.all(np.diag(h) == 0)

    def test_missing_gold_head_rejected(self):
        s = Sentence([Token(1, "a", None, None)])
        with pytest.raises(ValueError):
            target_matrix(s, "heads")

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError):
            target_matrix(tree_sentence([0]), "sideways")

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_transpose_identity_property(self, n, seed):
        heads = random_tree_heads(np.random.default_rng(seed), n)
        s = tree_sentence(heads)
        np.testing.assert_array_equal(
            target_matrix(s, "deps"), target_matrix(s, "heads").T
        )
