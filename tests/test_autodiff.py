"""Tape correctness: forward values against closed forms, backward against
central finite differences, and the graph-lifecycle guarantees; the
output-loss node against the composed losses it replaces."""
import gc

import numpy as np
import pytest

from fd import numeric_grad, rel_err
from oracles import (
    add,
    affine,
    bce_loss,
    concat,
    matmul,
    mse_loss,
    mul,
    segment,
    sigmoid,
    stack,
    sum_all,
    tanh,
)

from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor
from dualpointer.pointer import output_loss

COMPOSED = {"sigmoid": (sigmoid, bce_loss), "tanh": (tanh, mse_loss)}


def score_pairs(rng, nets):
    """Score matrices and 0/1 targets of ``nets`` nets on a 4-token
    sentence."""
    scores = [rng.normal(size=(4, 4)) * 3.0 for _ in range(nets)]
    targets = [(rng.random((4, 4)) < 0.5).astype(np.float64) for _ in range(nets)]
    return scores, targets


class TestForwardValues:
    def test_matmul_small(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_sigmoid_known_point(self):
        # logistic at 1.0, hand value 1/(1+e^-1)
        out = sigmoid(Tensor(np.array([1.0])))
        np.testing.assert_allclose(out.data, [0.7310585786300049], rtol=0, atol=1e-15)

    def test_sigmoid_matches_unstable_form(self):
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(ad.stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_sigmoid_extreme_inputs_finite(self):
        x = np.array([-1e4, -750.0, 750.0, 1e4])
        out = ad.stable_sigmoid(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-300)

    def test_tanh_known_point(self):
        out = tanh(Tensor(np.array([0.5])))
        np.testing.assert_allclose(out.data, [0.46211715726000974], rtol=0, atol=1e-15)

    def test_bce_at_half(self):
        # -ln(1/2) regardless of target
        p = Tensor(np.array([0.5, 0.5]))
        t = np.array([1.0, 0.0])
        loss = bce_loss(p, t)
        np.testing.assert_allclose(loss.item(), 0.6931471805599453, rtol=0, atol=1e-15)

    def test_bce_quarter_target_zero(self):
        loss = bce_loss(Tensor(np.array([0.25])), np.array([0.0]))
        np.testing.assert_allclose(loss.item(), 0.2876820724517809, rtol=0, atol=1e-15)

    def test_bce_with_logits_matches_composition(self, rng):
        self.check_composition(rng, "sigmoid")

    def test_tanh_mse_matches_composition(self, rng):
        self.check_composition(rng, "tanh")

    def check_composition(self, rng, activation):
        """The loss node against the sum of each net's composed activation
        and loss, heads first, with one net and with two: value and every
        score gradient within 1e-12 relative."""
        act, loss_of = COMPOSED[activation]
        for nets in (1, 2):
            s0, targets = score_pairs(rng, nets)
            fused_in = [Tensor(s.copy(), requires_grad=True) for s in s0]
            fused = output_loss(fused_in, targets, activation)
            fused.backward()
            composed_in = [Tensor(s.copy(), requires_grad=True) for s in s0]
            parts = [loss_of(act(x), t) for x, t in zip(composed_in, targets)]
            composed = parts[0] if nets == 1 else add(parts[0], parts[1])
            composed.backward()
            assert rel_err(fused.item(), composed.item()) <= 1e-12
            for a, b in zip(fused_in, composed_in):
                assert rel_err(a.grad, b.grad) <= 1e-12

    def test_bce_with_logits_extreme_scores(self):
        s = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = output_loss([s], [np.array([1.0, 0.0])], "sigmoid")
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(s.grad))

    def test_output_loss_rejects_bad_input(self):
        s = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            output_loss([s], [np.zeros((2, 3))], "sigmoid")
        with pytest.raises(ValueError, match="unknown output activation"):
            output_loss([s], [np.zeros((2, 2))], "softmax")
        with pytest.raises(ValueError):
            output_loss([s, s], [np.zeros((2, 2))], "tanh")

    def test_concat_segment_roundtrip(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=4)
        cat = concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(segment(cat, 0, 3).data, a)
        np.testing.assert_array_equal(segment(cat, 3, 7).data, b)

    def test_affine_matches_manual(self, rng):
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=3)
        out = affine(Tensor(w), Tensor(x), Tensor(b))
        np.testing.assert_allclose(out.data, w @ x + b, rtol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.zeros(3)), np.zeros(4))

    @pytest.mark.parametrize("shapes", [((3,), (1,)), ((2, 3), (3,)), ((), (2,))])
    def test_add_rejects_unequal_shapes(self, shapes):
        # no broadcasting: the program adds only equal-shaped losses
        a, b = (Tensor(np.ones(s), requires_grad=True) for s in shapes)
        with pytest.raises(ValueError, match="add shape mismatch"):
            add(a, b)
        with pytest.raises(ValueError, match="add shape mismatch"):
            add(b, a)


EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


class TestStableSigmoid:
    """The one logistic of the program: LSTM gates, decoded scores and the
    cross-entropy gradient."""

    @pytest.mark.skipif(not EXTENDED, reason="long double is no wider than float64 here")
    def test_against_extended_reference(self):
        """Where 1 + e^{-x} passes 2^53 (x just below -36.74), the add
        rounds part of the one away and the result's mantissa is near 2,
        so that band is held to 3 ulp instead (2.55 seen at most)."""
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                            np.linspace(-38.0, -35.0, 100_001),
                            rng.uniform(-745.0, 745.0, 100_000),
                            rng.normal(scale=4.0, size=100_000)])
        got = ad.stable_sigmoid(x)
        one = np.longdouble(1)
        want = one / (one + np.exp(-x.astype(np.longdouble)))
        normal = got >= np.finfo(np.float64).tiny
        assert normal.sum() > 0.9 * x.size
        err = np.abs(got.astype(np.longdouble) - want)
        ulps = np.where(normal, err / np.spacing(want.astype(np.float64)), 0.0)
        band = (x > -37.5) & (x < -36.7)
        assert ulps[~band].max() <= 2.0
        assert ulps[band].max() <= 3.0

    def test_saturates_exactly_and_passes_nan(self):
        x = np.array([-np.inf, -1e4, -800.0, 0.0, 800.0, 1e4, np.inf, np.nan])
        out = ad.stable_sigmoid(x)
        assert out[:-1].tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
        assert np.isnan(out[-1])

    def test_in_unit_interval_without_floating_point_errors(self):
        x = np.concatenate([[-np.inf, -1e300, -1e4], np.linspace(-800.0, 800.0, 160_001),
                            [1e4, 1e300, np.inf]])
        before = np.geterr()
        with np.errstate(all="raise"):
            out = ad.stable_sigmoid(x)
        assert np.geterr() == before
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_in_place_matches_allocating_call(self):
        x = np.random.default_rng(1).normal(scale=50.0, size=(37, 24))
        block = x.copy()
        want = ad.stable_sigmoid(x)
        assert np.array_equal(x, block)
        assert ad.stable_sigmoid(block, out=block) is block
        assert np.array_equal(block, want)


class TestBackwardAgainstFiniteDifferences:
    """Every op's analytic gradient vs central differences at 1e-6."""

    def check(self, build, x0, tol=1e-7):
        x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
        out = build(x)
        out.backward()
        analytic = x.grad

        def f(arr):
            with ad.no_grad():
                return build(Tensor(arr)).item()

        numeric = numeric_grad(f, np.array(x0, dtype=np.float64))
        assert rel_err(analytic, numeric) < tol

    def test_add_mul_chain(self, rng):
        c = rng.normal(size=(3, 3))
        self.check(lambda x: sum_all(mul(add(x, Tensor(c)), x)), rng.normal(size=(3, 3)))

    def test_matmul_left(self, rng):
        b = rng.normal(size=(4, 2))
        self.check(lambda x: sum_all(tanh(matmul(x, Tensor(b)))), rng.normal(size=(3, 4)))

    def test_matmul_right_vector(self, rng):
        a = rng.normal(size=(3, 4))
        self.check(lambda x: sum_all(sigmoid(matmul(Tensor(a), x))), rng.normal(size=4))

    def test_affine_all_inputs(self, rng):
        w0 = rng.normal(size=(3, 4))
        x0 = rng.normal(size=4)
        b0 = rng.normal(size=3)
        w = Tensor(w0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        sum_all(tanh(affine(w, x, b))).backward()

        def fw(arr):
            with ad.no_grad():
                return sum_all(tanh(affine(Tensor(arr), Tensor(x0), Tensor(b0)))).item()

        def fx(arr):
            with ad.no_grad():
                return sum_all(tanh(affine(Tensor(w0), Tensor(arr), Tensor(b0)))).item()

        def fb(arr):
            with ad.no_grad():
                return sum_all(tanh(affine(Tensor(w0), Tensor(x0), Tensor(arr)))).item()

        assert rel_err(w.grad, numeric_grad(fw, w0)) < 1e-7
        assert rel_err(x.grad, numeric_grad(fx, x0)) < 1e-7
        assert rel_err(b.grad, numeric_grad(fb, b0)) < 1e-7

    def test_concat_stack_segment(self, rng):
        def build(x):
            a = segment(x, 0, 3)
            b = segment(x, 3, 6)
            m = stack([a, b, concat([segment(x, 6, 8), segment(x, 0, 1)])])
            return sum_all(mul(m, m))

        self.check(build, rng.normal(size=8))

    def test_bce_loss_grad(self, rng):
        t = (rng.random(6) < 0.5).astype(np.float64)
        self.check(
            lambda x: bce_loss(sigmoid(x), t),
            rng.normal(size=6),
        )

    def test_bce_with_logits_grad(self, rng):
        self.check_output_loss(rng, "sigmoid")

    def test_mse_grad(self, rng):
        self.check_output_loss(rng, "tanh")

    def check_output_loss(self, rng, activation):
        """The loss node's gradient for each net's scores, with one net and
        with two."""
        for nets in (1, 2):
            s0, targets = score_pairs(rng, nets)
            for k in range(nets):
                def build(x, k=k):
                    scores = [x if i == k else Tensor(s) for i, s in enumerate(s0)]
                    return output_loss(scores, targets, activation)

                self.check(build, s0[k])

    def test_composed_mse_grad(self, rng):
        t = rng.normal(size=(2, 3))
        self.check(lambda x: mse_loss(tanh(x), t), rng.normal(size=(2, 3)))

    def test_shared_subexpression_accumulates(self, rng):
        # y = sum(x*x) + sum(x): grad must be 2x + 1, not one branch only
        x0 = rng.normal(size=4)
        x = Tensor(x0.copy(), requires_grad=True)
        add(sum_all(mul(x, x)), sum_all(x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x0 + 1.0, rtol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        # iterative traversal must survive graphs deeper than the C stack
        x = Tensor(np.array([0.1]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = add(y, x)
        sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [5001.0])


class TestGraphLifecycle:
    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            add(x, x).backward()

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = tanh(x)
        assert y._backward is None and y._parents == ()
        assert not y.requires_grad

    def test_constant_inputs_build_no_graph(self):
        y = tanh(Tensor(np.ones(3)))
        assert y._backward is None and y._parents == ()

    def test_backward_frees_graph(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = sum_all(tanh(x))
        y.backward()
        assert y._parents == () and y._backward is None
        assert x.grad is not None

    def test_graph_collected_after_backward(self):
        x = Tensor(np.ones(8), requires_grad=True)
        loss = sum_all(mul(tanh(x), sigmoid(x)))
        loss.backward()
        del loss
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, Tensor)]
        assert live == [x]

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        sum_all(x).backward()
        sum_all(mul(x, Tensor([3.0, 3.0]))).backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_second_backward_without_retain_is_inert(self):
        # freed graph means a second pass finds no rules to run
        x = Tensor(np.ones(2), requires_grad=True)
        y = sum_all(tanh(x))
        y.backward()
        g1 = x.grad.copy()
        y.backward()
        np.testing.assert_allclose(x.grad, g1)

    def test_accumulation_leaves_shared_gradients_intact(self):
        # add hands one gradient array to both inputs; x's second
        # contribution must not write through into z's gradient
        x = Tensor(np.ones(3), requires_grad=True)
        z = Tensor(np.ones(3), requires_grad=True)
        w, w2 = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])
        loss = add(sum_all(mul(add(x, z), Tensor(w))), sum_all(mul(x, Tensor(w2))))
        loss.backward()
        np.testing.assert_array_equal(z.grad, w)
        np.testing.assert_array_equal(x.grad, w + w2)


class TestRowGrad:
    def test_gather_matches_dense_add_at(self, rng):
        idx = np.array([4, 1, 4, 4, 0, 1])
        g = rng.normal(size=(6, 3))
        grad = ad.RowGrad.gather(idx, g, (7, 3))
        dense = np.zeros((7, 3))
        np.add.at(dense, idx, g)
        assert grad.rows.tolist() == [0, 1, 4]
        assert np.array_equal(np.asarray(grad), dense)

    @pytest.mark.parametrize("idx", [
        pytest.param([3, 0, 3, 5, 0, 2], id="rows-repeated-once"),
        pytest.param([1, 6, 1, 1, 2, 6, 1], id="a-row-repeated-three-times"),
        pytest.param([4] * 9, id="all-tokens-on-one-row"),
        pytest.param(np.random.default_rng(80).permutation(80), id="80-rows")])
    def test_gather_sums_within_1e_12_of_add_at(self, rng, idx):
        """The rows are the distinct gathered rows in ascending order, and
        their values are the gathered gradients summed as ``np.add.at``
        sums them, within 1e-12 relative."""
        idx = np.asarray(idx)
        g = rng.normal(size=(len(idx), 100))
        grad = ad.RowGrad.gather(idx, g, (90, 100))
        dense = np.zeros((90, 100))
        np.add.at(dense, idx, g)
        assert grad.rows.tolist() == sorted(set(idx.tolist()))
        assert rel_err(grad.values, dense[grad.rows]) <= 1e-12
        assert rel_err(np.asarray(grad), dense) <= 1e-12

    def test_sum_matches_dense_sum(self, rng):
        a = ad.RowGrad.gather(np.array([5, 2, 5]), rng.normal(size=(3, 2)), (8, 2))
        b = ad.RowGrad.gather(np.array([7, 5, 0]), rng.normal(size=(3, 2)), (8, 2))
        total = a + b
        assert isinstance(total, ad.RowGrad)
        assert total.rows.tolist() == [0, 2, 5, 7]
        assert np.array_equal(np.asarray(total), np.asarray(a) + np.asarray(b))


class TestOuterGrad:
    def test_dense_is_the_product_of_the_factors(self, rng):
        left, right = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        grad = ad.OuterGrad(left, right)
        assert grad.shape == (4, 3)
        assert np.array_equal(np.asarray(grad), left.T @ right)

    def test_dense_takes_the_parameter_shape(self, rng):
        """Factors over a [3 x 8] parameter seen as [6 x 4]: the dense
        gradient, and a sum's, comes in the parameter's shape."""
        factors = [(rng.normal(size=(5, 6)), rng.normal(size=(5, 4))) for _ in range(2)]
        a, b = (ad.OuterGrad(left, right, (3, 8)) for left, right in factors)
        assert a.shape == (3, 8)
        assert np.array_equal(np.asarray(a), (factors[0][0].T @ factors[0][1]).reshape(3, 8))
        total = a + b
        assert total.shape == (3, 8)
        assert rel_err(np.asarray(total), np.asarray(a) + np.asarray(b)) <= 1e-12

    @pytest.mark.parametrize("T", [(1, 1), (3, 7), (120, 40)])
    def test_sum_matches_dense_sum(self, rng, T):
        a = ad.OuterGrad(rng.normal(size=(T[0], 6)), rng.normal(size=(T[0], 9)))
        b = ad.OuterGrad(rng.normal(size=(T[1], 6)), rng.normal(size=(T[1], 9)))
        total = a + b
        assert isinstance(total, ad.OuterGrad)
        assert len(total.left) == len(total.right) == sum(T)
        assert rel_err(np.asarray(total), np.asarray(a) + np.asarray(b)) <= 1e-12
