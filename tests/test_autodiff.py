"""Tape correctness: forward values against closed forms, backward against
central finite differences, and the graph-lifecycle guarantees."""
import gc

import numpy as np
import pytest

from fd import numeric_grad, rel_err
from oracles import segment, sigmoid

from dualpointer import autodiff as ad
from dualpointer.autodiff import Tensor


class TestForwardValues:
    def test_matmul_small(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
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
        out = ad.tanh(Tensor(np.array([0.5])))
        np.testing.assert_allclose(out.data, [0.46211715726000974], rtol=0, atol=1e-15)

    def test_bce_at_half(self):
        # -ln(1/2) regardless of target
        p = Tensor(np.array([0.5, 0.5]))
        t = np.array([1.0, 0.0])
        loss = ad.bce_loss(p, t)
        np.testing.assert_allclose(loss.item(), 0.6931471805599453, rtol=0, atol=1e-15)

    def test_bce_quarter_target_zero(self):
        loss = ad.bce_loss(Tensor(np.array([0.25])), np.array([0.0]))
        np.testing.assert_allclose(loss.item(), 0.2876820724517809, rtol=0, atol=1e-15)

    def test_bce_with_logits_matches_composition(self, rng):
        s = rng.normal(size=(4, 5)) * 3.0
        t = (rng.random((4, 5)) < 0.5).astype(np.float64)
        fused = ad.bce_with_logits(Tensor(s), t)
        composed = ad.bce_loss(sigmoid(Tensor(s)), t)
        np.testing.assert_allclose(fused.item(), composed.item(), rtol=1e-12)

    def test_bce_with_logits_extreme_scores(self):
        s = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = ad.bce_with_logits(s, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(s.grad))

    def test_concat_segment_roundtrip(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=4)
        cat = ad.concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(segment(cat, 0, 3).data, a)
        np.testing.assert_array_equal(segment(cat, 3, 7).data, b)

    def test_affine_matches_manual(self, rng):
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=3)
        out = ad.affine(Tensor(w), Tensor(x), Tensor(b))
        np.testing.assert_allclose(out.data, w @ x + b, rtol=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            ad.bce_loss(Tensor(np.zeros(3)), np.zeros(4))


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
        self.check(lambda x: ad.sum_all(ad.mul(ad.add(x, Tensor(c)), x)), rng.normal(size=(3, 3)))

    def test_sub_scale(self, rng):
        c = rng.normal(size=5)
        self.check(lambda x: ad.sum_all(ad.scale(ad.sub(x, Tensor(c)), 2.5)), rng.normal(size=5))

    def test_matmul_left(self, rng):
        b = rng.normal(size=(4, 2))
        self.check(lambda x: ad.sum_all(ad.tanh(ad.matmul(x, Tensor(b)))), rng.normal(size=(3, 4)))

    def test_matmul_right_vector(self, rng):
        a = rng.normal(size=(3, 4))
        self.check(lambda x: ad.sum_all(sigmoid(ad.matmul(Tensor(a), x))), rng.normal(size=4))

    def test_affine_all_inputs(self, rng):
        w0 = rng.normal(size=(3, 4))
        x0 = rng.normal(size=4)
        b0 = rng.normal(size=3)
        w = Tensor(w0.copy(), requires_grad=True)
        x = Tensor(x0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        ad.sum_all(ad.tanh(ad.affine(w, x, b))).backward()

        def fw(arr):
            with ad.no_grad():
                return ad.sum_all(ad.tanh(ad.affine(Tensor(arr), Tensor(x0), Tensor(b0)))).item()

        def fx(arr):
            with ad.no_grad():
                return ad.sum_all(ad.tanh(ad.affine(Tensor(w0), Tensor(arr), Tensor(b0)))).item()

        def fb(arr):
            with ad.no_grad():
                return ad.sum_all(ad.tanh(ad.affine(Tensor(w0), Tensor(x0), Tensor(arr)))).item()

        assert rel_err(w.grad, numeric_grad(fw, w0)) < 1e-7
        assert rel_err(x.grad, numeric_grad(fx, x0)) < 1e-7
        assert rel_err(b.grad, numeric_grad(fb, b0)) < 1e-7

    def test_concat_stack_segment(self, rng):
        def build(x):
            a = segment(x, 0, 3)
            b = segment(x, 3, 6)
            m = ad.stack([a, b, ad.concat([segment(x, 6, 8), segment(x, 0, 1)])])
            return ad.sum_all(ad.mul(m, m))

        self.check(build, rng.normal(size=8))

    def test_bce_loss_grad(self, rng):
        t = (rng.random(6) < 0.5).astype(np.float64)
        self.check(
            lambda x: ad.bce_loss(sigmoid(x), t),
            rng.normal(size=6),
        )

    def test_bce_with_logits_grad(self, rng):
        t = (rng.random((3, 4)) < 0.5).astype(np.float64)
        self.check(lambda x: ad.bce_with_logits(x, t), rng.normal(size=(3, 4)) * 2.0)

    def test_mse_grad(self, rng):
        t = rng.normal(size=(2, 3))
        self.check(lambda x: ad.mse_loss(ad.tanh(x), t), rng.normal(size=(2, 3)))

    def test_shared_subexpression_accumulates(self, rng):
        # y = sum(x*x) + sum(x): grad must be 2x + 1, not one branch only
        x0 = rng.normal(size=4)
        x = Tensor(x0.copy(), requires_grad=True)
        ad.add(ad.sum_all(ad.mul(x, x)), ad.sum_all(x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x0 + 1.0, rtol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        # iterative traversal must survive graphs deeper than the C stack
        x = Tensor(np.array([0.1]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ad.add(y, x)
        ad.sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [5001.0])


class TestGraphLifecycle:
    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(x, x).backward()

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.tanh(x)
        assert y._backward is None and y._parents == ()
        assert not y.requires_grad

    def test_constant_inputs_build_no_graph(self):
        y = ad.tanh(Tensor(np.ones(3)))
        assert y._backward is None and y._parents == ()

    def test_backward_frees_graph(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = ad.sum_all(ad.tanh(x))
        y.backward()
        assert y._parents == () and y._backward is None
        assert x.grad is not None

    def test_graph_collected_after_backward(self):
        x = Tensor(np.ones(8), requires_grad=True)
        loss = ad.sum_all(ad.mul(ad.tanh(x), sigmoid(x)))
        loss.backward()
        del loss
        gc.collect()
        live = [o for o in gc.get_objects() if isinstance(o, Tensor)]
        assert live == [x]

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        ad.sum_all(x).backward()
        ad.sum_all(ad.scale(x, 3.0)).backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_second_backward_without_retain_is_inert(self):
        # freed graph means a second pass finds no rules to run
        x = Tensor(np.ones(2), requires_grad=True)
        y = ad.sum_all(ad.tanh(x))
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
        loss = ad.add(ad.sum_all(ad.mul(ad.add(x, z), w)), ad.sum_all(ad.mul(x, w2)))
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

    def test_sum_matches_dense_sum(self, rng):
        a = ad.RowGrad.gather(np.array([5, 2, 5]), rng.normal(size=(3, 2)), (8, 2))
        b = ad.RowGrad.gather(np.array([7, 5, 0]), rng.normal(size=(3, 2)), (8, 2))
        total = a + b
        assert isinstance(total, ad.RowGrad)
        assert total.rows.tolist() == [0, 2, 5, 7]
        assert np.array_equal(np.asarray(total), np.asarray(a) + np.asarray(b))
