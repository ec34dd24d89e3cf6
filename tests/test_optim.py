"""Adam update math against hand-computed values and a reference loop."""
import logging

import numpy as np
import pytest

from dualpointer.autodiff import Tensor
from dualpointer.optim import ADAM_CHUNK, Adam


def reference_adam(param, grads, alpha=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam applied to a fixed gradient sequence."""
    p = np.array(param, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - alpha * mhat / (np.sqrt(vhat) + eps)
    return p


def test_first_step_hand_value():
    # param 1.0, grad 1.0: mhat = vhat = 1, so p -> 1 - alpha/(1+eps)
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.array([1.0])
    assert opt.step()
    np.testing.assert_allclose(p.data, [0.99900000001], rtol=0, atol=1e-14)


def test_two_steps_hand_value():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p])
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step()
        opt.zero_grad()
    np.testing.assert_allclose(p.data, [0.99800000002], rtol=0, atol=1e-13)


def test_matches_reference_sequence(rng):
    p0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(25)]
    p = Tensor(p0.copy(), requires_grad=True)
    opt = Adam([p])
    for g in grads:
        p.grad = g.copy()
        opt.step()
        opt.zero_grad()
    np.testing.assert_allclose(p.data, reference_adam(p0, grads), rtol=1e-12)


def test_step_count_shared_across_params(rng):
    # a param that sat out early steps still sees the global t
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([a, b])
    for _ in range(5):
        a.grad = np.ones(2)
        opt.step()
        opt.zero_grad()
    assert opt.t == 5
    b.grad = np.ones(2)
    opt.step()
    assert opt.t == 6


def test_missing_grad_leaves_param_untouched():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([a, b])
    a.grad = np.array([0.5])
    opt.step()
    np.testing.assert_array_equal(b.data, [2.0])
    assert not np.array_equal(a.data, [1.0])


def test_nonfinite_grad_skips_whole_step(caplog):
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([a, b])
    a.grad = np.array([0.5])
    b.grad = np.array([np.nan])
    with caplog.at_level(logging.WARNING):
        assert not opt.step()
    assert "non-finite" in caplog.text
    np.testing.assert_array_equal(a.data, [1.0])
    np.testing.assert_array_equal(b.data, [1.0])
    assert opt.t == 0


def test_sparse_rows_match_dense_on_touched_rows(rng):
    """Row-wise updates must equal dense Adam run on just those rows."""
    table0 = rng.normal(size=(10, 4))
    touched = [2, 7]
    grads = []
    for _ in range(8):
        g = np.zeros((10, 4))
        for r in touched:
            g[r] = rng.normal(size=4)
        grads.append(g)

    sparse = Tensor(table0.copy(), requires_grad=True)
    opt = Adam([sparse], sparse_rows={0})
    for g in grads:
        sparse.grad = g.copy()
        opt.step(row_sets={0: set(touched)})
        opt.zero_grad()

    expected = table0.copy()
    for r in touched:
        expected[r] = reference_adam(table0[r], [g[r] for g in grads])
    np.testing.assert_allclose(sparse.data, expected, rtol=1e-12)
    # untouched rows bit-identical
    untouched = [i for i in range(10) if i not in touched]
    np.testing.assert_array_equal(sparse.data[untouched], table0[untouched])


def test_sparse_rows_vary_per_step(rng):
    # moments of a row must not decay on steps where the row sat out
    table0 = rng.normal(size=(4, 2))
    p = Tensor(table0.copy(), requires_grad=True)
    opt = Adam([p], sparse_rows={0})

    g1 = np.zeros((4, 2)); g1[1] = 1.0
    p.grad = g1
    opt.step(row_sets={0: {1}})
    opt.zero_grad()

    g2 = np.zeros((4, 2)); g2[3] = 1.0
    p.grad = g2
    opt.step(row_sets={0: {3}})
    opt.zero_grad()

    # row 1 kept its first-step moments verbatim
    np.testing.assert_allclose(opt.m[0][1], 0.1 * np.ones(2), rtol=1e-15)
    np.testing.assert_array_equal(opt.m[0][2], np.zeros(2))


def formula_step(param, grad, m, v, t, alpha=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """One dense Adam update as whole-array expressions, in the operation
    order the blocked in-place update must reproduce bit for bit."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * (grad * grad)
    mhat = m / bc1
    vhat = v / bc2
    param -= alpha * mhat / (np.sqrt(vhat) + eps)


def test_blocked_update_bit_identical_to_formula(rng):
    shapes = [
        (2 * ADAM_CHUNK,),           # several whole blocks
        (3, ADAM_CHUNK // 2 + 7),    # more than a block, not a multiple of it
        (5, 4),                      # less than one block
        (40, 6),                     # sparse-row embedding table
    ]
    sparse_slot, touched = 3, [1, 8, 8, 30]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = Adam(params, sparse_rows={sparse_slot})
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    rows = sorted(set(touched))
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        grads[sparse_slot] = np.zeros(shapes[sparse_slot])
        grads[sparse_slot][touched] = rng.normal(size=(len(touched), 6))
        for p, g in zip(params, grads):
            p.grad = g.copy()
        assert opt.step(row_sets={sparse_slot: set(touched)})
        opt.zero_grad()
        for i, g in enumerate(grads):
            if i == sparse_slot:
                p_rows, m_rows, v_rows = ref_p[i][rows], ref_m[i][rows], ref_v[i][rows]
                formula_step(p_rows, g[rows], m_rows, v_rows, t)
                ref_p[i][rows], ref_m[i][rows], ref_v[i][rows] = p_rows, m_rows, v_rows
            else:
                formula_step(ref_p[i], g, ref_m[i], ref_v[i], t)
    for i, p in enumerate(params):
        assert np.array_equal(p.data, ref_p[i]), i
        assert np.array_equal(opt.m[i], ref_m[i]), i
        assert np.array_equal(opt.v[i], ref_v[i]), i


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_entry_in_large_grad_skips_step(rng, bad):
    a = Tensor(rng.normal(size=3 * ADAM_CHUNK + 5), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    opt = Adam([a, b])
    for _ in range(2):
        a.grad, b.grad = rng.normal(size=a.data.shape), rng.normal(size=(4, 3))
        assert opt.step()
    saved = [x.copy() for x in (a.data, b.data, *opt.m, *opt.v)]
    a.grad = rng.normal(size=a.data.shape)
    a.grad[2 * ADAM_CHUNK + 1] = bad
    b.grad = rng.normal(size=(4, 3))
    assert not opt.step()
    after = [a.data, b.data, *opt.m, *opt.v]
    assert all(np.array_equal(x, y) for x, y in zip(saved, after))
    assert opt.t == 2


@np.errstate(over="ignore")
def test_finite_grad_with_overflowing_sum_is_applied():
    grad = np.full(4, 1e308)
    assert not np.isfinite(grad.sum())
    p = Tensor(np.ones(4), requires_grad=True)
    opt = Adam([p])
    p.grad = grad.copy()
    assert opt.step()
    ref_p, ref_m, ref_v = np.ones(4), np.zeros(4), np.zeros(4)
    formula_step(ref_p, grad, ref_m, ref_v, 1)
    assert opt.t == 1
    assert np.array_equal(opt.m[0], ref_m)
    assert np.array_equal(p.data, ref_p)
