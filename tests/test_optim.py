"""Adam update math against hand-computed values and a reference loop."""
import re
from pathlib import Path

import numpy as np
import pytest

from fd import rel_err

from dualpointer.autodiff import OuterGrad, RowGrad, Tensor
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


def test_nonfinite_grad_skips_whole_step():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([a, b])
    a.grad = np.array([0.5])
    b.grad = np.array([np.nan])
    assert not opt.step()
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
    opt = Adam([sparse])
    for g in grads:
        sparse.grad = RowGrad(np.array(touched), g[touched], g.shape)
        opt.step()
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
    opt = Adam([p])

    p.grad = RowGrad(np.array([1]), np.ones((1, 2)), (4, 2))
    opt.step()
    opt.zero_grad()

    p.grad = RowGrad(np.array([3]), np.ones((1, 2)), (4, 2))
    opt.step()
    opt.zero_grad()

    # row 1 kept its first-step moments verbatim
    np.testing.assert_allclose(opt.m[0][1], 0.1 * np.ones(2), rtol=1e-15)
    np.testing.assert_array_equal(opt.m[0][2], np.zeros(2))


def formula_step(param, grad, m, v, t, alpha=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """One dense Adam update as whole-array expressions, on the rescaled
    second moment ``v`` (the optimizer's ``v``), in the operation order the
    blocked in-place update must reproduce bit for bit."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    c = alpha * np.sqrt(bc2) / (bc1 * np.sqrt(1.0 - b2))
    eps_t = eps * np.sqrt(bc2 / (1.0 - b2))
    m *= b1
    m += grad * (1.0 - b1)
    v *= b2
    v += grad * grad
    param -= (m / (np.sqrt(v) + eps_t)) * c


def test_blocked_update_bit_identical_to_formula(rng):
    shapes = [
        (2 * ADAM_CHUNK,),           # several whole blocks
        (3, ADAM_CHUNK // 2 + 7),    # more than a block, not a multiple of it
        (5, 4),                      # less than one block
        (40, 6),                     # sparse-row embedding table
    ]
    sparse_slot, touched = 3, [1, 8, 8, 30]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    opt = Adam(params)
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
        params[sparse_slot].grad = RowGrad(
            np.array(rows), grads[sparse_slot][rows], shapes[sparse_slot])
        assert opt.step()
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


@np.errstate(over="ignore")
def test_huge_finite_gradient_leaves_parameter_finite():
    """Two steps with gradient 1e308: the squared gradient overflows the
    second moment to inf, which stops the update, and no inf/inf turns the
    parameter into NaN."""
    p = Tensor(np.ones(4), requires_grad=True)
    opt = Adam([p])
    for _ in range(2):
        p.grad = np.full(4, 1e308)
        assert opt.step()
        opt.zero_grad()
    assert np.all(np.isfinite(p.data))


@pytest.mark.parametrize("b1, b2", [(0.9, 0.999), (0.0, 0.999), (0.9, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e2])
def test_matches_reference_over_200_steps(rng, scale, b1, b2):
    """The rescaled form against textbook Adam for 200 steps, from gradients
    far below eps (where eps' sets the step) to far above it, including the
    decay rates 0 that the configuration allows."""
    p0 = rng.normal(size=(3, 5))
    grads = [scale * rng.normal(size=(3, 5)) for _ in range(200)]
    p = Tensor(p0.copy(), requires_grad=True)
    opt = Adam([p], beta1=b1, beta2=b2)
    for g in grads:
        p.grad = g.copy()
        assert opt.step()
        opt.zero_grad()
    np.testing.assert_allclose(p.data, reference_adam(p0, grads, b1=b1, b2=b2), rtol=1e-12, atol=0)


def test_nonfinite_row_gradient_skips_step():
    p = Tensor(np.ones((5, 2)), requires_grad=True)
    opt = Adam([p])
    p.grad = RowGrad(np.array([1, 3]), np.array([[0.5, 0.5], [np.inf, 0.0]]), (5, 2))
    assert not opt.step()
    np.testing.assert_array_equal(p.data, np.ones((5, 2)))
    assert opt.t == 0


@pytest.mark.parametrize("T", [1, 7, 120])
@pytest.mark.parametrize("shape", [
    (40, 30),                 # less than one block
    (64, ADAM_CHUNK // 64),   # exactly one block
    (100, 450),               # more than a block, not a multiple of its rows
    (3, ADAM_CHUNK + 5),      # one row wider than a block
])
def test_factored_update_matches_dense_update(rng, T, shape):
    """Three steps from factored gradients against the same steps from
    their dense products: parameter, first and second moment within
    1e-12 relative.  The parameter starts at zero, so it holds the sum of
    the updates."""
    factored, dense = Tensor(np.zeros(shape), requires_grad=True), Tensor(np.zeros(shape))
    opts = Adam([factored]), Adam([dense])
    for _ in range(3):
        grad = OuterGrad(rng.normal(size=(T, shape[0])), rng.normal(size=(T, shape[1])))
        factored.grad, dense.grad = grad, np.asarray(grad)
        assert all(opt.step() for opt in opts)
    for got, want in ((factored.data, dense.data), (opts[0].m[0], opts[1].m[0]),
                      (opts[0].v[0], opts[1].v[0])):
        assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("T", [1, 30])
def test_factored_update_of_a_reshaped_parameter(rng, T):
    """A pointer net's [hidden x 2 context] weight takes factors over its
    [2 hidden x context] view: three steps match the dense steps within
    1e-12 relative."""
    hidden, ctx = 100, 400
    factored, dense = (Tensor(np.zeros((hidden, 2 * ctx)), requires_grad=True),
                       Tensor(np.zeros((hidden, 2 * ctx))))
    opts = Adam([factored]), Adam([dense])
    for _ in range(3):
        grad = OuterGrad(rng.normal(size=(T, 2 * hidden)), rng.normal(size=(T, ctx)),
                         factored.data.shape)
        factored.grad, dense.grad = grad, np.asarray(grad)
        assert dense.grad.shape == (hidden, 2 * ctx)
        assert all(opt.step() for opt in opts)
    for got, want in ((factored.data, dense.data), (opts[0].m[0], opts[1].m[0]),
                      (opts[0].v[0], opts[1].v[0])):
        assert rel_err(got, want) <= 1e-12


def factored_step_after_one(rng, left, right):
    """A [5 x 4] parameter and a vector, one step taken; then a step with
    the factors given on the matrix.  Returns whether that step applied,
    and whether every parameter, moment and the step count kept its value."""
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    opt = Adam([a, b])
    a.grad = OuterGrad(rng.normal(size=(2, 5)), rng.normal(size=(2, 4)))
    b.grad = rng.normal(size=3)
    assert opt.step()
    opt.zero_grad()
    saved = [x.copy() for x in (a.data, b.data, *opt.m, *opt.v)]
    a.grad, b.grad = OuterGrad(left, right), rng.normal(size=3)
    applied = opt.step()
    kept = all(np.array_equal(x, y) for x, y in zip(saved, (a.data, b.data, *opt.m, *opt.v)))
    return applied, kept and opt.t == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["left", "right"])
@np.errstate(invalid="ignore")
def test_nonfinite_factor_skips_whole_step(rng, bad, side):
    factors = {"left": rng.normal(size=(7, 5)), "right": rng.normal(size=(7, 4))}
    factors[side][3, 1] = bad
    assert factored_step_after_one(rng, **factors) == (False, True)


@pytest.mark.parametrize("T, size", [(1, 1e200), (4, 8e153)])
@np.errstate(over="ignore")
def test_finite_factors_with_overflowing_product_skip_step(rng, T, size):
    """Every factor entry is finite; the product's entries are not: 1e400
    from one term, or four terms of 6.4e307 each, each term below half the
    float64 maximum."""
    left, right = np.full((T, 5), size), np.full((T, 4), size)
    assert factored_step_after_one(rng, left, right) == (False, True)


@np.errstate(over="ignore")
def test_huge_finite_factored_gradient_is_applied():
    """Factors whose product is 1e308 everywhere pass the finite check on
    the dense fallback, are applied as the dense gradient is, and leave the
    parameter finite when the second moment overflows."""
    factored, dense = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)))
    opts = Adam([factored]), Adam([dense])
    for _ in range(2):
        factored.grad = OuterGrad(np.full((1, 2), 1e154), np.full((1, 3), 1e154))
        dense.grad = np.asarray(factored.grad)
        assert np.all(dense.grad == 1e308)
        assert all(opt.step() for opt in opts)
    assert opts[0].t == 2
    assert np.all(np.isfinite(factored.data))
    assert np.array_equal(factored.data, dense.data)
    assert np.array_equal(opts[0].m[0], opts[1].m[0])


def test_declared_numpy_floor_takes_reshape_copy():
    # adam_step's reshape(-1, copy=False) is a TypeError before numpy 2.1
    root = Path(__file__).resolve().parent.parent
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', (root / "pyproject.toml").read_text())
    assert tuple(int(part) for part in floor.split(".")) >= (2, 1)
    assert f"numpy {floor}+" in " ".join((root / "README.md").read_text().split())
