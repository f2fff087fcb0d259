import numpy as np
import pytest

from ivfuse.optim import Parameter, adamw_step, zero_grads
from ivfuse.tensor import reduce_sum


def scalar_param(value):
    p = Parameter("w", np.array([value]))
    return p


def set_grad(p, g):
    p.grad = np.asarray(g, dtype=np.float64)


def test_first_step_matches_hand_formula():
    # m_hat = g = 1, v_hat = 1 -> update = lr / (1 + eps)
    p = scalar_param(1.0)
    set_grad(p, [1.0])
    adamw_step([p], lr=0.1, weight_decay=0.0)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
    assert abs(p.data[0] - 0.9) < 1e-8
    assert p.step == 1


def test_zero_grad_zero_decay_leaves_param():
    p = scalar_param(0.7)
    set_grad(p, [0.0])
    adamw_step([p], lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [0.7])


def test_pure_decoupled_decay():
    p = scalar_param(2.0)
    set_grad(p, [0.0])
    adamw_step([p], lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.001)], atol=1e-15)


def test_missing_grad_rejected_names_param():
    good = scalar_param(1.0)
    set_grad(good, [1.0])
    bad = Parameter("frozen.bias", np.zeros(2))
    with pytest.raises(ValueError, match="frozen.bias"):
        adamw_step([good, bad], lr=0.1)
    # the failed call must not have touched the good parameter
    np.testing.assert_array_equal(good.data, [1.0])
    assert good.step == 0


def test_wd_zero_matches_plain_adam(rng):
    def plain_adam(w, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        return w

    w0 = rng.standard_normal(5)
    grads = [rng.standard_normal(5) for _ in range(7)]
    p = Parameter("w", w0.copy())
    for g in grads:
        set_grad(p, g)
        adamw_step([p], lr=0.01, weight_decay=0.0)
        p.grad = None
    np.testing.assert_allclose(p.data, plain_adam(w0, grads, 0.01), atol=1e-12)


def test_grads_untouched_and_step_counts(rng):
    p = Parameter("w", rng.standard_normal(3))
    g = rng.standard_normal(3)
    set_grad(p, g.copy())
    adamw_step([p], lr=0.01)
    np.testing.assert_array_equal(p.grad, g)
    adamw_step([p], lr=0.01)
    assert p.step == 2
    zero_grads([p])
    assert p.grad is None


def test_accumulator_shapes_match():
    p = Parameter("w", np.zeros((3, 4)))
    assert p.m is None and p.v is None  # allocated at the first step
    set_grad(p, np.ones((3, 4)))
    adamw_step([p], lr=0.01)
    assert p.m.shape == (3, 4) and p.v.shape == (3, 4)


def test_training_reduces_quadratic(rng):
    p = Parameter("w", np.array([5.0, -3.0]))
    for _ in range(400):
        loss = reduce_sum(p * p)
        loss.backward()
        adamw_step([p], lr=0.05, weight_decay=0.0)
        p.grad = None
    assert np.all(np.abs(p.data) < 0.5)
