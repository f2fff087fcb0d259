"""Gradient checks for every differentiable op against central differences."""

import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ivfuse import tensor as T
from ivfuse.tensor import Tensor

from oracles import max_relative_error, numeric_gradient

EPS = 1e-4
TOL = 1e-3


def analytic_grad(build, x0):
    x = Tensor(x0, requires_grad=True)
    build(x).backward()
    return x.grad


def check_op(build, x0, eps=EPS, tol=TOL):
    got = analytic_grad(build, np.array(x0, dtype=np.float64))

    def scalar(arr):
        return build(Tensor(arr)).item()

    want = numeric_gradient(scalar, np.array(x0, dtype=np.float64), eps=eps)
    err = max_relative_error(got, want)
    assert err < tol, f"gradcheck failed: rel err {err:.3e}"


def weighted_sum(t, rng):
    w = Tensor(rng.standard_normal(t.shape))
    return T.reduce_sum(t * w)


def test_quadratic_example():
    w = Tensor([3.0], requires_grad=True)
    T.reduce_sum(w * w).backward()
    np.testing.assert_allclose(w.grad, [6.0])


def test_sigmoid_at_zero():
    w = Tensor([0.0], requires_grad=True)
    T.reduce_sum(T.sigmoid(w)).backward()
    np.testing.assert_allclose(w.grad, [0.25])


@pytest.mark.parametrize("op", [
    "add", "sub", "mul", "div", "max_elementwise",
])
def test_binary_elementwise_grads(op, rng):
    x = rng.standard_normal((2, 3, 4, 4))
    y = rng.standard_normal((2, 3, 4, 4)) + 3.0   # keep div well away from 0
    w = rng.standard_normal((2, 3, 4, 4))
    fn = getattr(T, {"max_elementwise": "max_elementwise"}.get(op, op))

    check_op(lambda t: T.reduce_sum(fn(t, Tensor(y)) * Tensor(w)), x)
    check_op(lambda t: T.reduce_sum(fn(Tensor(y), t) * Tensor(w)), x)


def test_broadcast_grads(rng):
    x = rng.standard_normal((3, 1, 4))
    y = rng.standard_normal((2, 1, 5, 4))
    w = rng.standard_normal((2, 3, 5, 4))
    check_op(lambda t: T.reduce_sum((t + Tensor(y)) * Tensor(w)), x)
    check_op(lambda t: T.reduce_sum((t * Tensor(y)) * Tensor(w)), x)


@pytest.mark.parametrize("unary,domain", [
    (T.relu, "shifted"),
    (T.sigmoid, "any"),
    (T.gelu, "any"),
    (T.abs_, "shifted"),
    (lambda t: T.pow_(t, 3.0), "any"),
    (lambda t: T.pow_(t, 0.5), "positive"),
    (lambda t: T.softmax(t, axis=-1), "any"),
    (T.neg, "any"),
])
def test_unary_op_grads(unary, domain, rng):
    x = rng.standard_normal((2, 3, 4, 4))
    if domain == "positive":
        x = np.abs(x) + 0.5
    elif domain == "shifted":
        x = x + np.where(np.abs(x) < 0.05, 0.2, 0.0)  # avoid kinks at 0
    check_op(lambda t: weighted_sum(unary(t), np.random.default_rng(7)), x)


def test_matmul_grads(rng):
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 4))
    w = rng.standard_normal((3, 4))
    check_op(lambda t: T.reduce_sum(T.matmul(t, Tensor(b)) * Tensor(w)), a)
    check_op(lambda t: T.reduce_sum(T.matmul(Tensor(a), t) * Tensor(w)), b)


def test_batched_matmul_grads(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    w = rng.standard_normal((2, 3, 5))
    check_op(lambda t: T.reduce_sum(T.matmul(t, Tensor(b)) * Tensor(w)), a)
    check_op(lambda t: T.reduce_sum(T.matmul(Tensor(a), t) * Tensor(w)), b)
    shared = rng.standard_normal((4, 5))
    check_op(lambda t: T.reduce_sum(T.matmul(Tensor(a), t) * Tensor(w)), shared)


def test_matmul_bias_grads(rng):
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    g = rng.standard_normal((2, 3, 5))
    check_op(lambda t: T.reduce_sum(T.matmul(t, Tensor(w), Tensor(b)) * Tensor(g)), x)
    check_op(lambda t: T.reduce_sum(T.matmul(Tensor(x), t, Tensor(b)) * Tensor(g)), w)
    check_op(lambda t: T.reduce_sum(T.matmul(Tensor(x), Tensor(w), t) * Tensor(g)), b)


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_matmul_bias_equals_matmul_then_add_bitwise(lead, rng):
    """``matmul(x, w, b)`` is one node, but its output and all three
    gradients equal the matmul -> add chain bit for bit, for x of shape
    (N, d), (B, N, d) and a 4-D lead shape."""
    arrays = (rng.standard_normal(lead + (7, 6)), rng.standard_normal((6, 5)),
              rng.standard_normal(5))
    w = Tensor(rng.standard_normal(lead + (7, 5)))

    def run(op):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.reduce_sum(out * w).backward()
        return [out.data] + [t.grad for t in leaves]

    fused = run(T.matmul)
    chain = run(lambda x, wt, b: T.matmul(x, wt) + b)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_conv2d_grads(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    k = rng.standard_normal((2, 3, 3, 3))
    b = rng.standard_normal(2)
    w = rng.standard_normal((2, 2, 4, 4))

    check_op(lambda t: T.reduce_sum(T.conv2d(t, Tensor(k), Tensor(b), padding=1) * Tensor(w)), x)
    check_op(lambda t: T.reduce_sum(T.conv2d(Tensor(x), t, Tensor(b), padding=1) * Tensor(w)), k)
    check_op(lambda t: T.reduce_sum(T.conv2d(Tensor(x), Tensor(k), t, padding=1) * Tensor(w)), b)


def test_layer_norm_grads(rng):
    x = rng.standard_normal((5, 8))
    s = rng.standard_normal(8) + 1.0
    b = rng.standard_normal(8)
    w = rng.standard_normal((5, 8))
    check_op(lambda t: T.reduce_sum(T.layer_norm(t, Tensor(s), Tensor(b)) * Tensor(w)), x)
    check_op(lambda t: T.reduce_sum(T.layer_norm(Tensor(x), t, Tensor(b)) * Tensor(w)), s)
    check_op(lambda t: T.reduce_sum(T.layer_norm(Tensor(x), Tensor(s), t) * Tensor(w)), b)


def test_shape_op_grads(rng):
    x = rng.standard_normal((2, 3, 4))
    w1 = rng.standard_normal((4, 6))
    check_op(lambda t: T.reduce_sum(T.reshape(t, (4, 6)) * Tensor(w1)), x)
    w2 = rng.standard_normal((4, 2, 3))
    check_op(lambda t: T.reduce_sum(T.transpose(t, (2, 0, 1)) * Tensor(w2)), x)
    w3 = rng.standard_normal((2, 2, 4))
    check_op(lambda t: T.reduce_sum(t[:, 1:, :] * Tensor(w3)), x)
    w4 = rng.standard_normal((2, 4))
    check_op(lambda t: T.reduce_sum(T.reduce_mean(t, axis=1) * Tensor(w4)), x)


def test_concat_grads(rng):
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    w = rng.standard_normal((2, 5))
    check_op(lambda t: T.reduce_sum(T.concat([t, Tensor(b)], axis=1) * Tensor(w)), a)
    check_op(lambda t: T.reduce_sum(T.concat([Tensor(a), t], axis=1) * Tensor(w)), b)


def test_pad2d_grads(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((1, 2, 9, 7))
    check_op(lambda t: T.reduce_sum(T.pad2d(t, (2, 1), mode="zero") * Tensor(w)), x)
    check_op(lambda t: T.reduce_sum(T.pad2d(t, (2, 1), mode="reflect") * Tensor(w)), x)


def test_backward_is_linear(rng):
    """grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2), three random graphs."""
    for seed in (0, 1, 2):
        r = np.random.default_rng(seed)
        x0 = r.standard_normal((4, 4))
        a, b = 1.7, -0.6
        y = Tensor(r.standard_normal((4, 4)))

        def l1(t):
            return T.reduce_sum(T.sigmoid(t) * y)

        def l2(t):
            return T.reduce_mean(t * t * y)

        g1 = analytic_grad(l1, x0)
        g2 = analytic_grad(l2, x0)
        gc = analytic_grad(lambda t: a * l1(t) + b * l2(t), x0)
        np.testing.assert_allclose(gc, a * g1 + b * g2, atol=1e-9)


def test_grad_accumulates_until_zeroed(rng):
    w = Tensor(rng.standard_normal(3), requires_grad=True)
    T.reduce_sum(w * 2.0).backward()
    first = w.grad.copy()
    T.reduce_sum(w * 3.0).backward()
    np.testing.assert_allclose(w.grad, first + 3.0)
    w.zero_grad()
    assert w.grad is None


def test_backward_frees_each_output_once_its_children_have_run(rng):
    """A probe VJP near the leaf runs last; by then the walk must hold no
    output of the four sigmoid nodes above it."""
    x = Tensor(rng.standard_normal(64), requires_grad=True)
    alive = []

    def probe_vjp(g):
        alive.extend(ref() is not None for ref in refs)
        return (g,)

    h = Tensor._result("probe", x.data.copy(), (x,), probe_vjp)
    refs = []
    for _ in range(4):
        h = T.sigmoid(h * 1.5)
        refs.append(weakref.ref(h.data))
    loss = T.reduce_sum(h)
    del h
    loss.backward()
    assert alive == [False] * 4
    assert x.grad.shape == (64,)


def test_no_grad_skips_tape(rng):
    w = Tensor(rng.standard_normal(3), requires_grad=True)
    with T.no_grad():
        y = T.reduce_sum(w * w)
    assert y._vjp is None and not y.requires_grad


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_attention_grads(lead, rng):
    q = rng.standard_normal(lead + (4, 3))
    kt = rng.standard_normal(lead + (3, 5))
    v = rng.standard_normal(lead + (5, 2))
    w = Tensor(rng.standard_normal(lead + (4, 2)))
    check_op(lambda t: T.reduce_sum(T.attention(t, Tensor(kt), Tensor(v)) * w), q)
    check_op(lambda t: T.reduce_sum(T.attention(Tensor(q), t, Tensor(v)) * w), kt)
    check_op(lambda t: T.reduce_sum(T.attention(Tensor(q), Tensor(kt), t) * w), v)


def test_attention_vjp_allocates_one_score_temporary(rng, monkeypatch):
    """Forward plus VJP at lead (2, 3), N = 512, with chunks of a sixteenth
    of the dense scores, peak below four chunks: the forward's score chunk
    and the VJP's two chunk buffers are its only score-sized arrays."""
    lead, n, dh = (2, 3), 512, 4
    chunk_bytes = 8 * 2 * 3 * n * n // 16
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", chunk_bytes)
    q, kt, v = (Tensor(rng.standard_normal(lead + shape), requires_grad=True)
                for shape in ((n, dh), (dh, n), (n, dh)))
    g = rng.standard_normal(lead + (n, dh))
    tracemalloc.start()
    try:
        grads = T.attention(q, kt, v)._vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x.shape for x in grads] == [q.shape, kt.shape, v.shape]
    assert peak < 4 * chunk_bytes, f"peak {peak / chunk_bytes:.2f}x the chunk bytes"


def _traced_peak(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_attention_backward_peak_stays_below_one_dense_score_array(rng, monkeypatch):
    """Grad-mode forward plus backward at lead (3, 4), N = 256, with the
    budget at an eighth of the dense scores, peaks below one dense score
    array, both in a fresh thread (its chunk buffers not made yet) and
    again once they exist: on the shift-free branch, and with q and kt
    scaled x4 so that the bound sends them to the fallback."""
    lead, n, dh = (3, 4), 256, 8
    score_bytes = 8 * 3 * 4 * n * n
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", score_bytes // 8)
    arrays = [rng.standard_normal(lead + shape) for shape in ((n, dh), (dh, n), (n, dh))]
    w = Tensor(rng.standard_normal(lead + (n, dh)))
    for scale in (1.0, 4.0):
        q, kt, v = (Tensor(a * s, requires_grad=True)
                    for a, s in zip(arrays, (scale, scale, 1.0)))
        assert (T._shift_free_values(q.data, kt.data, v.data) is None) == (scale > 1.0)

        def step():
            T.reduce_sum(T.attention(q, kt, v) * w).backward()

        with ThreadPoolExecutor(1) as pool:
            fresh = pool.submit(_traced_peak, step).result()
        step()
        for peak in (fresh, _traced_peak(step)):
            assert peak < score_bytes, f"peak {peak / score_bytes:.2f}x the dense score bytes"


def _fused_and_chain(arrays, w):
    """Output and three gradients of T.attention and of the unfused chain."""
    def run(op):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.reduce_sum(out * w).backward()
        return [out.data] + [t.grad for t in leaves]

    return (run(T.attention),
            run(lambda q, kt, v: T.matmul(T.softmax(T.matmul(q, kt), axis=-1), v)))


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_attention_matches_unfused_chain(lead, rng):
    """Output and gradients equal matmul -> softmax -> matmul up to rounding:
    the shift-free forward divides the output instead of the probabilities,
    and the fused VJP takes the softmax row sums from the output."""
    arrays = (rng.standard_normal(lead + (6, 4)), rng.standard_normal(lead + (4, 9)),
              rng.standard_normal(lead + (9, 5)))
    fused, chain = _fused_and_chain(arrays, Tensor(rng.standard_normal(lead + (6, 5))))
    for got, want in zip(fused, chain):
        _assert_close(got, want)


@pytest.mark.parametrize("q_lead, kv_lead", [((2, 3), (2, 3)), ((1, 3), (1, 3)), ((), ())])
def test_chunked_attention_matches_unfused_chain(q_lead, kv_lead, rng, monkeypatch):
    """13 query rows in ragged chunks of 4 + 4 + 4 + 1: the output and all
    three gradients of the recomputing backward equal the unfused chain,
    also on a lead with a unit dim, as the model's cross-attention has."""
    nq, d, nkv, dv = 13, 4, 9, 5
    lead = q_lead
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * math.prod(lead) * nkv * 4)
    rows, real = [], T._attend

    def counted(q, *args, **kwargs):
        rows.append(q.shape[-2])
        return real(q, *args, **kwargs)

    monkeypatch.setattr(T, "_attend", counted)
    arrays = (rng.standard_normal(q_lead + (nq, d)), rng.standard_normal(kv_lead + (d, nkv)),
              rng.standard_normal(kv_lead + (nkv, dv)))
    fused, chain = _fused_and_chain(arrays, Tensor(rng.standard_normal(lead + (nq, dv))))
    assert rows == [4, 4, 4, 1]
    for got, want in zip(fused, chain):
        assert got.shape == want.shape
        _assert_close(got, want)


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_attention_lead_slices_equal_batched_chunks_bitwise(scale, rng, monkeypatch):
    """Each (stream, head) slice of a row chunk runs as its own 2-D problem,
    yet over ragged chunks of 4 rows the output equals the same kernel run
    on the whole batched chunk bit for bit, on the shift-free branch and
    (scale 40) on the fallback."""
    lead, nq, d, nkv, dv = (2, 3), 13, 4, 9, 5
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * math.prod(lead) * nkv * 4)
    q = rng.standard_normal(lead + (nq, d)) * scale
    kt = rng.standard_normal(lead + (d, nkv)) * scale
    v = rng.standard_normal(lead + (nkv, dv))
    v1 = T._shift_free_values(q, kt, v)
    assert (v1 is None) == (scale > 1.0)
    want = np.empty(lead + (nq, dv))
    for r in range(0, nq, 4):
        p = q[..., r:r + 4, :] @ kt
        if v1 is None:
            want[..., r:r + 4, :] = T._softmax(p) @ v
        else:
            ev = np.exp(p) @ v1
            want[..., r:r + 4, :] = ev[..., :-1] / ev[..., -1:]
    with T.no_grad():
        got = T.attention(Tensor(q), Tensor(kt), Tensor(v)).data
    np.testing.assert_array_equal(got, want)


def test_attention_backwards_on_many_threads_equal_serial_bitwise(rng, monkeypatch):
    """Each thread's backward has its own chunk buffers: four threads
    running chunked backwards at once give the serial gradients bit for
    bit."""
    lead, n, dh = (2,), 40, 4
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 2 * n * 8)
    inputs = [[rng.standard_normal(lead + shape) for shape in ((n, dh), (dh, n), (n, dh))]
              for _ in range(4)]

    def grads(arrays):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        T.reduce_sum(T.attention(*leaves)).backward()
        return [t.grad for t in leaves]

    def repeated(arrays):
        return [grads(arrays) for _ in range(20)]

    serial = [grads(arrays) for arrays in inputs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [f.result(timeout=60) for f in [pool.submit(repeated, a) for a in inputs]]
    finally:
        sys.setswitchinterval(switch)
    for want, got in zip(serial, runs):
        for rep in got:
            for a, b in zip(rep, want):
                np.testing.assert_array_equal(a, b)


def test_attention_with_large_scores_equals_chain_bitwise(rng):
    """Scores of +-900 would overflow exp without the max shift; the bound
    sends them to the chain's own kernel, bitwise equal in both modes."""
    q, kt = np.array([[30.0], [1.0]]), np.array([[30.0, -30.0]])
    v = rng.standard_normal((2, 3))
    assert np.abs(q @ kt).max() == 900.0
    fused, chain = _fused_and_chain((q, kt, v), Tensor(rng.standard_normal((2, 3))))
    np.testing.assert_array_equal(fused[0], chain[0])
    for got, want in zip(fused[1:], chain[1:]):
        _assert_close(got, want)
    with T.no_grad():
        inference = T.attention(Tensor(q), Tensor(kt), Tensor(v)).data
    np.testing.assert_array_equal(inference, chain[0])
