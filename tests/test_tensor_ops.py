import contextlib

import numpy as np
import pytest

from ivfuse import tensor as T
from ivfuse.tensor import GraphError, NonFiniteError, ShapeError, Tensor

from oracles import (conv2d_direct, gelu_formula, gelu_formula_vjp, layer_norm_formula,
                     layer_norm_formula_vjp, softmax_rows)


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.standard_normal((7, 13)) * 5)
    out = T.softmax(x, axis=-1)
    assert np.all(out.data >= 0.0)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-9)
    np.testing.assert_allclose(out.data, softmax_rows(x.data), atol=1e-12)


def test_conv2d_identity_kernel(rng):
    img = Tensor(rng.random((1, 1, 3, 3)))
    kernel = Tensor(np.ones((1, 1, 1, 1)))
    out = T.conv2d(img, kernel, padding=0)
    np.testing.assert_array_equal(out.data, img.data)


def test_conv2d_zero_kernel_gives_zero_plus_bias(rng):
    img = Tensor(rng.random((2, 3, 5, 5)))
    kernel = Tensor(np.zeros((4, 3, 3, 3)))
    out = T.conv2d(img, kernel, padding=1)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 5, 5)))
    bias = Tensor(np.arange(4.0))
    out = T.conv2d(img, kernel, bias, padding=1)
    np.testing.assert_allclose(out.data, np.broadcast_to(np.arange(4.0)[None, :, None, None], (2, 4, 5, 5)))


@pytest.mark.parametrize("padding", [0, 1, (2, 0)])
def test_conv2d_matches_direct_loop(rng, padding):
    x = rng.standard_normal((2, 3, 6, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding)
    np.testing.assert_allclose(out.data, conv2d_direct(x, w, b, padding=padding), atol=1e-12)


def test_sigmoid_relu_analytic_points():
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert T.relu(Tensor([-2.5])).data[0] == 0.0
    big = T.sigmoid(Tensor([800.0, -800.0]))
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-12)


def test_shape_error_names_op_and_dims():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    # a bias must broadcast to the product's (2, 4) without growing it
    for bias_shape in ((5,), (3, 1, 4)):
        with pytest.raises(ShapeError, match="matmul: bias"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                     Tensor(np.ones(bias_shape)))
    with pytest.raises(ShapeError, match="conv2d"):
        T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
    with pytest.raises(ShapeError, match="concat"):
        T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)
    q = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, Tensor(np.ones((4, 5))), Tensor(np.ones((5, 2))))
    with pytest.raises(ShapeError, match="attention"):
        T.attention(q, Tensor(np.ones((3, 5))), Tensor(np.ones((4, 2))))
    # zero keys and mismatched leads, in both modes; an empty lead dim is a
    # valid, empty result
    for grad in (True, False):
        with contextlib.nullcontext() if grad else T.no_grad():
            with pytest.raises(ShapeError, match="attention"):
                T.attention(Tensor(np.ones((2, 3)), requires_grad=grad),
                            Tensor(np.ones((3, 0))), Tensor(np.ones((0, 2))))
            for kv_lead in ((), (1,), (3,)):
                with pytest.raises(ShapeError, match="attention"):
                    T.attention(Tensor(np.ones((2, 2, 3)), requires_grad=grad),
                                Tensor(np.ones(kv_lead + (3, 4))),
                                Tensor(np.ones(kv_lead + (4, 2))))
            empty = T.attention(Tensor(np.ones((0, 2, 3)), requires_grad=grad),
                                Tensor(np.ones((0, 3, 4))), Tensor(np.ones((0, 4, 2))))
            assert empty.shape == (0, 2, 2)


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_non_finite_intermediate_rejected():
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="mul"):
            big * big


def test_matmul_bias_overflow_names_matmul():
    """The bias is added inside the ``matmul`` node: a finite product plus a
    finite bias that overflows to inf raises NonFiniteError naming it."""
    x, w = Tensor([[1e308, 1.0]]), Tensor([[1.0], [0.0]])
    assert np.isfinite(T.matmul(x, w).data).all()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="matmul"):
            T.matmul(x, w, Tensor([1e308]))


@pytest.mark.parametrize("grad", [True, False])
@pytest.mark.parametrize("case, q, kt", [
    # 1e200 * 1e200 overflows to +inf
    ("+inf", [[1e200], [1.0]], [[1e200, 1.0]]),
    # row 0 scores (-inf, 1e200): its max is finite, only its min shows -inf
    ("-inf", [[1e200], [1.0]], [[-1e200, 1.0]]),
    # a NaN query (written past the input check) makes row 0 NaN
    ("nan", [[np.nan], [1.0]], [[1.0, 2.0]]),
])
def test_attention_rejects_non_finite_scores(grad, case, q, kt):
    q, kt = np.array(q), np.array(kt)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = q @ kt
        assert {"+inf": np.isposinf, "-inf": np.isneginf, "nan": np.isnan}[case](scores).any()
        if case == "-inf":
            assert np.isfinite(scores.max(axis=-1)).all()
        qt = Tensor(np.zeros(q.shape), requires_grad=grad)
        qt.data[...] = q
        v = Tensor(np.ones((kt.shape[1], 2)))
        with pytest.raises(NonFiniteError, match="attention"):
            if grad:
                T.attention(qt, Tensor(kt), v)
            else:
                with T.no_grad():
                    T.attention(qt, Tensor(kt), v)


@pytest.mark.parametrize("name", ["gelu", "layer_norm"])
def test_gelu_and_layer_norm_build_in_their_own_buffers(name, rng):
    """GELU and layer_norm fill only arrays of their own: read-only operands
    and a read-only output gradient keep their bytes, with or without a
    tape. Output and gradients equal the plain formulas bit for bit."""
    arrays = [rng.standard_normal(shape) * 3.0 for shape in ((2, 5, 8), (8,), (8,), (2, 5, 8))]
    for a in arrays:
        a.setflags(write=False)
    g = arrays.pop()
    if name == "gelu":
        arrays = arrays[:1]
        formula, formula_vjp = gelu_formula, gelu_formula_vjp
    else:
        formula, formula_vjp = layer_norm_formula, layer_norm_formula_vjp
    before = [a.tobytes() for a in arrays + [g]]
    op = getattr(T, name)
    with T.no_grad():
        inference = op(*(Tensor(a) for a in arrays))
    taped = op(*(Tensor(a, requires_grad=True) for a in arrays))
    grads = taped._vjp(g)
    assert inference._vjp is None
    assert [a.tobytes() for a in arrays + [g]] == before
    want = formula(*arrays)
    np.testing.assert_array_equal(inference.data, want)
    np.testing.assert_array_equal(taped.data, want)
    for got, expected in zip(grads, formula_vjp(g, *arrays), strict=True):
        np.testing.assert_array_equal(got, expected)


def test_item_needs_exactly_one_element():
    assert Tensor([[2.5]]).item() == 2.5
    for shape in ((2,), (0,), (1, 3)):
        with pytest.raises(ShapeError, match="item"):
            Tensor(np.ones(shape)).item()


def test_concat_and_slice_round_trip(rng):
    a, b = rng.random((3, 4)), rng.random((2, 4))
    cat = T.concat([Tensor(a), Tensor(b)], axis=0)
    np.testing.assert_array_equal(cat.data[:3], a)
    np.testing.assert_array_equal(cat[3:].data, b)


def test_reshape_transpose_reductions(rng):
    x = rng.random((2, 3, 4))
    t = Tensor(x)
    np.testing.assert_array_equal(T.reshape(t, (6, 4)).data, x.reshape(6, 4))
    np.testing.assert_array_equal(T.transpose(t, (2, 0, 1)).data, x.transpose(2, 0, 1))
    np.testing.assert_allclose(T.reduce_sum(t, axis=1).data, x.sum(axis=1))
    np.testing.assert_allclose(T.reduce_mean(t).data, x.mean())


def test_max_elementwise_and_abs(rng):
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    np.testing.assert_array_equal(T.max_elementwise(Tensor(a), Tensor(b)).data, np.maximum(a, b))
    np.testing.assert_array_equal(T.abs_(Tensor(a)).data, np.abs(a))


def test_pad2d_reflect_matches_numpy(rng):
    x = rng.random((2, 1, 5, 6))
    out = T.pad2d(Tensor(x), (2, 1), mode="reflect")
    np.testing.assert_array_equal(out.data, np.pad(x, [(0, 0), (0, 0), (2, 2), (1, 1)], mode="reflect"))
    out = T.pad2d(Tensor(x), 1, mode="zero")
    np.testing.assert_array_equal(out.data, np.pad(x, [(0, 0), (0, 0), (1, 1), (1, 1)]))


def test_backward_requires_scalar_and_graph(rng):
    w = Tensor(rng.random((3,)), requires_grad=True)
    y = w * w
    with pytest.raises(GraphError, match="scalar"):
        y.backward()
    plain = Tensor([2.0])
    with pytest.raises(GraphError, match="graph"):
        plain.backward()
    loss = T.reduce_sum(y)
    loss.backward()
    with pytest.raises(GraphError, match="freed"):
        loss.backward()
    # a new graph over a freed node raises too, before any grad changes
    x = Tensor([1.0], requires_grad=True)
    y = x * 2
    T.reduce_sum(y).backward()
    with pytest.raises(GraphError, match="freed"):
        T.reduce_sum(y * 3).backward()
    assert x.grad.tolist() == [2.0] and y.grad is None
