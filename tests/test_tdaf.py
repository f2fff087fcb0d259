import numpy as np
import pytest

from ivfuse import rng as ivrng
from ivfuse.sig import TextSemantics
from ivfuse.tdaf import (GateMaps, TextFusionParams, compute_gates,
                         concat_reconstruction, gated_fusion, grid_to_tokens,
                         spatial_attention, text_informed_reconstruction,
                         tokens_to_grid)
from ivfuse.tensor import ShapeError, Tensor

from oracles import conv2d_direct, cross_attention_brute


def make_params(dim=8, heads=2, text_dim=6, seed=0, use_text=True, gate_kernel=3):
    return TextFusionParams(dim, heads, text_dim, name="tdaf",
                            rng=ivrng.derive(seed, "tdaf"), gate_kernel=gate_kernel,
                            use_text=use_text)


def ca_raw_params(ca):
    return (ca.w_q.weight.data, ca.w_q.bias.data, ca.w_k.weight.data, ca.w_k.bias.data,
            ca.w_v.weight.data, ca.w_v.bias.data, ca.w_o.weight.data, ca.w_o.bias.data,
            ca.heads)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_grid_round_trip(rng):
    tokens = rng.standard_normal((12, 5))
    grid = tokens_to_grid(Tensor(tokens), (3, 4))
    assert grid.shape == (1, 5, 3, 4)
    np.testing.assert_array_equal(grid_to_tokens(grid).data, tokens)
    with pytest.raises(ShapeError):
        tokens_to_grid(Tensor(tokens), (5, 5))


# -- text-informed reconstruction ------------------------------------------------


def test_single_text_token_dominates(rng):
    params = make_params()
    token = rng.standard_normal((1, 6))
    text = TextSemantics(token)
    fvi = Tensor(rng.standard_normal((10, 8)))
    fiv = Tensor(rng.standard_normal((10, 8)))
    out = text_informed_reconstruction(fvi, fiv, text, params)
    projected = token @ params.text_proj.weight.data + params.text_proj.bias.data
    value = projected @ params.ca.w_v.weight.data + params.ca.w_v.bias.data
    want = value @ params.ca.w_o.weight.data + params.ca.w_o.bias.data
    np.testing.assert_allclose(out.data, np.repeat(want, 10, axis=0), atol=1e-12)


def test_text_token_permutation_invariance(rng):
    params = make_params()
    emb = rng.standard_normal((5, 6))
    fvi = Tensor(rng.standard_normal((7, 8)))
    fiv = Tensor(rng.standard_normal((7, 8)))
    base = text_informed_reconstruction(fvi, fiv, TextSemantics(emb), params).data
    perm = rng.permutation(5)
    shuffled = text_informed_reconstruction(fvi, fiv, TextSemantics(emb[perm]), params).data
    np.testing.assert_allclose(shuffled, base, atol=1e-12)


def test_reconstruction_matches_brute_force(rng):
    params = make_params()
    emb = rng.standard_normal((4, 6))
    fvi = rng.standard_normal((5, 8))
    fiv = rng.standard_normal((5, 8))
    out = text_informed_reconstruction(Tensor(fvi), Tensor(fiv), TextSemantics(emb), params)
    queries = np.concatenate([fvi, fiv], axis=1)
    kv = emb @ params.text_proj.weight.data + params.text_proj.bias.data
    want = cross_attention_brute(queries, kv, ca_raw_params(params.ca))
    np.testing.assert_allclose(out.data, want, atol=1e-9)


def test_text_width_mismatch_rejected(rng):
    params = make_params(text_dim=6)
    with pytest.raises(ShapeError, match="text width"):
        text_informed_reconstruction(Tensor(rng.standard_normal((3, 8))),
                                     Tensor(rng.standard_normal((3, 8))),
                                     TextSemantics(rng.standard_normal((2, 9))), params)


def test_concat_route_requires_matching_params(rng):
    text_params = make_params(use_text=True)
    with pytest.raises(ValueError):
        concat_reconstruction(Tensor(rng.standard_normal((3, 8))),
                              Tensor(rng.standard_normal((3, 8))), text_params)
    plain = make_params(use_text=False)
    out = concat_reconstruction(Tensor(rng.standard_normal((3, 8))),
                                Tensor(rng.standard_normal((3, 8))), plain)
    assert out.shape == (3, 8)
    with pytest.raises(ValueError):
        text_informed_reconstruction(Tensor(rng.standard_normal((3, 8))),
                                     Tensor(rng.standard_normal((3, 8))),
                                     TextSemantics(rng.standard_normal((2, 6))), plain)


# -- gates -------------------------------------------------------------------------


def test_zero_gate_conv_gives_half(rng):
    params = make_params()
    for conv in (params.gate_conv_v, params.gate_conv_i):
        conv.weight.data = np.zeros_like(conv.weight.data)
        conv.bias.data = np.zeros_like(conv.bias.data)
    n, d = 12, 8
    g_v, g_i = compute_gates(Tensor(rng.standard_normal((n, d))),
                             Tensor(rng.standard_normal((n, d))),
                             Tensor(rng.standard_normal((n, d))),
                             Tensor(rng.standard_normal((n, d))),
                             params, (3, 4))
    np.testing.assert_array_equal(g_v.data, np.full((n, d), 0.5))
    np.testing.assert_array_equal(g_i.data, np.full((n, d), 0.5))


def test_gate_saturation_at_large_preactivation(rng):
    params = make_params()
    for conv in (params.gate_conv_v, params.gate_conv_i):
        conv.weight.data = np.zeros_like(conv.weight.data)
    params.gate_conv_v.bias.data = np.full(8, 20.0)
    params.gate_conv_i.bias.data = np.full(8, -20.0)
    g_v, g_i = compute_gates(*(Tensor(rng.standard_normal((12, 8))) for _ in range(4)),
                             params, (3, 4))
    assert np.all(np.abs(g_v.data - 1.0) < 1e-8)
    assert np.all(np.abs(g_i.data - 0.0) < 1e-8)


def test_gates_match_direct_conv_oracle(rng):
    params = make_params()
    n, d, grid = 12, 8, (3, 4)
    fv, fvi, fi, fiv = (rng.standard_normal((n, d)) for _ in range(4))
    g_v, g_i = compute_gates(Tensor(fv), Tensor(fvi), Tensor(fi), Tensor(fiv), params, grid)

    def oracle(tokens, conv):
        grid_in = tokens.reshape(3, 4, d).transpose(2, 0, 1)[None]
        out = conv2d_direct(grid_in, conv.weight.data, conv.bias.data, 1, 1)
        return sigmoid(out[0].transpose(1, 2, 0).reshape(n, d))

    np.testing.assert_allclose(g_v.data, oracle(fv + fvi, params.gate_conv_v), atol=1e-9)
    np.testing.assert_allclose(g_i.data, oracle(fi + fiv, params.gate_conv_i), atol=1e-9)


def test_gate_grid_mismatch_rejected(rng):
    params = make_params()
    with pytest.raises(ShapeError):
        compute_gates(*(Tensor(rng.standard_normal((12, 8))) for _ in range(4)),
                      params, (5, 5))


# -- spatial attention -----------------------------------------------------------


def test_zero_weights_give_half_alpha(rng):
    params = make_params()
    for conv in (params.sa_conv1, params.sa_conv2):
        conv.weight.data = np.zeros_like(conv.weight.data)
        conv.bias.data = np.zeros_like(conv.bias.data)
    alpha = spatial_attention(Tensor(rng.standard_normal((12, 8))), params, (3, 4))
    np.testing.assert_array_equal(alpha.data, np.full((12, 1), 0.5))


def test_alpha_strictly_inside_unit_interval(rng):
    params = make_params()
    alpha = spatial_attention(Tensor(rng.standard_normal((12, 8)) * 50), params, (3, 4))
    assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)
    assert alpha.shape == (12, 1)


def test_spatial_attention_matches_two_layer_oracle(rng):
    params = make_params()
    fr = rng.standard_normal((12, 8))
    alpha = spatial_attention(Tensor(fr), params, (3, 4))
    grid_in = fr.reshape(3, 4, 8).transpose(2, 0, 1)[None]
    hid = conv2d_direct(grid_in, params.sa_conv1.weight.data, params.sa_conv1.bias.data, 1, 1)
    hid = np.maximum(hid, 0.0)
    out = conv2d_direct(hid, params.sa_conv2.weight.data, params.sa_conv2.bias.data, 1, 1)
    want = sigmoid(out[0].transpose(1, 2, 0).reshape(12, 1))
    np.testing.assert_allclose(alpha.data, want, atol=1e-9)


# -- gated fusion -------------------------------------------------------------------


def maps(alpha, g_v, g_i, n=6, d=4):
    return GateMaps(g_v=Tensor(np.full((n, d), g_v)), g_i=Tensor(np.full((n, d), g_i)),
                    alpha=Tensor(np.full((n, 1), alpha)))


def test_visible_only_branch(rng):
    fv, fvi, fi, fiv = (Tensor(rng.standard_normal((6, 4))) for _ in range(4))
    out = gated_fusion(fv, fvi, fi, fiv, maps(alpha=1.0, g_v=0.0, g_i=0.7))
    np.testing.assert_array_equal(out.data, fv.data + fvi.data)


def test_infrared_only_branch(rng):
    fv, fvi, fi, fiv = (Tensor(rng.standard_normal((6, 4))) for _ in range(4))
    out = gated_fusion(fv, fvi, fi, fiv, maps(alpha=0.0, g_v=0.3, g_i=0.0))
    np.testing.assert_array_equal(out.data, fi.data + fiv.data)


def test_symmetric_algebra(rng):
    x = rng.standard_normal((6, 4))
    zero = Tensor(np.zeros((6, 4)))
    g = 0.37
    out = gated_fusion(Tensor(x), zero, Tensor(x), zero, maps(alpha=0.5, g_v=g, g_i=g))
    np.testing.assert_allclose(out.data, (1.0 + g) * x, atol=1e-12)


def test_matches_elementwise_oracle(rng):
    fv, fvi, fi, fiv = (rng.standard_normal((6, 4)) for _ in range(4))
    alpha = rng.random((6, 1))
    g_v = rng.random((6, 4))
    g_i = rng.random((6, 4))
    out = gated_fusion(Tensor(fv), Tensor(fvi), Tensor(fi), Tensor(fiv),
                       GateMaps(Tensor(g_v), Tensor(g_i), Tensor(alpha)))
    want = alpha * (1 + g_v) * (fv + fvi) + (1 - alpha) * (1 + g_i) * (fi + fiv)
    np.testing.assert_allclose(out.data, want, atol=1e-9)


def test_affine_superposition_in_each_branch(rng):
    """With gates fixed, the output is affine in each branch sum."""
    gates = GateMaps(Tensor(rng.random((6, 4))), Tensor(rng.random((6, 4))),
                     Tensor(rng.random((6, 1))))
    zero = Tensor(np.zeros((6, 4)))
    a1, a2 = (Tensor(rng.standard_normal((6, 4))) for _ in range(2))
    b = Tensor(rng.standard_normal((6, 4)))
    lhs = gated_fusion(a1 + a2, zero, b, zero, gates).data
    rhs = (gated_fusion(a1, zero, b, zero, gates).data
           + gated_fusion(a2, zero, b, zero, gates).data
           - gated_fusion(zero, zero, b, zero, gates).data)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
    lhs_ir = gated_fusion(b, zero, a1 + a2, zero, gates).data
    rhs_ir = (gated_fusion(b, zero, a1, zero, gates).data
              + gated_fusion(b, zero, a2, zero, gates).data
              - gated_fusion(b, zero, zero, zero, gates).data)
    np.testing.assert_allclose(lhs_ir, rhs_ir, atol=1e-9)


def test_alpha_interpolates_monotonically(rng):
    fv, fvi, fi, fiv = (rng.standard_normal((6, 4)) for _ in range(4))
    g_v, g_i = rng.random((6, 4)), rng.random((6, 4))
    vis_branch = (1 + g_v) * (fv + fvi)
    ir_branch = (1 + g_i) * (fi + fiv)
    previous = None
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = gated_fusion(Tensor(fv), Tensor(fvi), Tensor(fi), Tensor(fiv),
                           GateMaps(Tensor(g_v), Tensor(g_i), Tensor(np.full((6, 1), a)))).data
        np.testing.assert_allclose(out, a * vis_branch + (1 - a) * ir_branch, atol=1e-12)
        if previous is not None:
            step = out - previous
            direction = np.sign(vis_branch - ir_branch)
            assert np.all(step * direction >= -1e-12)
        previous = out


def test_gated_fusion_shape_errors(rng):
    fv, fvi, fi, fiv = (Tensor(rng.standard_normal((6, 4))) for _ in range(4))
    with pytest.raises(ShapeError, match="alpha"):
        gated_fusion(fv, fvi, fi, fiv, GateMaps(Tensor(np.zeros((6, 4))),
                                                Tensor(np.zeros((6, 4))),
                                                Tensor(np.zeros((6, 4)))))
