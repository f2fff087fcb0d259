import tracemalloc

import numpy as np
import pytest

from ivfuse import rng as ivrng
from ivfuse import tensor as T
from ivfuse.blocks import (CrossAttention, Encoder, PatchEmbed, PatchUnembed,
                           TransformerBlock)
from ivfuse.tensor import ShapeError, Tensor

from oracles import cross_attention_brute, max_relative_error, numeric_gradient


def make_ca(d_q, dim, heads, seed=0):
    return CrossAttention(d_q, dim, heads, name="ca", rng=ivrng.derive(seed, "ca"))


def set_identity(ca):
    for lin in (ca.w_q, ca.w_k, ca.w_v, ca.w_o):
        lin.weight.data = np.eye(*lin.weight.shape)
        lin.bias.data = np.zeros_like(lin.bias.data)


def ca_raw_params(ca):
    return (ca.w_q.weight.data, ca.w_q.bias.data, ca.w_k.weight.data, ca.w_k.bias.data,
            ca.w_v.weight.data, ca.w_v.bias.data, ca.w_o.weight.data, ca.w_o.bias.data,
            ca.heads)


def test_single_key_identity_projection(rng):
    ca = make_ca(4, 4, 1)
    set_identity(ca)
    kv = rng.standard_normal((1, 4))
    q = rng.standard_normal((3, 4))
    out = ca(Tensor(q), Tensor(kv))
    np.testing.assert_allclose(out.data, np.repeat(kv, 3, axis=0), atol=1e-12)


def test_duplicate_keys_average_to_same_token(rng):
    ca = make_ca(4, 4, 1)
    set_identity(ca)
    token = rng.standard_normal((1, 4))
    kv = np.repeat(token, 2, axis=0)
    out = ca(Tensor(rng.standard_normal((2, 4))), Tensor(kv))
    np.testing.assert_allclose(out.data, np.repeat(token, 2, axis=0), atol=1e-12)


def test_matches_brute_force_per_head(rng):
    ca = make_ca(4, 4, 2)
    q = rng.standard_normal((3, 4))
    kv = rng.standard_normal((5, 4))
    out = ca(Tensor(q), Tensor(kv))
    want = cross_attention_brute(q, kv, ca_raw_params(ca))
    np.testing.assert_allclose(out.data, want, atol=1e-9)


def test_rectangular_widths_match_brute_force(rng):
    ca = make_ca(6, 8, 4)
    q = rng.standard_normal((2, 6))
    kv = rng.standard_normal((7, 8))
    out = ca(Tensor(q), Tensor(kv))
    want = cross_attention_brute(q, kv, ca_raw_params(ca))
    np.testing.assert_allclose(out.data, want, atol=1e-9)
    assert out.shape == (2, 8)


def test_width_mismatch_rejected(rng):
    ca = make_ca(4, 4, 2)
    with pytest.raises(ShapeError, match="cross_attention"):
        ca(Tensor(rng.standard_normal((3, 5))), Tensor(rng.standard_normal((4, 4))))


def test_attention_rows_sum_to_one(rng):
    ca = make_ca(4, 8, 4)
    w = ca.attention_weights(Tensor(rng.standard_normal((5, 4))),
                             Tensor(rng.standard_normal((6, 8))))
    assert w.shape == (4, 5, 6)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((4, 5)), atol=1e-9)


def test_batched_attention_weights_match_per_sample(rng):
    ca = make_ca(4, 8, 4)
    q = rng.standard_normal((3, 5, 4))
    kv = rng.standard_normal((3, 6, 8))
    w = ca.attention_weights(Tensor(q), Tensor(kv))
    assert w.shape == (3, 4, 5, 6)
    for i in range(3):
        np.testing.assert_array_equal(w[i], ca.attention_weights(Tensor(q[i]), Tensor(kv[i])))


def test_query_permutation_equivariance(rng):
    ca = make_ca(4, 8, 2)
    q = rng.standard_normal((5, 4))
    kv = rng.standard_normal((6, 8))
    perm = rng.permutation(5)
    out = ca(Tensor(q), Tensor(kv)).data
    out_p = ca(Tensor(q[perm]), Tensor(kv)).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_kv_permutation_invariance(rng):
    ca = make_ca(4, 8, 2)
    q = rng.standard_normal((5, 4))
    kv = rng.standard_normal((6, 8))
    perm = rng.permutation(6)
    out = ca(Tensor(q), Tensor(kv)).data
    out_p = ca(Tensor(q), Tensor(kv[perm])).data
    np.testing.assert_allclose(out_p, out, atol=1e-12)


# -- chunked inference attention ---------------------------------------------

CHUNK_ROWS = 4


def score_sizes(monkeypatch, nkv, budget=None):
    """Wrap T._attend: record the size of each score tile q @ kt the
    attention op builds for one lead slice of a row chunk (N_kv columns),
    and check it against ``budget`` when one is given."""
    sizes = []
    real = T._attend

    def wrapped(q, kt, *args, **kwargs):
        real(q, kt, *args, **kwargs)
        assert kt.shape[-1] == nkv
        sizes.append(8 * q.shape[-2] * nkv)
        assert budget is None or sizes[-1] <= budget

    monkeypatch.setattr(T, "_attend", wrapped)
    return sizes


@pytest.mark.parametrize("batch, nq, nkv", [
    ((), 11, 7),        # ragged last chunk, unbatched
    ((3,), 11, 7),      # batched
    ((2,), 13, 40),     # more keys than queries
    ((), 10, 1),        # a single KV token
])
def test_chunked_inference_matches_dense(rng, monkeypatch, batch, nq, nkv):
    ca = make_ca(6, 4, 2)
    q = Tensor(rng.standard_normal(batch + (nq, 6)))
    kv = Tensor(rng.standard_normal(batch + (nkv, 4)))
    with T.no_grad():
        dense = ca(q, kv).data
    budget = 8 * nkv * CHUNK_ROWS
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", budget)
    sizes = score_sizes(monkeypatch, nkv, budget)
    with T.no_grad():
        chunked = ca(q, kv).data
    assert len(sizes) == -(-nq // CHUNK_ROWS)
    assert chunked.shape == dense.shape == batch + (nq, 4)
    np.testing.assert_allclose(chunked, dense, rtol=0, atol=1e-12)


def test_grad_mode_attention_runs_in_chunks(rng, monkeypatch):
    """With a tape both branches build the same row chunks as inference,
    each within the budget: 9 rows as 4 + 4 + 1, with the stock weights
    (shift-free) and with the q and k weights scaled x1000 (fallback)."""
    ca = make_ca(4, 8, 2)
    row_bytes = 8 * 7
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", row_bytes * CHUNK_ROWS)
    sizes = score_sizes(monkeypatch, 7, row_bytes * CHUNK_ROWS)
    q = Tensor(rng.standard_normal((2, 9, 4)), requires_grad=True)
    kv = Tensor(rng.standard_normal((2, 7, 8)))
    for scale in (1.0, 1000.0):
        for lin in (ca.w_q, ca.w_k):
            lin.weight.data = lin.weight.data * scale
        with T.no_grad():
            heads = [t.data for t in ca._heads(q, kv)[:3]]
        assert (T._shift_free_values(*heads) is None) == (scale > 1.0)
        sizes.clear()
        out = ca(q, kv)
        assert sizes == [row_bytes * 4, row_bytes * 4, row_bytes]
        q.grad = None
        T.reduce_sum(out).backward()
        assert q.grad.shape == q.shape and np.isfinite(q.grad).all()


def retained_arrays(out):
    """Every ndarray the tape behind ``out`` keeps alive: node values and
    whatever the VJP closures captured (arrays, or tensors' values)."""
    arrays, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays[id(node.data)] = node.data
        for cell in getattr(node._vjp, "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value
            elif isinstance(value, Tensor):
                stack.append(value)
        stack.extend(node._parents)
    return list(arrays.values())


@pytest.mark.parametrize("batch", [(), (2,)])
def test_attention_tape_keeps_no_score_array(rng, batch):
    """Neither branch's tape keeps an N_q x N_kv array: not with the stock
    weights (shift-free), and not with the q and k weights scaled x1000,
    whose large scores take the fallback. The weights' rows still sum to
    one there."""
    nq, nkv = 5, 7
    ca = make_ca(6, 6, 2)
    q = Tensor(rng.standard_normal(batch + (nq, 6)), requires_grad=True)
    kv = Tensor(rng.standard_normal(batch + (nkv, 6)))

    def square():
        return [a for a in retained_arrays(ca(q, kv)) if a.shape[-2:] == (nq, nkv)]

    assert square() == []
    for lin in (ca.w_q, ca.w_k):
        lin.weight.data = lin.weight.data * 1000.0
    with T.no_grad():
        heads = ca._heads(q, kv)[:3]
    assert T._shift_free_values(*(t.data for t in heads)) is None
    assert square() == []
    np.testing.assert_allclose(ca.attention_weights(q, kv).sum(axis=-1),
                               np.ones(batch + (2, nq)), atol=1e-12)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_attention_tape_keeps_one_head_layout_kv_array(rng, batch):
    """The keys go to (..., h, d_h, N_kv) in one transpose, so the tape keeps
    one (..., h, N_kv, d_h) array, the heads of v, and no such copy of k."""
    nq, nkv, heads = 5, 7, 2
    ca = make_ca(6, 6, heads)
    q = Tensor(rng.standard_normal(batch + (nq, 6)), requires_grad=True)
    kv = Tensor(rng.standard_normal(batch + (nkv, 6)))
    kept = [a for a in retained_arrays(ca(q, kv)) if a.shape == batch + (heads, nkv, 3)]
    assert len(kept) == 1


def make_block(dim=6, heads=2, seed=3):
    return TransformerBlock(dim, heads, name="blk", rng=ivrng.derive(seed, "blk"))


def zero_block(block):
    for p in block.parameters():
        if not p.name.endswith("norm_attn.scale") and not p.name.endswith("norm_ffn.scale"):
            p.data = np.zeros_like(p.data)


def test_block_tape_keeps_no_pre_bias_product(rng):
    """A grad-mode TransformerBlock keeps no Linear's x @ W apart from
    x @ W + b, and three FFN-hidden-shaped arrays (the inner Linear's
    output, GELU's CDF and its output) where matmul then add kept four."""
    dim, n = 6, 5
    block = make_block(dim=dim)
    for p in block.parameters():       # nonzero biases set x @ W apart from x @ W + b
        p.data = p.data + 0.5 * rng.standard_normal(p.data.shape)
    kept = retained_arrays(block(Tensor(rng.standard_normal((2, n, dim)), requires_grad=True)))
    assert len([a for a in kept if a.shape == (2, n, 4 * dim)]) == 3
    linears = (block.attn.w_q, block.attn.w_k, block.attn.w_v, block.attn.w_o,
               block.ffn.inner, block.ffn.outer)
    for lin in linears:
        b = lin.bias.data
        same = [a for a in kept if a.shape[-1:] == b.shape]
        for product in same:
            assert not any(np.array_equal(product + b, a) for a in same), lin.bias.name


def test_zeroed_block_is_identity(rng):
    block = make_block()
    zero_block(block)
    x = rng.standard_normal((5, 6))
    np.testing.assert_array_equal(block(Tensor(x)).data, x)


@pytest.mark.parametrize("n", [1, 576])
def test_block_preserves_shape(rng, n):
    block = TransformerBlock(64, 4, name="blk", rng=ivrng.derive(0, "shape"))
    x = rng.standard_normal((n, 64))
    assert block(Tensor(x)).shape == (n, 64)


def test_block_gradient_matches_finite_differences(rng):
    block = make_block(dim=4, heads=2)
    x0 = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))

    def run(arr):
        return T.reduce_sum(block(Tensor(arr)) * Tensor(w))

    xt = Tensor(x0, requires_grad=True)
    T.reduce_sum(block(xt) * Tensor(w)).backward()
    want = numeric_gradient(lambda arr: run(arr).item(), x0)
    assert max_relative_error(xt.grad, want) < 1e-3


def test_patch_embed_p1_identity(rng):
    pe = PatchEmbed(3, 1, 3, name="pe", rng=ivrng.derive(0, "pe"))
    pe.proj.weight.data = np.eye(3)
    pe.proj.bias.data = np.zeros(3)
    img = rng.standard_normal((3, 2, 4))
    tokens = pe(Tensor(img)).data
    np.testing.assert_allclose(tokens, img.transpose(1, 2, 0).reshape(8, 3), atol=1e-15)


def test_patch_count_for_96():
    pe = PatchEmbed(3, 4, 64, name="pe", rng=ivrng.derive(0, "pe96"))
    tokens = pe(Tensor(np.zeros((3, 96, 96))))
    assert tokens.shape == (576, 64)


def test_batched_patch_embed_equals_per_sample_bitwise(rng):
    pe = PatchEmbed(3, 4, 16, name="pe", rng=ivrng.derive(0, "pebatch"))
    batch = rng.random((3, 3, 12, 16))
    tokens = pe(Tensor(batch)).data
    assert tokens.shape == (3, 12, 16)
    np.testing.assert_array_equal(tokens, np.stack([pe(Tensor(img)).data for img in batch]))


def test_indivisible_dims_rejected():
    pe = PatchEmbed(1, 4, 8, name="pe", rng=ivrng.derive(0, "pediv"))
    with pytest.raises(ShapeError, match="divide"):
        pe(Tensor(np.zeros((1, 10, 12))))


def test_embed_unembed_inverse_pair(rng):
    """Hand-set mutually inverse projections reproduce the image exactly."""
    c, p, h, w = 2, 2, 4, 6
    d = c * p * p
    pe = PatchEmbed(c, p, d, name="pe", rng=ivrng.derive(0, "inv"))
    pu = PatchUnembed(d, p, c, name="pu", rng=ivrng.derive(1, "inv"))
    mat = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
    pe.proj.weight.data = mat
    pe.proj.bias.data = np.zeros(d)
    pu.proj.weight.data = np.linalg.inv(mat)
    pu.proj.bias.data = np.zeros(d)
    img = rng.standard_normal((c, h, w))
    back = pu(pe(Tensor(img)), h, w)
    np.testing.assert_allclose(back.data, img, atol=1e-10)


def test_encoder_runs_at_other_resolutions(rng):
    enc = Encoder(3, 4, 16, 4, 2, base_grid=(6, 6), name="enc", rng=ivrng.derive(0, "enc"))
    t24 = enc(Tensor(rng.random((3, 24, 24))))
    assert t24.shape == (36, 16)
    t32 = enc(Tensor(rng.random((3, 32, 32))))
    assert t32.shape == (64, 16)


def _traced(call):
    """``call()`` and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_grad_encoder_runs_one_image_at_a_time(rng):
    """Without a tape, a three-image batch equals three one-image calls
    concatenated, and the taped batched call, bit for bit, and its traced
    peak stays below 1.5x a one-image call's plus the output: only one
    image's activations are alive at once."""
    enc = Encoder(3, 4, 64, 4, 2, base_grid=(6, 6), name="enc", rng=ivrng.derive(0, "enc"))
    images = rng.random((3, 3, 48, 48))
    with T.no_grad():
        one, one_peak = _traced(lambda: enc(Tensor(images[:1])))
        batch, peak = _traced(lambda: enc(Tensor(images)))
        singles = [enc(Tensor(images[b:b + 1])).data for b in range(3)]
    taped = enc(Tensor(images))
    assert taped.requires_grad and not batch.requires_grad
    np.testing.assert_array_equal(batch.data, np.concatenate(singles))
    np.testing.assert_array_equal(batch.data, taped.data)
    np.testing.assert_array_equal(one.data, singles[0])
    assert peak < 1.5 * one_peak + batch.data.nbytes, f"peak {peak / one_peak:.2f}x one image's"


def test_encoder_deterministic(rng):
    enc = Encoder(1, 4, 8, 2, 1, base_grid=(3, 3), name="enc", rng=ivrng.derive(5, "det"))
    img = rng.random((1, 12, 12))
    a = enc(Tensor(img)).data
    b = enc(Tensor(img)).data
    np.testing.assert_array_equal(a, b)


def test_block_in_row_lanes_equals_block_bitwise(rng, monkeypatch):
    """A block's rows split on the attention chunk grid, 42 rows in chunks
    of 10 as 20 + 22 with a ragged tail, give the unsplit block bit for bit:
    each lane takes its keys and values from all rows."""
    block = TransformerBlock(16, 2, name="blk", rng=ivrng.derive(0, "lanes"))
    x = Tensor(rng.standard_normal((42, 16)))
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    with T.no_grad():
        want = block(x).data
        got = block.in_row_lanes(x, 20).data
    np.testing.assert_array_equal(got, want)
