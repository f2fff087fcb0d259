import sys
import threading

import numpy as np
import pytest

from ivfuse import blas
from ivfuse import model as model_module
from ivfuse import tensor as T
from ivfuse.blocks import CrossAttention, Encoder, FeedForward, TransformerBlock
from ivfuse.dataset import ImagePair, synth_pair
from ivfuse.losses import LossWeights, total_loss
from ivfuse.model import VARIANTS, FusionModel, ModelConfig, StageError, fuse, reflect_pad
from ivfuse.optim import zero_grads
from ivfuse.sig import MaskSemantics, TextSemantics
from ivfuse.tensor import Tensor

SMALL = ModelConfig(patch=2, dim=8, heads=2, text_dim=6, depth=1, base_grid=(6, 6))


@pytest.mark.parametrize("bad, message", [
    (dict(patch=0), "patch"), (dict(dim=0), "dim"), (dict(heads=0), "heads"),
    (dict(text_dim=0), "text_dim"), (dict(depth=0), "depth"),
    (dict(gate_kernel=0), "gate_kernel"), (dict(gate_kernel=-3), "gate_kernel"),
    (dict(base_grid=(0, 6)), "base_grid"), (dict(base_grid=(6, -1)), "base_grid"),
    (dict(base_grid=(6,)), "base_grid"), (dict(heads=3), "divide"),
    (dict(gate_kernel=2), "odd"),
])
def test_model_config_rules(bad, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{**SMALL.__dict__, **bad})
    ModelConfig(**{**SMALL.__dict__, "gate_kernel": 5})


def semantics_for(rng, h, w, text_dim=6, tokens=3):
    mask = MaskSemantics((rng.random((h, w)) > 0.5).astype(float))
    text = TextSemantics(rng.standard_normal((tokens, text_dim)))
    return mask, text


def make_pair(rng, h=12, w=12, pair_id="p0"):
    return ImagePair(pair_id, rng.random((3, h, w)), rng.random((1, h, w)))


def copy_shared_parameters(src: FusionModel, dst: FusionModel):
    source = {p.name: p for p in src.parameters()}
    for p in dst.parameters():
        if p.name in source and source[p.name].shape == p.shape:
            p.data = source[p.name].data.copy()


@pytest.mark.parametrize("size", [96, 128])
def test_fuse_output_shape_default_dims(rng, size):
    model = FusionModel(ModelConfig(), seed=0)
    pair = make_pair(rng, size, size)
    sem = semantics_for(rng, size, size, text_dim=64)
    out = fuse(model, pair, sem)
    assert out.shape == (3, size, size)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_stock_fuse_takes_the_shift_free_attention_branch(rng, monkeypatch):
    """On a stock-config model every attention call's operands bound the
    scores tightly enough to skip the softmax's max shift."""
    taken = []
    real = T._shift_free_values

    def recording(*args):
        v1 = real(*args)
        taken.append(v1 is not None)
        return v1

    monkeypatch.setattr(T, "_shift_free_values", recording)
    vis, ir, rect = synth_pair(0, (32, 32))
    sem = (MaskSemantics(rect.indicator(32, 32)), TextSemantics(rng.standard_normal((3, 64))))
    fuse(FusionModel(ModelConfig(), seed=0), ImagePair("p0", vis, ir), sem)
    assert taken and all(taken)


def test_stock_forwards_keep_each_score_tile_within_the_budget(rng, monkeypatch):
    """The budget bounds one lead slice's score tile (q rows x N_kv x 8), not
    a chunk over all slices: a stock-config ``fuse`` and a taped forward at
    64^2 build no tile above ``_SCORE_BUDGET_BYTES``, while an encoder chunk
    over its (stream, head) slices does exceed it."""
    tiles, chunks = [], []
    real = T._attend

    def wrapped(q, kt, *args, **kwargs):
        tiles.append(8 * q.shape[-2] * kt.shape[-1])
        chunks.append(tiles[-1] * int(np.prod(q.shape[:-2])))
        return real(q, kt, *args, **kwargs)

    monkeypatch.setattr(T, "_attend", wrapped)
    model = FusionModel(ModelConfig(), seed=0)
    vis, ir, rect = synth_pair(0, (64, 64))
    mask = MaskSemantics(rect.indicator(64, 64))
    text = TextSemantics(rng.standard_normal((3, 64)))
    fuse(model, ImagePair("p0", vis, ir), (mask, text))
    with blas.one_blas_thread():
        assert model.forward(vis, ir, mask, text).requires_grad
    assert tiles and max(tiles) <= T._SCORE_BUDGET_BYTES
    assert max(chunks) > T._SCORE_BUDGET_BYTES


def test_fuse_deterministic(rng):
    model = FusionModel(SMALL, seed=1)
    pair = make_pair(rng)
    sem = semantics_for(rng, 12, 12)
    a = fuse(model, pair, sem)
    b = fuse(model, pair, sem)
    assert a.tobytes() == b.tobytes()


def test_non_divisible_dims_padded_and_cropped(rng):
    model = FusionModel(SMALL, seed=2)
    pair = make_pair(rng, 11, 13)
    sem = semantics_for(rng, 11, 13)
    out = fuse(model, pair, sem)
    assert out.shape == (3, 11, 13)


def test_mask_shape_checked_before_padding(rng):
    model = FusionModel(SMALL, seed=3)
    _, text = semantics_for(rng, 12, 12)
    mask = MaskSemantics(np.zeros((5, 5)))
    with pytest.raises(StageError,
                       match=r"mask \(5, 5\) does not match pair 'p0' of size \(12, 12\)"):
        fuse(model, make_pair(rng), (mask, text))


def test_no_gaf_equals_composed_stages(rng):
    """decode(F_vi + F_iv) assembled stage by stage outside the model."""
    model = FusionModel(SMALL, variant="no-gaf", seed=4)
    h = w = 12
    i_vis = rng.random((3, h, w))
    i_ir = rng.random((1, h, w))
    mask, text = semantics_for(rng, h, w)
    with T.no_grad():
        got = model.forward(Tensor(i_vis), Tensor(i_ir), mask, text).data

        from ivfuse.mgca import cross_reconstruct, encode_streams
        bundle = encode_streams(Tensor(i_vis), Tensor(i_ir), mask,
                                model.vis_encoder, model.ir_encoder, streams="masked")
        bundle = cross_reconstruct(bundle, model.mgca)
        tokens = bundle.fvi + bundle.fiv
        for block in model.decoder_blocks:
            tokens = block(tokens)
        want = T.sigmoid(model.unembed(tokens, h, w)).data
    np.testing.assert_array_equal(got, want)


def test_no_gaf_invariant_to_tdaf_perturbation(rng):
    model = FusionModel(SMALL, variant="no-gaf", seed=5)
    pair = make_pair(rng)
    sem = semantics_for(rng, 12, 12)
    before = fuse(model, pair, sem)
    gen = np.random.default_rng(0)
    for p in model.tdaf.parameters():
        p.data = p.data + gen.standard_normal(p.shape)
    after = fuse(model, pair, sem)
    assert before.tobytes() == after.tobytes()


def test_no_tivr_differs_from_full_only_through_alpha(rng):
    full = FusionModel(SMALL, variant="full", seed=6)
    variant = FusionModel(SMALL, variant="no-tivr", seed=7)
    copy_shared_parameters(full, variant)
    h = w = 12
    i_vis, i_ir = rng.random((3, h, w)), rng.random((1, h, w))
    mask, text = semantics_for(rng, h, w)
    alpha = Tensor(rng.random((36, 1)))
    with T.no_grad():
        out_full = full.forward(Tensor(i_vis), Tensor(i_ir), mask, text,
                                alpha_override=alpha).data
        out_var = variant.forward(Tensor(i_vis), Tensor(i_ir), mask, text,
                                  alpha_override=alpha).data
    np.testing.assert_array_equal(out_full, out_var)
    # without injection the two genuinely differ (different alpha routes)
    with T.no_grad():
        a = full.forward(Tensor(i_vis), Tensor(i_ir), mask, text).data
        b = variant.forward(Tensor(i_vis), Tensor(i_ir), mask, text).data
    assert not np.array_equal(a, b)


def test_no_mgca_ignores_mask(rng):
    model = FusionModel(SMALL, variant="no-mgca", seed=8)
    pair = make_pair(rng)
    _, text = semantics_for(rng, 12, 12)
    m1 = MaskSemantics(np.zeros((12, 12)))
    m2 = MaskSemantics(np.ones((12, 12)))
    a = fuse(model, pair, (m1, text))
    b = fuse(model, pair, (m2, text))
    assert a.tobytes() == b.tobytes()


def test_gradient_reaches_nearly_all_parameters(rng):
    model = FusionModel(SMALL, seed=9)
    h = w = 12
    mask, text = semantics_for(rng, h, w)
    out = model.forward(Tensor(rng.random((3, h, w))), Tensor(rng.random((1, h, w))),
                        mask, text)
    T.reduce_mean(out).backward()
    params = model.trainable_parameters()
    nonzero = sum(1 for p in params if p.grad is not None and np.any(p.grad != 0.0))
    assert nonzero / len(params) >= 0.99
    zero_grads(model.parameters())


def test_stage_error_is_per_thread(rng, monkeypatch):
    """B fails in encode-streams while A, on the same model, sits in decode."""
    model = FusionModel(SMALL, seed=13)
    pairs = {pid: make_pair(rng, pair_id=pid) for pid in ("a", "b")}
    sems = {pid: semantics_for(rng, 12, 12) for pid in ("a", "b")}
    b_encoding, a_decoding, release_a = threading.Event(), threading.Event(), threading.Event()
    real_encode = model_module.encode_streams
    first_block = model.decoder_blocks[0]

    def encode_streams(i_vis, i_ir, mask, *args, **kwargs):
        if threading.current_thread().name == "b":
            b_encoding.set()
            a_decoding.wait(timeout=30)
            # fuse checks the mask's shape, so B's wrong one is passed in here,
            # where encode_streams rejects it
            mask = MaskSemantics(np.ones((5, 5)))
        return real_encode(i_vis, i_ir, mask, *args, **kwargs)

    def parked_block(tokens):
        a_decoding.set()
        release_a.wait(timeout=30)
        return first_block(tokens)

    monkeypatch.setattr(model_module, "encode_streams", encode_streams)
    model.decoder_blocks[0] = parked_block
    errors = {}

    def run(pair_id):
        try:
            fuse(model, pairs[pair_id], sems[pair_id])
        except Exception as e:
            errors[pair_id] = e

    thread_b = threading.Thread(target=run, args=("b",), name="b")
    thread_a = threading.Thread(target=run, args=("a",), name="a")
    thread_b.start()
    assert b_encoding.wait(timeout=30)
    thread_a.start()
    thread_b.join(timeout=60)
    release_a.set()
    thread_a.join(timeout=60)
    assert not thread_a.is_alive() and not thread_b.is_alive()
    assert "a" not in errors
    assert isinstance(errors["b"], StageError)
    assert "stage encode-streams" in str(errors["b"])


# -- encoders side by side ----------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count now; skips where it cannot be read."""
    controls = blas._controls()
    if controls is None:
        pytest.skip("OpenBLAS's thread count cannot be read here")
    return controls[0]()


def record_encoders(monkeypatch, model):
    """Wrap ``Encoder.__call__``: note which encoder ran, on which thread,
    and whether it recorded a tape."""
    calls = []
    real = Encoder.__call__

    def recording(self, image):
        which = "vis" if self is model.vis_encoder else "ir"
        calls.append((which, threading.current_thread() is threading.main_thread(),
                      T.grad_enabled()))
        return real(self, image)

    monkeypatch.setattr(Encoder, "__call__", recording)
    return calls


@pytest.mark.parametrize("variant", VARIANTS)
def test_fuse_equals_grad_mode_forward_bitwise(rng, monkeypatch, variant):
    """On an odd-sized pair that needs reflect padding, with attention forced
    into several row chunks, ``fuse`` (attention by lead slice, the encoders
    by stream) equals the clipped grad-mode forward (attention by lead slice,
    the encoders batched) bit for bit. Both run on one BLAS thread, as ``fuse`` and
    ``train`` always do (OpenBLAS's own bits depend on its thread count at
    some GEMM shapes), so in both the visible encoder runs on a helper
    thread, with a tape in grad mode."""
    blas_threads()
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    model = FusionModel(SMALL, variant=variant, seed=21)
    h, w = 13, 11
    pair = make_pair(rng, h, w)
    mask, text = semantics_for(rng, h, w)
    calls = record_encoders(monkeypatch, model)
    got = fuse(model, pair, (mask, text))
    assert sorted(calls) == [("ir", True, False), ("vis", False, False)]
    calls.clear()
    with blas.one_blas_thread():
        out = model.forward(reflect_pad(pair.i_vis, 14, 12), reflect_pad(pair.i_ir, 14, 12),
                            MaskSemantics(reflect_pad(mask.m, 14, 12)), text)
    assert sorted(calls) == [("ir", True, True), ("vis", False, True)]
    assert out.requires_grad
    np.testing.assert_array_equal(got, np.clip(out.data[:, :h, :w], 0.0, 1.0))


@pytest.mark.parametrize("variant", VARIANTS)
def test_side_by_side_gradients_equal_serial_bitwise(rng, monkeypatch, variant):
    """Under one BLAS thread, a taped forward and ``total_loss`` backward
    with the encoders side by side, and MGCA's two directions too (fvi on a
    helper thread, in the forward and in the walk of its sub-graph), gives
    every parameter gradient bit for bit as the same step run in turn on
    this thread. The loss's walk starts two lanes walks for MGCA and two for
    the encoders. ``no-mgca`` encodes only the global streams, ``no-gaf``
    only the masked ones."""
    get, set_ = blas._controls() or pytest.skip("OpenBLAS's thread count cannot be set here")
    model = FusionModel(SMALL, variant=variant, seed=27)
    vis, ir = rng.random((3, 16, 16)), rng.random((1, 16, 16))
    mask, text = semantics_for(rng, 16, 16)
    calls, walks, real_walk = record_encoders(monkeypatch, model), [], T._walk

    def walk(root, seed):
        walks.append(threading.current_thread() is threading.main_thread())
        real_walk(root, seed)

    monkeypatch.setattr(T, "_walk", walk)

    def step():
        calls.clear()
        walks.clear()
        loss, _ = total_loss(model.forward(vis, ir, mask, text), vis, ir, LossWeights())
        loss.backward()
        grads = [p.grad for p in model.trainable_parameters()]
        zero_grads(model.parameters())
        return grads

    with blas.one_blas_thread():
        side_by_side = step()
    assert sorted(calls) == [("ir", True, True), ("vis", False, True)]
    assert sorted(walks) == [False, False, True, True, True]
    before = get()
    set_(1)
    try:
        serial = step()
    finally:
        set_(before)
    assert calls == [("vis", True, True), ("ir", True, True)]
    assert walks == [True] * 5
    assert all(g is not None for g in serial)
    assert [g.tobytes() for g in side_by_side] == [g.tobytes() for g in serial]


@pytest.mark.parametrize("failing", ["vis", "ir"])
def test_encoder_error_names_encode_streams_and_restores_blas(rng, monkeypatch, failing):
    """An error in the helper thread's visible encoder, or in the calling
    thread's infrared one, surfaces as a ``StageError`` naming encode-streams,
    and OpenBLAS's thread count is back at its value before the call."""
    before = blas_threads()
    model = FusionModel(SMALL, seed=22)
    real = Encoder.__call__

    def broken(self, image):
        if self is (model.vis_encoder if failing == "vis" else model.ir_encoder):
            raise RuntimeError(f"{failing} encoder broke")
        return real(self, image)

    monkeypatch.setattr(Encoder, "__call__", broken)
    with pytest.raises(StageError, match=f"stage encode-streams .*: {failing} encoder broke"):
        fuse(model, make_pair(rng), semantics_for(rng, 12, 12))
    assert blas_threads() == before


@pytest.mark.parametrize("broken", ["vi_bg", "iv_bg"])
def test_nan_mgca_weight_names_cross_reconstruct_after_both_lanes_stop(rng, monkeypatch,
                                                                        broken):
    """A NaN weight in ``ca_vi_bg`` (the helper thread's lane) or in
    ``ca_iv_bg`` (the calling thread's) fails ``fuse`` with a ``StageError``
    naming cross-reconstruct only once the other lane has finished and the
    helper thread has stopped; OpenBLAS's thread count is back at its value
    before the call."""
    before = blas_threads()
    model = FusionModel(SMALL, seed=28)
    weight = getattr(model.mgca, f"ca_{broken}").w_q.weight
    data = weight.data.copy()
    data[0, 0] = np.nan
    weight.data = data
    sets = {id(getattr(model.mgca, f"ca_{name}")): name
            for name in ("vi_fg", "vi_bg", "iv_fg", "iv_bg")}
    finished, real = [], CrossAttention.__call__

    def recording(self, queries, keys_values):
        out = real(self, queries, keys_values)
        if id(self) in sets:
            finished.append(sets[id(self)])
        return out

    monkeypatch.setattr(CrossAttention, "__call__", recording)
    threads = set(threading.enumerate())
    with pytest.raises(StageError, match="stage cross-reconstruct .*non-finite"):
        fuse(model, make_pair(rng), semantics_for(rng, 12, 12))
    assert [t.name for t in threading.enumerate() if t not in threads] == []
    assert sorted(finished) == sorted({"vi_fg", "vi_bg", "iv_fg", "iv_bg"} - {broken})
    assert blas_threads() == before


def test_fuse_without_blas_control_runs_sequentially_with_same_bits(rng, monkeypatch):
    """Where OpenBLAS's thread count cannot be set, ``fuse`` runs both
    encoders on the calling thread and gives the same bits. The test itself
    sets one BLAS thread for that run, so only the encoders' threads differ."""
    get, set_ = blas._controls() or pytest.skip("OpenBLAS's thread count cannot be set here")
    model = FusionModel(SMALL, seed=23)
    pair = make_pair(rng, 13, 11)
    sem = semantics_for(rng, 13, 11)
    calls = record_encoders(monkeypatch, model)
    want = fuse(model, pair, sem)
    assert sorted(calls) == [("ir", True, False), ("vis", False, False)]
    calls.clear()
    monkeypatch.setattr(blas, "_controls", lambda: None)
    before = get()
    set_(1)
    try:
        got = fuse(model, pair, sem)
    finally:
        set_(before)
    assert calls == [("vis", True, False), ("ir", True, False)]
    assert got.tobytes() == want.tobytes()


# -- decoder rows as two lanes ------------------------------------------------


def record_row_lanes(monkeypatch):
    """Wrap ``TransformerBlock.in_row_lanes``: note each split row."""
    splits = []
    real = TransformerBlock.in_row_lanes

    def recording(self, x, split):
        splits.append(split)
        return real(self, x, split)

    monkeypatch.setattr(TransformerBlock, "in_row_lanes", recording)
    return splits


def count_starts(monkeypatch):
    """Count ``threading.Thread.start`` calls and ``T.lanes`` nodes built."""
    counts = {"threads": 0, "lanes": 0}
    real_start, real_lanes = threading.Thread.start, T.lanes

    def start(self):
        counts["threads"] += 1
        real_start(self)

    def lanes(*args):
        counts["lanes"] += 1
        return real_lanes(*args)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(T, "lanes", lanes)
    return counts


@pytest.mark.parametrize("variant", VARIANTS)
def test_fuse_splits_decoder_rows_with_the_unsplit_bits(rng, monkeypatch, variant):
    """With attention in chunks of 10 rows, a 13 x 11 pair's 42 decoder
    tokens run in every block as rows 0-19 and 20-41, and ``fuse`` equals
    the unsplit decode bit for bit."""
    blas_threads()
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    model = FusionModel(SMALL, variant=variant, seed=29)
    pair = make_pair(rng, 13, 11)
    sem = semantics_for(rng, 13, 11)
    splits = record_row_lanes(monkeypatch)
    got = fuse(model, pair, sem)
    assert splits == [20] * SMALL.depth
    splits.clear()
    monkeypatch.setattr(T, "row_split", lambda n: None)
    want = fuse(model, pair, sem)
    assert splits == []
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, w, budget", [
    (2, 2, 8),                 # one token, in chunks of one row
    (12, 12, None),            # 36 tokens in one chunk at the stock budget
])
def test_decode_in_one_chunk_starts_no_decoder_thread(rng, monkeypatch, h, w, budget):
    """A decode whose tokens fit in one attention chunk runs each block
    whole: ``fuse`` starts its hold's one helper thread for its two
    ``T.lanes`` nodes and no other."""
    blas_threads()
    if budget is not None:
        monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", budget)
    model = FusionModel(SMALL, seed=30)
    splits, counts = record_row_lanes(monkeypatch), count_starts(monkeypatch)
    assert fuse(model, make_pair(rng, h, w), semantics_for(rng, h, w)).shape == (3, h, w)
    assert splits == []
    assert counts == {"threads": 1, "lanes": 2}


def test_fuse_starts_one_helper_thread_for_its_lanes_and_its_decode(rng, monkeypatch):
    """A ``fuse`` of ``full`` whose decoder splits starts one thread, its
    hold's helper, for both ``T.lanes`` nodes and all its decoder blocks,
    and does not leave it running. A grad-mode forward under the hold starts
    one too, and splits no decoder rows; a no-tape forward outside ``fuse``
    starts none."""
    blas_threads()
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    model = FusionModel(ModelConfig(**{**SMALL.__dict__, "depth": 3}), seed=31)
    pair = make_pair(rng, 13, 11)
    mask, text = semantics_for(rng, 13, 11)
    splits, counts = record_row_lanes(monkeypatch), count_starts(monkeypatch)
    threads = set(threading.enumerate())
    fuse(model, pair, (mask, text))
    assert [t.name for t in threading.enumerate() if t not in threads] == []
    assert splits == [20] * 3
    assert counts == {"threads": 1, "lanes": 2}
    splits.clear()
    counts.update(threads=0, lanes=0)
    images = (reflect_pad(pair.i_vis, 14, 12), reflect_pad(pair.i_ir, 14, 12))
    padded = MaskSemantics(reflect_pad(mask.m, 14, 12))
    with blas.one_blas_thread():
        assert model.forward(*images, padded, text).requires_grad
    assert splits == [] and counts == {"threads": 1, "lanes": 2}
    counts.update(threads=0, lanes=0)
    with T.no_grad():
        model.forward(*images, padded, text)
    assert splits == [] and counts == {"threads": 0, "lanes": 2}


def test_holds_and_their_helpers_belong_to_threads(rng, monkeypatch):
    """While the main thread holds OpenBLAS at one thread, a ``T.lanes``
    node built and walked on another thread without a hold of its own runs
    its lanes there in turn and starts no thread, with the bits of the same
    node run on the main thread. A ``fuse`` inside an outer hold reuses that
    hold's helper: it starts one thread, still idle when ``fuse`` returns,
    and joined as the outer hold ends."""
    blas_threads()
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = [Tensor(rng.standard_normal((3, 3)), requires_grad=True) for _ in range(2)]
    ran_on = []

    def lane(i):
        def run(t):
            ran_on.append(threading.current_thread())
            return T.matmul(t, w[i])
        return run

    def step():
        out = T.lanes(lane(0), x, lane(1), x)
        T.reduce_sum(out * out).backward()
        grads = [t.grad.tobytes() for t in [x] + w]
        for t in [x] + w:
            t.grad = None
        return grads

    want = step()
    ran_on.clear()
    counts, got = count_starts(monkeypatch), []
    other = threading.Thread(target=lambda: got.extend(step()))
    with blas.one_blas_thread():
        other.start()
        other.join(timeout=60)
    assert counts["threads"] == 1 and not other.is_alive()
    assert ran_on == [other, other] and got == want

    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    model = FusionModel(SMALL, seed=33)
    splits = record_row_lanes(monkeypatch)
    counts["threads"] = 0
    threads = set(threading.enumerate())
    with blas.one_blas_thread():
        fuse(model, make_pair(rng, 13, 11), semantics_for(rng, 13, 11))
        assert splits == [20] and counts["threads"] == 1
        assert [t for t in threading.enumerate() if t not in threads] != []
    assert [t.name for t in threading.enumerate() if t not in threads] == []


@pytest.mark.parametrize("first", ["helper", "caller"])
def test_nan_decoder_weight_names_decode_after_both_row_lanes_stop(rng, monkeypatch, first):
    """A NaN in a decoder block's FFN weight fails both row lanes, which
    share it. Whichever lane fails first, the helper's (rows below the
    split) or the calling thread's, the other is held back until then, and
    ``fuse`` raises a ``StageError`` naming decode only once that one has
    stopped too. No thread is left running, and OpenBLAS's thread count is
    back at its value before the call."""
    before = blas_threads()
    monkeypatch.setattr(T, "_SCORE_BUDGET_BYTES", 8 * 42 * 10)
    model = FusionModel(SMALL, seed=32)
    weight = model.decoder_blocks[0].ffn.inner.weight
    data = weight.data.copy()
    data[0, 0] = np.nan
    weight.data = data
    failed, stopped, real = threading.Event(), [], FeedForward.__call__

    def held_back(self, x):
        if self is not model.decoder_blocks[0].ffn:
            return real(self, x)
        lane = "caller" if threading.current_thread() is threading.main_thread() else "helper"
        try:
            if lane != first:
                assert failed.wait(timeout=30)
            return real(self, x)
        finally:
            stopped.append(lane)
            if lane == first:
                failed.set()

    threads = set(threading.enumerate())
    with monkeypatch.context() as patch:
        patch.setattr(FeedForward, "__call__", held_back)
        with pytest.raises(StageError, match="stage decode .*non-finite"):
            fuse(model, make_pair(rng, 13, 11), semantics_for(rng, 13, 11))
        assert stopped == sorted(["caller", "helper"], key=lambda lane: lane != first)
    assert [t.name for t in threading.enumerate() if t not in threads] == []
    assert blas_threads() == before


def test_grad_mode_starts_no_thread_and_leaves_blas_alone(rng, monkeypatch):
    """A grad-mode forward and backward start no thread and never read or
    set OpenBLAS's thread count."""
    touched = []
    monkeypatch.setattr(blas, "_controls", lambda: touched.append("blas"))
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: touched.append("thread") or real_start(self))
    model = FusionModel(SMALL, seed=24)
    mask, text = semantics_for(rng, 12, 12)
    out = model.forward(rng.random((3, 12, 12)), rng.random((1, 12, 12)), mask, text)
    T.reduce_sum(out).backward()
    assert touched == []


def test_no_grad_forward_outside_fuse_runs_encoders_in_turn(rng, monkeypatch):
    """Only ``fuse`` holds OpenBLAS at one thread; a no-tape forward without
    that hold runs both encoders on the calling thread."""
    model = FusionModel(SMALL, seed=26)
    mask, text = semantics_for(rng, 12, 12)
    calls = record_encoders(monkeypatch, model)
    with T.no_grad():
        model.forward(rng.random((3, 12, 12)), rng.random((1, 12, 12)), mask, text)
    assert calls == [("vis", True, False), ("ir", True, False)]
    assert blas._holders == 0


def test_concurrent_fuse_calls_restore_blas(rng):
    """Overlapping ``fuse`` calls on six threads, switching often, each hold
    one BLAS thread; each gives the serial image, and the last one out
    restores the count, so a lost update to the hold count would show."""
    before = blas_threads()
    model = FusionModel(SMALL, seed=25)
    pairs = [make_pair(rng, pair_id=f"p{i}") for i in range(6)]
    sems = [semantics_for(rng, 12, 12) for _ in pairs]
    serial = [fuse(model, p, s) for p, s in zip(pairs, sems)]
    results = [None] * len(pairs)

    def run(i):
        for _ in range(3):
            results[i] = fuse(model, pairs[i], sems[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and r.tobytes() == s.tobytes() for r, s in zip(results, serial))
    assert blas_threads() == before


def test_variant_flag_validation():
    with pytest.raises(ValueError, match="variant"):
        FusionModel(SMALL, variant="bogus")


def test_trainable_parameters_exclude_tdaf_for_no_gaf():
    model = FusionModel(SMALL, variant="no-gaf", seed=12)
    names = {p.name for p in model.trainable_parameters()}
    assert not any(n.startswith("tdaf.") for n in names)
    all_names = {p.name for p in model.parameters()}
    assert any(n.startswith("tdaf.") for n in all_names)
