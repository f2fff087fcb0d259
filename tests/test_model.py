import threading

import numpy as np
import pytest

from ivfuse import model as model_module
from ivfuse import tensor as T
from ivfuse.dataset import ImagePair
from ivfuse.model import FusionModel, ModelConfig, StageError, fuse
from ivfuse.sig import MaskSemantics, TextSemantics
from ivfuse.tensor import Tensor

SMALL = ModelConfig(patch=2, dim=8, heads=2, text_dim=6, depth=1, base_grid=(6, 6))


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
            p.tensor.data = source[p.name].data.copy()


@pytest.mark.parametrize("size", [96, 128])
def test_fuse_output_shape_default_dims(rng, size):
    model = FusionModel(ModelConfig(), seed=0)
    pair = make_pair(rng, size, size)
    sem = semantics_for(rng, size, size, text_dim=64)
    out = fuse(model, pair, sem)
    assert out.shape == (3, size, size)
    assert out.min() >= 0.0 and out.max() <= 1.0


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
        p.tensor.data = p.data + gen.standard_normal(p.shape)
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
    model.zero_grads()


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
            # where decompose rejects it
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


def test_variant_flag_validation():
    with pytest.raises(ValueError, match="variant"):
        FusionModel(SMALL, variant="bogus")


def test_trainable_parameters_exclude_tdaf_for_no_gaf():
    model = FusionModel(SMALL, variant="no-gaf", seed=12)
    names = {p.name for p in model.trainable_parameters()}
    assert not any(n.startswith("tdaf.") for n in names)
    all_names = {p.name for p in model.parameters()}
    assert any(n.startswith("tdaf.") for n in all_names)
