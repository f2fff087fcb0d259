import numpy as np
import pytest

from ivfuse import rng as ivrng
from ivfuse.blocks import Encoder
from ivfuse.mgca import (FeatureBundle, MaskGuidedAttention, cross_reconstruct,
                         encode_streams, reconstruct_unmasked)
from ivfuse.sig import MaskSemantics
from ivfuse.tensor import ShapeError, Tensor

from oracles import cross_attention_brute


def small_encoders(seed=0, dim=8, patch=2, depth=1):
    vis = Encoder(3, patch, dim, 2, depth, base_grid=(4, 4), name="vis",
                  rng=ivrng.derive(seed, "vis"))
    ir = Encoder(1, patch, dim, 2, depth, base_grid=(4, 4), name="ir",
                 rng=ivrng.derive(seed, "ir"))
    return vis, ir


def random_mask(rng, h, w):
    return MaskSemantics((rng.random((h, w)) > 0.5).astype(float))


def ca_raw_params(ca):
    return (ca.w_q.weight.data, ca.w_q.bias.data, ca.w_k.weight.data, ca.w_k.bias.data,
            ca.w_v.weight.data, ca.w_v.bias.data, ca.w_o.weight.data, ca.w_o.bias.data,
            ca.heads)


class Recording:
    """An encoder stand-in that keeps a copy of every batch it is given."""

    def __init__(self, encoder):
        self.encoder, self.patch_embed, self.batches = encoder, encoder.patch_embed, []

    def __call__(self, x):
        self.batches.append(x.data.copy())
        return self.encoder(x)


def stream_inputs(i_vis, i_ir, mask, streams="all"):
    vis, ir = (Recording(e) for e in small_encoders())
    encode_streams(Tensor(i_vis), Tensor(i_ir), mask, vis, ir, streams=streams)
    return vis.batches[0], ir.batches[0]


def test_encode_streams_full_and_empty_mask(rng):
    img, ir = rng.random((3, 6, 6)), rng.random((1, 6, 6))
    for m, fg, bg in ((np.ones((6, 6)), 1.0, 0.0), (np.zeros((6, 6)), 0.0, 1.0)):
        for batch, x in zip(stream_inputs(img, ir, MaskSemantics(m)), (img, ir), strict=True):
            np.testing.assert_array_equal(batch, np.stack((x, fg * x, bg * x)))


def test_encode_streams_inputs_partition_image_bit_exact(rng):
    """Each encoder gets (I, I*M, I*(1-M)) bit for bit, trimmed by ``streams``;
    the masked pair sums back to I."""
    for _ in range(10):
        img, ir = rng.random((3, 6, 8)), rng.random((1, 6, 8))
        mask = random_mask(rng, 6, 8)
        trimmed = {s: stream_inputs(img, ir, mask, s) for s in ("global", "masked")}
        for i, (batch, x) in enumerate(zip(stream_inputs(img, ir, mask), (img, ir))):
            np.testing.assert_array_equal(batch, np.stack((x, x * mask.m, x * mask.m_bar)))
            np.testing.assert_array_equal(batch[1] + batch[2], x)
            np.testing.assert_array_equal(trimmed["global"][i], batch[:1])
            np.testing.assert_array_equal(trimmed["masked"][i], batch[1:])


def test_encode_streams_shape_mismatch(rng):
    vis, ir = small_encoders()
    with pytest.raises(ShapeError, match="encode_streams"):
        encode_streams(Tensor(rng.random((3, 4, 4))), Tensor(rng.random((1, 4, 4))),
                       MaskSemantics(np.ones((6, 6))), vis, ir)


def test_encode_streams_unknown_streams_value(rng):
    vis, ir = small_encoders()
    with pytest.raises(ValueError, match="'globl'"):
        encode_streams(Tensor(rng.random((3, 4, 4))), Tensor(rng.random((1, 4, 4))),
                       MaskSemantics(np.ones((4, 4))), vis, ir, streams="globl")


def test_full_mask_collapses_streams(rng):
    vis, ir = small_encoders()
    i_vis = rng.random((3, 8, 8))
    i_ir = rng.random((1, 8, 8))
    bundle = encode_streams(Tensor(i_vis), Tensor(i_ir), MaskSemantics(np.ones((8, 8))),
                            vis, ir)
    np.testing.assert_array_equal(bundle.fv_m.data, bundle.fv.data)
    np.testing.assert_array_equal(bundle.fv_mbar.data, vis(Tensor(np.zeros((3, 8, 8)))).data)
    np.testing.assert_array_equal(bundle.fi_m.data, bundle.fi.data)


def test_stream_shapes_at_reference_size(rng):
    vis = Encoder(3, 4, 64, 4, 1, base_grid=(24, 24), name="v", rng=ivrng.derive(0, "sv"))
    ir = Encoder(1, 4, 64, 4, 1, base_grid=(24, 24), name="i", rng=ivrng.derive(0, "si"))
    bundle = encode_streams(Tensor(rng.random((3, 96, 96))), Tensor(rng.random((1, 96, 96))),
                            random_mask(rng, 96, 96), vis, ir)
    for stream in (bundle.fv, bundle.fi, bundle.fv_m, bundle.fv_mbar,
                   bundle.fi_m, bundle.fi_mbar):
        assert stream.shape == (576, 64)
    assert bundle.grid == (24, 24)


def test_patch_aligned_mask_gives_locality(rng):
    """Background-only pixel edits cannot reach the foreground stream."""
    vis, ir = small_encoders()
    h = w = 8
    mask_arr = np.zeros((h, w))
    mask_arr[:4, :4] = 1.0   # aligned to 2x2 patches
    mask = MaskSemantics(mask_arr)
    i_vis = rng.random((3, h, w))
    i_ir = rng.random((1, h, w))
    bundle_a = encode_streams(Tensor(i_vis), Tensor(i_ir), mask, vis, ir)
    tweaked = i_vis.copy()
    tweaked[:, 5:, 5:] = rng.random((3, 3, 3))   # background region only
    bundle_b = encode_streams(Tensor(tweaked), Tensor(i_ir), mask, vis, ir)
    np.testing.assert_array_equal(bundle_a.fv_m.data, bundle_b.fv_m.data)
    assert not np.array_equal(bundle_a.fv_mbar.data, bundle_b.fv_mbar.data)


def filled_bundle(rng, n=16, d=8):
    return FeatureBundle(
        grid=(4, 4),
        fv=Tensor(rng.standard_normal((n, d))),
        fi=Tensor(rng.standard_normal((n, d))),
        fv_m=Tensor(rng.standard_normal((n, d))),
        fv_mbar=Tensor(rng.standard_normal((n, d))),
        fi_m=Tensor(rng.standard_normal((n, d))),
        fi_mbar=Tensor(rng.standard_normal((n, d))),
    )


def test_zero_output_projections_zero_reconstruction(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(1, "z"))
    for ca in (attn.ca_vi_fg, attn.ca_vi_bg, attn.ca_iv_fg, attn.ca_iv_bg):
        ca.w_o.weight.data = np.zeros_like(ca.w_o.weight.data)
        ca.w_o.bias.data = np.zeros_like(ca.w_o.bias.data)
    bundle = cross_reconstruct(filled_bundle(rng), attn)
    np.testing.assert_array_equal(bundle.fvi.data, np.zeros((16, 8)))
    np.testing.assert_array_equal(bundle.fiv.data, np.zeros((16, 8)))


def test_reconstruction_matches_brute_force_sum(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(2, "bf"))
    bundle = filled_bundle(rng)
    out = cross_reconstruct(bundle, attn)
    want_fvi = (cross_attention_brute(bundle.fv_m.data, bundle.fi_m.data,
                                      ca_raw_params(attn.ca_vi_fg))
                + cross_attention_brute(bundle.fv_mbar.data, bundle.fi_mbar.data,
                                        ca_raw_params(attn.ca_vi_bg)))
    np.testing.assert_allclose(out.fvi.data, want_fvi, atol=1e-9)
    want_fiv = (cross_attention_brute(bundle.fi_m.data, bundle.fv_m.data,
                                      ca_raw_params(attn.ca_iv_fg))
                + cross_attention_brute(bundle.fi_mbar.data, bundle.fv_mbar.data,
                                        ca_raw_params(attn.ca_iv_bg)))
    np.testing.assert_allclose(out.fiv.data, want_fiv, atol=1e-9)


def test_swapping_modalities_swaps_outputs(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(3, "swap"))
    bundle = filled_bundle(rng)
    out = cross_reconstruct(FeatureBundle(**vars(bundle)), attn)

    swapped_attn = MaskGuidedAttention(8, 2, name="m2", rng=ivrng.derive(4, "swap2"))
    swapped_attn.ca_vi_fg, swapped_attn.ca_iv_fg = attn.ca_iv_fg, attn.ca_vi_fg
    swapped_attn.ca_vi_bg, swapped_attn.ca_iv_bg = attn.ca_iv_bg, attn.ca_vi_bg
    swapped = FeatureBundle(grid=bundle.grid, fv=bundle.fi, fi=bundle.fv,
                            fv_m=bundle.fi_m, fv_mbar=bundle.fi_mbar,
                            fi_m=bundle.fv_m, fi_mbar=bundle.fv_mbar)
    out_swapped = cross_reconstruct(swapped, swapped_attn)
    np.testing.assert_allclose(out_swapped.fvi.data, out.fiv.data, atol=1e-12)
    np.testing.assert_allclose(out_swapped.fiv.data, out.fvi.data, atol=1e-12)


def test_background_zeroing_changes_only_constant_path(rng):
    """With zero bg streams the bg path contributes a constant bias-only map."""
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(5, "bg"))
    bundle = filled_bundle(rng)
    zeroed = FeatureBundle(grid=bundle.grid, fv=bundle.fv, fi=bundle.fi,
                           fv_m=bundle.fv_m, fi_m=bundle.fi_m,
                           fv_mbar=Tensor(np.zeros((16, 8))),
                           fi_mbar=Tensor(np.zeros((16, 8))))
    out = cross_reconstruct(zeroed, attn)
    constant = cross_attention_brute(np.zeros((16, 8)), np.zeros((16, 8)),
                                     ca_raw_params(attn.ca_vi_bg))
    assert np.allclose(constant, constant[0])  # rows identical: bias-only map
    fg_only = cross_attention_brute(bundle.fv_m.data, bundle.fi_m.data,
                                    ca_raw_params(attn.ca_vi_fg))
    np.testing.assert_allclose(out.fvi.data, fg_only + constant, atol=1e-9)


def test_joint_equals_separate_sums(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(6, "lin"))
    bundle = filled_bundle(rng)
    joint = cross_reconstruct(FeatureBundle(**vars(bundle)), attn)
    fg = attn.ca_vi_fg(bundle.fv_m, bundle.fi_m).data
    bg = attn.ca_vi_bg(bundle.fv_mbar, bundle.fi_mbar).data
    np.testing.assert_allclose(joint.fvi.data, fg + bg, atol=1e-12)


def test_missing_streams_rejected(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(7, "miss"))
    empty = FeatureBundle(grid=(4, 4))
    with pytest.raises(ValueError, match="missing"):
        cross_reconstruct(empty, attn)
    with pytest.raises(ValueError, match="missing"):
        reconstruct_unmasked(empty, attn)


def test_unmasked_route_uses_foreground_sets(rng):
    attn = MaskGuidedAttention(8, 2, name="m", rng=ivrng.derive(8, "unm"),
                               with_background=False)
    bundle = FeatureBundle(grid=(4, 4), fv=Tensor(rng.standard_normal((16, 8))),
                           fi=Tensor(rng.standard_normal((16, 8))))
    out = reconstruct_unmasked(bundle, attn)
    want = cross_attention_brute(bundle.fv.data, bundle.fi.data, ca_raw_params(attn.ca_vi_fg))
    np.testing.assert_allclose(out.fvi.data, want, atol=1e-9)
