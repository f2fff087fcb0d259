"""Mask-guided cross-modal feature reconstruction.

Each image times the weight maps (1, M, 1 - M) of the binary mask at pixel
resolution gives its global, foreground and background streams, which run
as one batch through its modality's encoder. Foreground/background features
are cross-reconstructed between modalities with four independent attention
parameter sets, then summed per modality.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from . import tensor as T
from .blocks import CrossAttention, Module
from .sig import MaskSemantics
from .tensor import ShapeError, Tensor


@dataclass
class FeatureBundle:
    """Token features for one image pair; None until the stage fills them."""

    grid: tuple[int, int]
    fv: Tensor | None = None
    fi: Tensor | None = None
    fv_m: Tensor | None = None
    fv_mbar: Tensor | None = None
    fi_m: Tensor | None = None
    fi_mbar: Tensor | None = None
    fvi: Tensor | None = None
    fiv: Tensor | None = None


def encode_streams(i_vis: Tensor, i_ir: Tensor, mask: MaskSemantics,
                   vis_encoder, ir_encoder,
                   streams: str = "all") -> FeatureBundle:
    """Run the shared per-modality encoders over global and masked inputs.

    Each modality's inputs are one product of its image with the stacked
    weight maps (1, M, 1 - M), run as a single batched encoder call. With a
    tape the two encoders run one after the other; without one, under the
    BLAS hold ``fuse`` takes, they run side by side (see
    ``_encode_side_by_side``).
    ``streams`` trims work for ablations: "all", "global" (skip the masked
    passes), or "masked" (skip the global passes); any other is a ValueError.
    A mask of another size than the image raises ``ShapeError``.
    """
    if streams not in ("all", "global", "masked"):
        raise ValueError(f"encode_streams: unknown streams {streams!r}")
    p = vis_encoder.patch_embed.patch
    _, h, w = i_vis.shape
    if mask.m.shape != (h, w):
        raise ShapeError(f"encode_streams: mask {mask.m.shape} does not match image ({h}, {w})")
    bundle = FeatureBundle(grid=(h // p, w // p))
    first = 1 if streams == "masked" else 0
    last = 1 if streams == "global" else 3
    weights = Tensor(np.stack((np.ones((h, w)), mask.m, mask.m_bar))[first:last, None])
    vis_in, ir_in = T.mul(i_vis, weights), T.mul(i_ir, weights)
    if T.grad_enabled():
        vis_out, ir_out = vis_encoder(vis_in), ir_encoder(ir_in)
    else:
        vis_out, ir_out = _encode_side_by_side(vis_encoder, vis_in, ir_encoder, ir_in)
    if first == 0:
        bundle.fv, bundle.fi = vis_out[0], ir_out[0]
    if last == 3:
        bundle.fv_m, bundle.fv_mbar = vis_out[1 - first], vis_out[2 - first]
        bundle.fi_m, bundle.fi_mbar = ir_out[1 - first], ir_out[2 - first]
    return bundle


def _without_tape(encoder, x: Tensor) -> Tensor:
    with T.no_grad():
        return encoder(x)


def _encode_side_by_side(vis_encoder, vis_in: Tensor, ir_encoder, ir_in: Tensor):
    """(visible, infrared) encoder outputs, computed without a tape.

    The two share nothing until MGCA. While OpenBLAS is held at one thread
    (``fuse`` holds it), the visible encoder runs on a helper thread and the
    infrared one on this thread; otherwise they run one after the other, as
    two BLAS threads per encoder would only wait for the cores. The thread an
    encoder runs on does not change its bits. An error in either surfaces
    here, after both have stopped.
    """
    if not blas.held():
        return vis_encoder(vis_in), ir_encoder(ir_in)
    with ThreadPoolExecutor(max_workers=1) as helper:
        vis = helper.submit(_without_tape, vis_encoder, vis_in)
        ir_out = ir_encoder(ir_in)
        return vis.result(), ir_out


class MaskGuidedAttention(Module):
    """The four attention parameter sets of the masked reconstruction.

    ``with_background=False`` builds only the foreground pair, which is all
    the unmasked ablation variant uses.
    """

    def __init__(self, dim: int, heads: int, *, name: str, rng, with_background: bool = True):
        self.ca_vi_fg = CrossAttention(dim, dim, dim, dim, heads, name=f"{name}.vi_fg", rng=rng)
        self.ca_iv_fg = CrossAttention(dim, dim, dim, dim, heads, name=f"{name}.iv_fg", rng=rng)
        if with_background:
            self.ca_vi_bg = CrossAttention(dim, dim, dim, dim, heads, name=f"{name}.vi_bg", rng=rng)
            self.ca_iv_bg = CrossAttention(dim, dim, dim, dim, heads, name=f"{name}.iv_bg", rng=rng)
        else:
            self.ca_vi_bg = None
            self.ca_iv_bg = None


def cross_reconstruct(bundle: FeatureBundle, attn: MaskGuidedAttention) -> FeatureBundle:
    """Fill fvi/fiv from the four masked streams (foreground + background)."""
    needed = (bundle.fv_m, bundle.fv_mbar, bundle.fi_m, bundle.fi_mbar)
    if any(s is None for s in needed):
        raise ValueError("cross_reconstruct: masked streams missing from bundle")
    if attn.ca_vi_bg is None:
        raise ValueError("cross_reconstruct: attention was built without background sets")
    fvi_m = attn.ca_vi_fg(bundle.fv_m, bundle.fi_m)
    fvi_mbar = attn.ca_vi_bg(bundle.fv_mbar, bundle.fi_mbar)
    fiv_m = attn.ca_iv_fg(bundle.fi_m, bundle.fv_m)
    fiv_mbar = attn.ca_iv_bg(bundle.fi_mbar, bundle.fv_mbar)
    bundle.fvi = fvi_m + fvi_mbar
    bundle.fiv = fiv_m + fiv_mbar
    return bundle


def reconstruct_unmasked(bundle: FeatureBundle, attn: MaskGuidedAttention) -> FeatureBundle:
    """Mask-free variant: whole-image features through the foreground sets."""
    if bundle.fv is None or bundle.fi is None:
        raise ValueError("reconstruct_unmasked: global streams missing from bundle")
    bundle.fvi = attn.ca_vi_fg(bundle.fv, bundle.fi)
    bundle.fiv = attn.ca_iv_fg(bundle.fi, bundle.fv)
    return bundle
