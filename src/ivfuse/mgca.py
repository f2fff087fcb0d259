"""Mask-guided cross-modal feature reconstruction.

Each image times the weight maps (1, M, 1 - M) of the binary mask at pixel
resolution gives its global, foreground and background streams, which go
in one call to its modality's encoder. Foreground/background features
are cross-reconstructed between modalities with four independent attention
parameter sets, then summed per modality. The two modalities' encoders, and
then the two directions of the reconstruction (fvi and fiv share no
parameter), each run as the two lanes of one ``T.lanes`` node, which
decides whether the lanes run side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    weight maps (1, M, 1 - M), passed to its encoder in one call, which runs
    the streams one after another when there is no tape. The two calls are
    the lanes of one ``T.lanes`` node, the visible encoder first.
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
    out = T.lanes(vis_encoder, vis_in, ir_encoder, ir_in)
    if first == 0:
        bundle.fv, bundle.fi = out[0, 0], out[1, 0]
    if last == 3:
        bundle.fv_m, bundle.fv_mbar = out[0, 1 - first], out[0, 2 - first]
        bundle.fi_m, bundle.fi_mbar = out[1, 1 - first], out[1, 2 - first]
    return bundle


class MaskGuidedAttention(Module):
    """The four attention parameter sets of the masked reconstruction.

    ``with_background=False`` builds only the foreground pair, which is all
    the unmasked ablation variant uses.
    """

    def __init__(self, dim: int, heads: int, *, name: str, rng, with_background: bool = True):
        self.ca_vi_fg = CrossAttention(dim, dim, heads, name=f"{name}.vi_fg", rng=rng)
        self.ca_iv_fg = CrossAttention(dim, dim, heads, name=f"{name}.iv_fg", rng=rng)
        if with_background:
            self.ca_vi_bg = CrossAttention(dim, dim, heads, name=f"{name}.vi_bg", rng=rng)
            self.ca_iv_bg = CrossAttention(dim, dim, heads, name=f"{name}.iv_bg", rng=rng)
        else:
            self.ca_vi_bg = None
            self.ca_iv_bg = None


def cross_reconstruct(bundle: FeatureBundle, attn: MaskGuidedAttention) -> FeatureBundle:
    """Fill fvi/fiv from the four masked streams (foreground + background):
    fvi = vi_fg(fv_m, fi_m) + vi_bg(fv_mbar, fi_mbar), and fiv its mirror
    through the iv sets, on two lanes (see ``_reconstruct``)."""
    needed = (bundle.fv_m, bundle.fv_mbar, bundle.fi_m, bundle.fi_mbar)
    if any(s is None for s in needed):
        raise ValueError("cross_reconstruct: masked streams missing from bundle")
    if attn.ca_vi_bg is None:
        raise ValueError("cross_reconstruct: attention was built without background sets")
    return _reconstruct(bundle, needed,
                        lambda x: attn.ca_vi_fg(x[0], x[2]) + attn.ca_vi_bg(x[1], x[3]),
                        lambda x: attn.ca_iv_fg(x[2], x[0]) + attn.ca_iv_bg(x[3], x[1]))


def reconstruct_unmasked(bundle: FeatureBundle, attn: MaskGuidedAttention) -> FeatureBundle:
    """Mask-free variant: whole-image features through the foreground sets."""
    if bundle.fv is None or bundle.fi is None:
        raise ValueError("reconstruct_unmasked: global streams missing from bundle")
    return _reconstruct(bundle, (bundle.fv, bundle.fi),
                        lambda x: attn.ca_vi_fg(x[0], x[1]),
                        lambda x: attn.ca_iv_fg(x[1], x[0]))


def _reconstruct(bundle: FeatureBundle, streams, fvi, fiv) -> FeatureBundle:
    """Fill ``bundle``'s fvi and fiv with ``fvi(x)`` and ``fiv(x)``, x the
    ``streams`` stacked. The two share no parameter, so they are the two
    lanes of one ``T.lanes`` node."""
    x = T.concat([T.reshape(s, (1,) + s.shape) for s in streams])
    out = T.lanes(fvi, x, fiv, x)
    bundle.fvi, bundle.fiv = out[0], out[1]
    return bundle
