"""The full fusion network: encoders -> masked cross-attention -> text-driven
gated fusion -> transformer decoder -> RGB image.

Variants switch stages off for the ablation harness:
  full     the whole pipeline
  no-mgca  no mask decomposition; whole-image cross-attention only
  no-tivr  no text attention; the spatial weight comes from a linear
           projection of the concatenated features
  no-gaf   no gating at all; decode the summed reconstructed features
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blas import one_blas_thread
from .blocks import Encoder, Module, PatchUnembed, TransformerBlock
from .dataset import ImagePair
from .mgca import (FeatureBundle, MaskGuidedAttention, cross_reconstruct,
                   encode_streams, reconstruct_unmasked)
from .rng import derive
from .sig import MaskSemantics, TextSemantics
from .tdaf import (GateMaps, TextFusionParams, compute_gates,
                   concat_reconstruction, gated_fusion, spatial_attention,
                   text_informed_reconstruction)
from .tensor import Tensor

VARIANTS = ("full", "no-mgca", "no-tivr", "no-gaf")

# The forward stage the calling thread is in, for StageError messages. Per
# thread because concurrent ``fuse`` calls share one model.
_stage = threading.local()


@dataclass(frozen=True)
class ModelConfig:
    patch: int = 4
    dim: int = 64
    heads: int = 4
    text_dim: int = 64
    depth: int = 4
    gate_kernel: int = 3
    base_grid: tuple[int, int] = (24, 24)  # token grid of the training crop

    def __post_init__(self):
        for name in ("patch", "dim", "heads", "text_dim", "depth", "gate_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.base_grid) != 2 or min(self.base_grid) < 1:
            raise ValueError(f"base_grid must be two sizes >= 1, got {self.base_grid}")
        if self.dim % self.heads:
            raise ValueError(f"heads {self.heads} must divide dim {self.dim}")
        if self.gate_kernel % 2 == 0:
            raise ValueError(f"gate_kernel must be odd, got {self.gate_kernel}")


class FusionModel(Module):
    def __init__(self, config: ModelConfig = ModelConfig(), variant: str = "full",
                 seed: int = 0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        self.config = config
        self.variant = variant
        c = config
        rng = derive(seed, "init", variant)
        self.vis_encoder = Encoder(3, c.patch, c.dim, c.heads, c.depth, c.base_grid,
                                   name="vis_encoder", rng=rng)
        self.ir_encoder = Encoder(1, c.patch, c.dim, c.heads, c.depth, c.base_grid,
                                  name="ir_encoder", rng=rng)
        self.mgca = MaskGuidedAttention(c.dim, c.heads, name="mgca", rng=rng,
                                        with_background=(variant != "no-mgca"))
        self.tdaf = TextFusionParams(c.dim, c.heads, c.text_dim, name="tdaf", rng=rng,
                                     gate_kernel=c.gate_kernel,
                                     use_text=(variant != "no-tivr"))
        self.decoder_blocks = [
            TransformerBlock(c.dim, c.heads, name=f"decoder.block{i}", rng=rng)
            for i in range(c.depth)
        ]
        self.unembed = PatchUnembed(c.dim, c.patch, 3, name="decoder.unembed", rng=rng)

    def trainable_parameters(self):
        """Parameters the variant's forward graph actually reaches."""
        if self.variant == "no-gaf":
            tdaf_names = {p.name for p in self.tdaf.parameters()}
            return [p for p in self.parameters() if p.name not in tdaf_names]
        return self.parameters()

    # -- forward -------------------------------------------------------------

    def forward(self, i_vis, i_ir, mask: MaskSemantics, text: TextSemantics,
                alpha_override: Tensor | None = None) -> Tensor:
        """Fused image as a (3,H,W) tensor in (0,1); tracks gradients."""
        _, h, w = i_vis.shape

        _stage.name = "encode-streams"
        streams = {"no-mgca": "global", "no-gaf": "masked"}.get(self.variant, "all")
        bundle = encode_streams(i_vis, i_ir, mask, self.vis_encoder, self.ir_encoder,
                                streams=streams)
        _stage.name = "cross-reconstruct"
        reconstruct = reconstruct_unmasked if self.variant == "no-mgca" else cross_reconstruct
        bundle = reconstruct(bundle, self.mgca)

        _stage.name = "token-fusion"
        tokens = self._fuse_tokens(bundle, text, alpha_override)
        _stage.name = "decode"
        split = T.row_split(tokens.shape[0])
        for block in self.decoder_blocks:
            tokens = block(tokens) if split is None else block.in_row_lanes(tokens, split)
        logits = self.unembed(tokens, h, w)
        return T.sigmoid(logits)

    def _fuse_tokens(self, bundle: FeatureBundle, text: TextSemantics,
                     alpha_override: Tensor | None) -> Tensor:
        if self.variant == "no-gaf":
            return bundle.fvi + bundle.fiv
        fv, fi = bundle.fv, bundle.fi
        g_v, g_i = compute_gates(fv, bundle.fvi, fi, bundle.fiv, self.tdaf, bundle.grid)
        if alpha_override is not None:
            alpha = alpha_override
        else:
            if self.tdaf.use_text:
                fr = text_informed_reconstruction(bundle.fvi, bundle.fiv, text, self.tdaf)
            else:
                fr = concat_reconstruction(bundle.fvi, bundle.fiv, self.tdaf)
            alpha = spatial_attention(fr, self.tdaf, bundle.grid)
        gates = GateMaps(g_v=g_v, g_i=g_i, alpha=alpha)
        return gated_fusion(fv, bundle.fvi, fi, bundle.fiv, gates)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""


def reflect_pad(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Reflect-pad the last two axes at the bottom and right to at least
    ``height`` x ``width``; ``arr`` itself when it is that large already."""
    ph, pw = max(0, height - arr.shape[-2]), max(0, width - arr.shape[-1])
    if ph == 0 and pw == 0:
        return arr
    spec = [(0, 0)] * (arr.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(arr, spec, mode="reflect")


def fuse(model: FusionModel, pair: ImagePair,
         semantics: tuple[MaskSemantics, TextSemantics]) -> np.ndarray:
    """Inference-mode fusion: returns a (3,H,W) float64 image in [0,1].

    ``semantics`` is the pair's (mask, text). Dimensions that are not
    multiples of the patch size are reflect-padded up front and the output
    is cropped back. A call holds OpenBLAS at one thread where its thread
    count can be set (see ``ivfuse.blas``), and so uses two threads, its
    own and its hold's one helper, joined before it returns or raises: the
    visible encoder runs on the helper beside the infrared one, each
    encoding its three streams one after another, then fvi's reconstruction
    beside fiv's, then in each decoder block the lower token rows beside the
    upper ones (split on attention's chunk grid, see ``T.row_split``). Its
    bits do not depend on the machine's core count.
    Pure given a frozen model, so concurrent calls over different pairs are
    safe, and the last one to finish restores OpenBLAS's thread count;
    parameters must not be mutated while any call is in flight.
    """
    mask, text = semantics
    h, w = pair.height, pair.width
    if mask.m.shape != (h, w):
        raise StageError(f"fuse: mask {mask.m.shape} does not match pair "
                         f"{pair.pair_id!r} of size {(h, w)}")
    p = model.config.patch
    ph, pw = h + (-h) % p, w + (-w) % p
    i_vis = reflect_pad(pair.i_vis, ph, pw)
    i_ir = reflect_pad(pair.i_ir, ph, pw)
    padded_mask = mask if (ph, pw) == (h, w) else MaskSemantics(reflect_pad(mask.m, ph, pw))
    _stage.name = "setup"
    try:
        # The hold spans the whole forward, not just the encoders: after a
        # stage on two BLAS threads, OpenBLAS's idle worker spins for a while
        # and takes a core from the next call's helper thread.
        with T.no_grad(), one_blas_thread():
            out = model.forward(i_vis, i_ir, padded_mask, text)
    except Exception as e:
        raise StageError(
            f"fuse failed in stage {_stage.name} for pair {pair.pair_id!r}: {e}") from e
    img = out.data[:, :h, :w]
    return np.clip(img, 0.0, 1.0)
