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
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
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
        i_vis = i_vis if isinstance(i_vis, Tensor) else Tensor(i_vis)
        i_ir = i_ir if isinstance(i_ir, Tensor) else Tensor(i_ir)
        _, h, w = i_vis.shape

        _stage.name = "encode-streams"
        if self.variant == "no-mgca":
            bundle = encode_streams(i_vis, i_ir, mask, self.vis_encoder,
                                    self.ir_encoder, streams="global")
            _stage.name = "cross-reconstruct"
            bundle = reconstruct_unmasked(bundle, self.mgca)
        else:
            only = "masked" if self.variant == "no-gaf" else "all"
            bundle = encode_streams(i_vis, i_ir, mask, self.vis_encoder,
                                    self.ir_encoder, streams=only)
            _stage.name = "cross-reconstruct"
            bundle = cross_reconstruct(bundle, self.mgca)

        _stage.name = "token-fusion"
        tokens = self._fuse_tokens(bundle, text, alpha_override)
        _stage.name = "decode"
        for block in self.decoder_blocks:
            tokens = block(tokens)
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


def _pad_to_multiple(arr: np.ndarray, p: int) -> np.ndarray:
    h, w = arr.shape[-2], arr.shape[-1]
    ph = (-h) % p
    pw = (-w) % p
    if ph == 0 and pw == 0:
        return arr
    spec = [(0, 0)] * (arr.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(arr, spec, mode="reflect")


def fuse(model: FusionModel, pair: ImagePair,
         semantics: tuple[MaskSemantics, TextSemantics] | None = None) -> np.ndarray:
    """Inference-mode fusion: returns a (3,H,W) float64 image in [0,1].

    Dimensions that are not multiples of the patch size are reflect-padded
    up front and the output is cropped back. Pure given a frozen model, so
    concurrent calls over different pairs are safe; parameters must not be
    mutated while a batch is in flight.
    """
    if semantics is not None:
        mask, text = semantics
    else:
        mask, text = pair.mask, pair.text
    if mask is None or text is None:
        raise StageError("fuse: pair has no mask/text semantics and none were supplied")
    h, w = pair.height, pair.width
    if mask.m.shape != (h, w):
        raise StageError(f"fuse: mask {mask.m.shape} does not match pair "
                         f"{pair.pair_id!r} of size {(h, w)}")
    p = model.config.patch
    i_vis = _pad_to_multiple(pair.i_vis, p)
    i_ir = _pad_to_multiple(pair.i_ir, p)
    mask_arr = _pad_to_multiple(mask.m, p)
    padded_mask = MaskSemantics(mask_arr, provenance=mask.provenance) \
        if mask_arr.shape != mask.m.shape else mask
    _stage.name = "setup"
    try:
        with T.no_grad():
            out = model.forward(i_vis, i_ir, padded_mask, text)
    except Exception as e:
        raise StageError(
            f"fuse failed in stage {_stage.name} for pair {pair.pair_id!r}: {e}") from e
    img = out.data[:, :h, :w]
    return np.clip(img, 0.0, 1.0)


@dataclass
class FuseResult:
    pair_id: str
    image: np.ndarray | None
    seconds: float
    error: str | None = None


def fuse_batch(model: FusionModel, pairs, semantics_for=None) -> list[FuseResult]:
    """Fuse pairs in order; failures are collected, not raised.

    ``semantics_for(pair)`` supplies (mask, text) when pairs do not carry
    their own.
    """
    results: list[FuseResult] = []
    for pair in pairs:
        start = time.perf_counter()
        try:
            sem = semantics_for(pair) if semantics_for is not None else None
            img = fuse(model, pair, sem)
            results.append(FuseResult(pair.pair_id, img, time.perf_counter() - start))
        except Exception as e:
            results.append(FuseResult(pair.pair_id, None, time.perf_counter() - start, str(e)))
    return results
