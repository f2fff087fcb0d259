"""Text-driven gated fusion of the reconstructed features.

The concatenated cross-modal features attend over the projected caption
embedding (text-informed reconstruction), per-modality gates come from a
convolution on the token grid, a two-layer conv head turns the text-informed
features into a single-channel spatial weight, and the final fusion blends
the two modality branches by that weight and the gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .blocks import Conv2d, CrossAttention, Linear, Module
from .sig import TextSemantics
from .tensor import ShapeError, Tensor


@dataclass
class GateMaps:
    g_v: Tensor    # (N, D), in (0, 1)
    g_i: Tensor    # (N, D), in (0, 1)
    alpha: Tensor  # (N, 1), in (0, 1)


def tokens_to_grid(tokens: Tensor, grid: tuple[int, int]) -> Tensor:
    """(N, D) row-major tokens -> (1, D, gh, gw) NCHW grid."""
    gh, gw = grid
    n, d = tokens.shape
    if n != gh * gw:
        raise ShapeError(f"tokens_to_grid: {n} tokens cannot fill a {gh}x{gw} grid")
    x = T.reshape(tokens, (gh, gw, d))
    x = T.transpose(x, (2, 0, 1))
    return T.reshape(x, (1, d, gh, gw))


def grid_to_tokens(grid_tensor: Tensor) -> Tensor:
    """(1, D, gh, gw) -> (N, D) row-major tokens."""
    _, d, gh, gw = grid_tensor.shape
    x = T.reshape(grid_tensor, (d, gh, gw))
    x = T.transpose(x, (1, 2, 0))
    return T.reshape(x, (gh * gw, d))


class TextFusionParams(Module):
    """Parameters of the text-driven fusion stage.

    ``use_text`` selects the reconstruction route: the full model projects
    the caption embedding and cross-attends to it; the text-free ablation
    replaces that with a plain linear projection of the concatenated
    features. Both routes feed the same spatial-attention head.
    """

    def __init__(self, dim: int, heads: int, text_dim: int, *, name: str, rng,
                 gate_kernel: int = 3, use_text: bool = True):
        self.dim = dim
        self.use_text = use_text
        if use_text:
            self.text_proj = Linear(text_dim, dim, name=f"{name}.text_proj", rng=rng)
            self.ca = CrossAttention(2 * dim, dim, heads, name=f"{name}.ca", rng=rng)
            self.concat_proj = None
        else:
            self.text_proj = None
            self.ca = None
            self.concat_proj = Linear(2 * dim, dim, name=f"{name}.concat_proj", rng=rng)
        self.gate_conv_v = Conv2d(dim, dim, gate_kernel, name=f"{name}.gate_v", rng=rng)
        self.gate_conv_i = Conv2d(dim, dim, gate_kernel, name=f"{name}.gate_i", rng=rng)
        self.sa_conv1 = Conv2d(dim, dim // 2, 3, name=f"{name}.sa1", rng=rng)
        self.sa_conv2 = Conv2d(dim // 2, 1, 3, name=f"{name}.sa2", rng=rng)


def text_informed_reconstruction(fvi: Tensor, fiv: Tensor, text: TextSemantics,
                                 params: TextFusionParams) -> Tensor:
    """Attend the concatenated features over the projected caption tokens."""
    if params.ca is None:
        raise ValueError("text_informed_reconstruction: params built without the text route")
    if text.length < 1:
        raise ValueError("text_informed_reconstruction: empty text semantics")
    if text.width != params.text_proj.weight.shape[0]:
        raise ShapeError(
            f"text width {text.width} does not match projection "
            f"({params.text_proj.weight.shape[0]})"
        )
    queries = T.concat([fvi, fiv], axis=1)           # (N, 2D)
    kv = params.text_proj(Tensor(text.embeddings))   # (L, D)
    return params.ca(queries, kv)


def concat_reconstruction(fvi: Tensor, fiv: Tensor, params: TextFusionParams) -> Tensor:
    """Text-free route: linear projection of the concatenated features."""
    if params.concat_proj is None:
        raise ValueError("concat_reconstruction: params built with the text route")
    return params.concat_proj(T.concat([fvi, fiv], axis=1))


def compute_gates(fv: Tensor, fvi: Tensor, fi: Tensor, fiv: Tensor,
                  params: TextFusionParams, grid: tuple[int, int]) -> tuple[Tensor, Tensor]:
    """Sigmoid gates from a convolution over each modality's summed features."""
    sv = tokens_to_grid(fv + fvi, grid)
    si = tokens_to_grid(fi + fiv, grid)
    g_v = grid_to_tokens(T.sigmoid(params.gate_conv_v(sv)))
    g_i = grid_to_tokens(T.sigmoid(params.gate_conv_i(si)))
    return g_v, g_i


def spatial_attention(fr: Tensor, params: TextFusionParams,
                      grid: tuple[int, int]) -> Tensor:
    """Single-channel spatial weight: sigmoid(conv(relu(conv(F_r))))."""
    x = tokens_to_grid(fr, grid)
    x = params.sa_conv2(T.relu(params.sa_conv1(x)))
    return grid_to_tokens(T.sigmoid(x))             # (N, 1)


def gated_fusion(fv: Tensor, fvi: Tensor, fi: Tensor, fiv: Tensor,
                 gates: GateMaps) -> Tensor:
    """alpha [1+G_v] (F_v+F_vi) + (1-alpha) [1+G_i] (F_i+F_iv), elementwise."""
    n, d = fv.shape
    for name, t, want in (("g_v", gates.g_v, (n, d)), ("g_i", gates.g_i, (n, d)),
                          ("alpha", gates.alpha, (n, 1))):
        if t.shape != want:
            raise ShapeError(f"gated_fusion: {name} has shape {t.shape}, expected {want}")
    vis_branch = (Tensor(1.0) + gates.g_v) * (fv + fvi)
    ir_branch = (Tensor(1.0) + gates.g_i) * (fi + fiv)
    return gates.alpha * vis_branch + (Tensor(1.0) - gates.alpha) * ir_branch
