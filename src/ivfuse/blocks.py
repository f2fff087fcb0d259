"""Transformer building blocks on the autodiff core.

Multi-head cross-attention, pre-norm transformer blocks, and patch
embedding/unembedding. All layers hold ``Parameter`` objects and are pure
functions of (input, parameters); nothing mutates during a forward pass.
Weights initialize to truncated normal std 0.02, biases to zero, layer-norm
scale to 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .optim import Parameter
from .rng import truncated_normal
from .tensor import ShapeError, Tensor


class Module:
    """Minimal container: child modules and parameters are attributes."""

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        seen: set[int] = set()
        stack = [self]
        while stack:
            mod = stack.pop()
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for value in vars(mod).values():
                if isinstance(value, Parameter):
                    out.append(value)
                elif isinstance(value, Module):
                    stack.append(value)
                elif isinstance(value, (list, tuple)):
                    stack.extend(v for v in value if isinstance(v, Module))
        return out


class Linear(Module):
    """``x @ weight + bias`` over the last axis, as one ``T.matmul`` node:
    the bias is added in the product's buffer, so in grad mode the tape
    keeps no pre-bias product."""

    def __init__(self, d_in: int, d_out: int, *, name: str, rng):
        self.weight = Parameter(f"{name}.weight", truncated_normal(rng, (d_in, d_out)))
        self.bias = Parameter(f"{name}.bias", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, *, name: str):
        self.scale = Parameter(f"{name}.scale", np.ones(dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.scale, self.bias)


class Conv2d(Module):
    """3x3-style convolution on an NCHW grid, zero padding to keep size."""

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, *, name: str, rng):
        self.kernel = kernel
        self.weight = Parameter(f"{name}.weight", truncated_normal(rng, (c_out, c_in, kernel, kernel)))
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, padding=self.kernel // 2)


class CrossAttention(Module):
    """Scaled dot-product attention, queries from one stream, KV from another.

    Queries of width d_q and keys/values of width ``dim`` project to ``dim``,
    split across ``heads``; the output is ``dim`` wide too.
    """

    def __init__(self, d_q: int, dim: int, heads: int, *, name: str, rng):
        self.d_q, self.dim, self.heads = d_q, dim, heads
        self.w_q = Linear(d_q, dim, name=f"{name}.q", rng=rng)
        self.w_k = Linear(dim, dim, name=f"{name}.k", rng=rng)
        self.w_v = Linear(dim, dim, name=f"{name}.v", rng=rng)
        self.w_o = Linear(dim, dim, name=f"{name}.o", rng=rng)

    def _heads(self, queries: Tensor, keys_values: Tensor):
        """Check shapes, project and split heads.

        Returns queries (..., h, N_q, dh) pre-scaled by 1/sqrt(dh), transposed
        keys (..., h, dh, N_kv), values (..., h, N_kv, dh), and the axis
        permutation that swaps the token and head axes (its own inverse).
        """
        if queries.ndim not in (2, 3) or keys_values.ndim != queries.ndim:
            raise ShapeError(
                f"cross_attention: rank mismatch {queries.shape} vs {keys_values.shape}"
            )
        nq, dq = queries.shape[-2], queries.shape[-1]
        nkv, dkv = keys_values.shape[-2], keys_values.shape[-1]
        if dq != self.d_q or dkv != self.dim:
            raise ShapeError(
                f"cross_attention: query width {dq} / kv width {dkv} do not match "
                f"params ({self.d_q}, {self.dim})"
            )
        batch = queries.shape[:-2]
        h = self.heads
        dh = self.dim // h
        q = self.w_q(queries) * (1.0 / math.sqrt(dh))
        k = self.w_k(keys_values)
        v = self.w_v(keys_values)
        lead = tuple(range(len(batch)))
        perm = lead + (len(batch) + 1, len(batch), len(batch) + 2)
        q = T.transpose(T.reshape(q, batch + (nq, h, dh)), perm)
        kt = T.transpose(T.reshape(k, batch + (nkv, h, dh)),
                         lead + (len(batch) + 1, len(batch) + 2, len(batch)))
        v = T.transpose(T.reshape(v, batch + (nkv, h, dh)), perm)
        return q, kt, v, perm

    def __call__(self, queries: Tensor, keys_values: Tensor) -> Tensor:
        """Queries (N_q, D_q) or batched (B, N_q, D_q); KV shaped likewise.

        ``T.attention`` bounds the score memory: it runs in row chunks on
        either branch, with or without a tape, and its tape keeps no
        N_q x N_kv array (see ``T.attention``).
        """
        q, kt, v, perm = self._heads(queries, keys_values)
        mixed = T.attention(q, kt, v)                          # (..., h, Nq, dh)
        merged = T.reshape(T.transpose(mixed, perm), queries.shape[:-2] + (q.shape[-2], self.dim))
        return self.w_o(merged)

    def attention_weights(self, queries: Tensor, keys_values: Tensor) -> np.ndarray:
        """Per-head softmax weights (..., h, Nq, Nkv), for inspection and tests.

        The unfused chain's ``softmax(q @ kt)`` on the projected heads, all
        rows at once. ``T.attention`` keeps none of them; its backward
        recomputes each chunk's rows from their log-sum-exp within rounding.
        """
        with T.no_grad():
            q, kt, _, _ = self._heads(queries, keys_values)
            return T.softmax(T.matmul(q, kt)).data


class FeedForward(Module):
    """``outer(gelu(inner(x)))`` over the last axis, leading dims as one batch."""

    def __init__(self, dim: int, hidden: int, *, name: str, rng):
        self.inner = Linear(dim, hidden, name=f"{name}.inner", rng=rng)
        self.outer = Linear(hidden, dim, name=f"{name}.outer", rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.outer(T.gelu(self.inner(x)))


class TransformerBlock(Module):
    """Pre-norm residual block: x + SA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, dim: int, heads: int, *, name: str, rng):
        self.norm_attn = LayerNorm(dim, name=f"{name}.norm_attn")
        self.attn = CrossAttention(dim, dim, heads, name=f"{name}.attn", rng=rng)
        self.norm_ffn = LayerNorm(dim, name=f"{name}.norm_ffn")
        self.ffn = FeedForward(dim, 4 * dim, name=f"{name}.ffn", rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        normed = self.norm_attn(x)
        x = x + self.attn(normed, normed)
        x = x + self.ffn(self.norm_ffn(x))
        return x

    def in_row_lanes(self, x: Tensor, split: int) -> Tensor:
        """``self(x)`` for (N, D) tokens without a tape, the rows below
        ``split`` (see ``T.row_split``) as the first lane of ``T.two`` and
        the rest as its second. Only attention couples rows, so each
        lane takes its queries from its own rows and its keys and values
        from all N."""
        normed = self.norm_attn(x)

        def rows(r: slice) -> Tensor:
            y = x[r] + self.attn(normed[r], normed)
            return y + self.ffn(self.norm_ffn(y))

        return T.concat(T.two(lambda: rows(slice(0, split)), lambda: rows(slice(split, None))))


def _check_divisible(h: int, w: int, p: int) -> None:
    if h % p or w % p:
        raise ShapeError(f"patch size {p} does not divide image dims ({h}, {w})")


class PatchEmbed(Module):
    """Learned linear map over non-overlapping p x p patches, row-major order."""

    def __init__(self, c_in: int, patch: int, dim: int, *, name: str, rng):
        self.c_in, self.patch, self.dim = c_in, patch, dim
        self.proj = Linear(c_in * patch * patch, dim, name=f"{name}.proj", rng=rng)

    def __call__(self, image: Tensor) -> Tensor:
        """(..., C, H, W) -> (..., N, D): leading dims, such as a batch, are
        carried through."""
        if image.ndim < 3:
            raise ShapeError(f"patch_embed: expected (..., C, H, W), got {image.shape}")
        *lead, c, h, w = image.shape
        p = self.patch
        if c != self.c_in:
            raise ShapeError(f"patch_embed: expected {self.c_in} channels, got {c}")
        _check_divisible(h, w, p)
        gh, gw = h // p, w // p
        k = len(lead)
        x = T.reshape(image, (*lead, c, gh, p, gw, p))
        x = T.transpose(x, (*range(k), k + 1, k + 3, k, k + 2, k + 4))  # (..., gh, gw, c, p, p)
        x = T.reshape(x, (*lead, gh * gw, c * p * p))
        return self.proj(x)


class PatchUnembed(Module):
    """Learned linear map from tokens back to a C x H x W image."""

    def __init__(self, dim: int, patch: int, c_out: int, *, name: str, rng):
        self.c_out, self.patch, self.dim = c_out, patch, dim
        self.proj = Linear(dim, c_out * patch * patch, name=f"{name}.proj", rng=rng)

    def __call__(self, tokens: Tensor, h: int, w: int) -> Tensor:
        p = self.patch
        _check_divisible(h, w, p)
        gh, gw = h // p, w // p
        if tokens.shape[0] != gh * gw:
            raise ShapeError(f"patch_unembed: {tokens.shape[0]} tokens cannot tile ({h}, {w})")
        x = self.proj(tokens)                              # (N, c*p*p)
        x = T.reshape(x, (gh, gw, self.c_out, p, p))
        x = T.transpose(x, (2, 0, 3, 1, 4))                # (c, gh, p, gw, p)
        return T.reshape(x, (self.c_out, h, w))


def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Row-linear interpolation matrix (n_out, n_in), align-corners style."""
    m = np.zeros((n_out, n_in))
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    m[np.arange(n_out), lo] += 1.0 - frac
    m[np.arange(n_out), hi] += frac
    return m


class Encoder(Module):
    """Patch embedding + learned positional table + a stack of blocks.

    The positional table is learned at the configured base grid; other grid
    sizes reuse it through bilinear interpolation (two small matmuls), so the
    encoder stays differentiable at every resolution.
    """

    def __init__(self, c_in: int, patch: int, dim: int, heads: int, depth: int,
                 base_grid: tuple[int, int], *, name: str, rng):
        self.patch_embed = PatchEmbed(c_in, patch, dim, name=f"{name}.embed", rng=rng)
        self.base_grid = base_grid
        self.dim = dim
        gh, gw = base_grid
        self.pos = Parameter(f"{name}.pos", truncated_normal(rng, (gh * gw, dim)))
        self.blocks = [
            TransformerBlock(dim, heads, name=f"{name}.block{i}", rng=rng)
            for i in range(depth)
        ]

    def _pos_for(self, gh: int, gw: int) -> Tensor:
        bh, bw = self.base_grid
        pos = self.pos
        if (gh, gw) == (bh, bw):
            return pos
        grid = T.reshape(pos, (bh, bw * self.dim))
        grid = T.matmul(Tensor(_interp_matrix(gh, bh)), grid)          # rows
        grid = T.transpose(T.reshape(grid, (gh, bw, self.dim)), (1, 0, 2))
        grid = T.reshape(grid, (bw, gh * self.dim))
        grid = T.matmul(Tensor(_interp_matrix(gw, bw)), grid)          # cols
        grid = T.transpose(T.reshape(grid, (gw, gh, self.dim)), (1, 0, 2))
        return T.reshape(grid, (gh * gw, self.dim))

    def __call__(self, image: Tensor) -> Tensor:
        """(C,H,W) -> (N,D); a leading batch dim is carried through. Without a
        tape a batch runs one image at a time, so one image's activations are
        alive at once, with the same bits; with a tape it runs as one, since
        weight gradients summed image by image would round differently."""
        if image.ndim == 4 and image.shape[0] > 1 and not T.grad_enabled():
            return T.concat([self._encode(image[b:b + 1]) for b in range(image.shape[0])])
        return self._encode(image)

    def _encode(self, image: Tensor) -> Tensor:
        h, w = image.shape[-2], image.shape[-1]
        p = self.patch_embed.patch
        tokens = self.patch_embed(image)
        tokens = tokens + self._pos_for(h // p, w // p)
        for block in self.blocks:
            tokens = block(tokens)
        return tokens
