"""Attention building blocks: cross-attention, transformer block, patches.

Shows the attention weights summing to one, the single-key degenerate case,
and a 96x96 image turning into 576 tokens and back.
"""

import numpy as np

from ivfuse import rng as ivrng
from ivfuse.blocks import CrossAttention, PatchEmbed, PatchUnembed, TransformerBlock
from ivfuse.tensor import Tensor

gen = ivrng.derive(0, "demo-blocks")

print("== cross-attention ==")
ca = CrossAttention(d_q=8, dim=8, heads=2, name="demo", rng=gen)
queries = Tensor(np.random.default_rng(0).standard_normal((4, 8)))
keys_values = Tensor(np.random.default_rng(1).standard_normal((6, 8)))
weights = ca.attention_weights(queries, keys_values)
print("weights shape (heads, Nq, Nkv):", weights.shape)
print("rows sum to:", np.round(weights.sum(axis=-1), 6)[0])

single = Tensor(np.random.default_rng(2).standard_normal((1, 8)))
out = ca(queries, single)
print("single KV token -> every output row identical:",
      np.allclose(out.data, out.data[0]))

print("\n== transformer block keeps shape, zeroed weights are identity ==")
block = TransformerBlock(8, 2, name="demo-block", rng=gen)
tokens = Tensor(np.random.default_rng(3).standard_normal((5, 8)))
print("in", tokens.shape, "-> out", block(tokens).shape)
for p in block.parameters():
    if not p.name.endswith(".scale"):
        p.data = np.zeros_like(p.data)
print("identity after zeroing:", np.array_equal(block(tokens).data, tokens.data))

print("\n== patch embedding at the reference geometry ==")
embed = PatchEmbed(3, 4, 64, name="demo-embed", rng=gen)
unembed = PatchUnembed(64, 4, 3, name="demo-unembed", rng=gen)
image = Tensor(np.random.default_rng(4).random((3, 96, 96)))
tokens = embed(image)
print("96x96 RGB image ->", tokens.shape, "tokens  (24x24 grid of 4x4 patches)")
back = unembed(tokens, 96, 96)
print("unembed ->", back.shape, "(learned map, not an inverse)")
