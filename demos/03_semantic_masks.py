"""Mask semantics from text-conditioned noise differencing.

A fixture denoiser responds inside a planted rectangle only when the
caption still contains the keyword. Differencing its estimates under the
caption and the keyword-stripped caption recovers the rectangle exactly;
per-modality masks are unioned.
"""

import numpy as np

from ivfuse.providers import HashTextEncoder, PlantedRegionDenoiser, Rect
from ivfuse.sig import (KeywordSpec, TextDescription, embed_text,
                        mask_from_noise_diff, strip_keyword, union_masks)

caption = TextDescription.from_text("a car parked on a street")
spec = KeywordSpec("car", "vocabulary-match")
contrast = strip_keyword(caption, spec)
print("caption          :", caption.text)
print("keyword removed  :", contrast.text)

h, w = 24, 32
vis = np.random.default_rng(0).random((3, h, w))
ir = np.random.default_rng(1).random((1, h, w))
region = Rect(top=6, left=10, height=10, width=14)
denoiser = PlantedRegionDenoiser({"car": region}, amplitude=0.8)

m_vis = mask_from_noise_diff(vis, caption, contrast, denoiser)
m_ir = mask_from_noise_diff(ir, caption, contrast, denoiser)
mask = union_masks(m_vis, m_ir)
print("\nmask pixels set  :", int(mask.m.sum()), "of", h * w,
      "(planted rectangle:", region.height * region.width, "px)")
print("exact recovery   :", np.array_equal(mask.m, region.indicator(h, w)))
print("complement check :", np.array_equal(mask.m + mask.m_bar, np.ones((h, w))))

empty = mask_from_noise_diff(vis, caption, caption, denoiser)
print("same caption twice -> empty mask:", not empty.any())

text = embed_text(caption, HashTextEncoder(16))
print("\ntext semantics   :", text.embeddings.shape,
      "(one row per token, deterministic per token)")
