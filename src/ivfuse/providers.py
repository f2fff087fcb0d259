"""Provider seams for the pretrained components, with deterministic fixtures.

A provider is any object with the right method; the fixtures below are the
in-repo stand-ins that make the whole pipeline runnable and exactly testable
with zero downloads. Dropping in a real captioner / text encoder / denoiser
means implementing the same three methods against the real model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from .rng import derive
from .sig import TextDescription, image_content_hash


class Captioner(Protocol):
    def caption(self, image: np.ndarray) -> str: ...


class TextEncoder(Protocol):
    def encode(self, text: TextDescription) -> np.ndarray: ...


class Denoiser(Protocol):
    def estimate_noise(self, noisy: np.ndarray, text: TextDescription,
                       noise_level: float) -> np.ndarray: ...


@dataclass(frozen=True)
class Rect:
    """Axis-aligned region in pixel coordinates."""

    top: int
    left: int
    height: int
    width: int

    def indicator(self, h: int, w: int) -> np.ndarray:
        out = np.zeros((h, w))
        out[self.top:self.top + self.height, self.left:self.left + self.width] = 1.0
        return out

    @classmethod
    def from_any(cls, spec) -> "Rect":
        if isinstance(spec, Rect):
            return spec
        t, l, h, w = (int(v) for v in spec)
        return cls(t, l, h, w)


class LookupCaptioner:
    """Caption table keyed by image content hash."""

    def __init__(self, captions: Mapping[str, str]):
        self.captions = dict(captions)

    def caption(self, image: np.ndarray) -> str:
        key = image_content_hash(image)
        if key not in self.captions:
            raise KeyError(f"no caption configured for image {key[:12]}")
        return self.captions[key]


class HashTextEncoder:
    """Embeds each token as a pseudo-random vector seeded by its bytes.

    Equal tokens always embed identically, across runs and instances.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim
        self._memo: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        if token not in self._memo:
            gen = derive(0, "token-embedding", token)
            self._memo[token] = gen.standard_normal(self.dim)
        return self._memo[token]

    def encode(self, text: TextDescription) -> np.ndarray:
        return np.stack([self._token_vector(tok) for tok in text.tokens])


class PlantedRegionDenoiser:
    """Noise estimator whose text response is a configured rectangle.

    For each configured key that appears in the caption (as the exact
    caption text or as a token), the estimate gains ``amplitude`` inside the
    key's rectangle. With the keyword stripped from the contrast caption,
    the estimate difference is exactly the planted region.
    """

    def __init__(self, regions: Mapping[str, object], amplitude: float = 1.0):
        self.regions = {k: Rect.from_any(v) for k, v in regions.items()}
        self.amplitude = float(amplitude)

    def estimate_noise(self, noisy: np.ndarray, text: TextDescription,
                       noise_level: float) -> np.ndarray:
        c, h, w = noisy.shape
        plane = np.zeros((h, w))
        for key, rect in self.regions.items():
            if key == text.text or key in text.tokens:
                plane += self.amplitude * rect.indicator(h, w)
        return np.broadcast_to(plane, (c, h, w)).copy()

