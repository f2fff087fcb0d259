"""Semantic generation: captions, contrast captions, masks, text embeddings.

The heavy pretrained pieces (captioner, text encoder, denoiser) sit behind
provider objects (see providers.py for the interface and the deterministic
fixtures). What lives here is the testable procedure: caption the visible
image, strip the task keyword to get a contrast caption, read a foreground
mask out of the denoiser's noise-estimate difference under the two captions,
union the per-modality masks, and embed the caption tokens.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import derive
from .tensor import ShapeError


class ProviderError(RuntimeError):
    """A provider failed or returned something unusable."""


@dataclass(frozen=True)
class TextDescription:
    """Whitespace-canonical caption: tokens joined by single spaces."""

    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str) -> "TextDescription":
        tokens = tuple(text.split())
        return cls(" ".join(tokens), tokens)

    def __post_init__(self):
        if " ".join(self.tokens) != self.text:
            raise ValueError("TextDescription: tokens do not re-join to text")


@dataclass(frozen=True)
class KeywordSpec:
    keyword: str
    source: str  # "config" or "vocabulary-match"


@dataclass(frozen=True)
class TextSemantics:
    embeddings: np.ndarray  # (L, D_t)

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]

    @property
    def width(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class MaskSemantics:
    """Binary foreground map and its complement."""

    m: np.ndarray
    m_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m = np.ascontiguousarray(self.m, dtype=np.float64)
        vals = np.unique(self.m)
        if not np.all(np.isin(vals, (0.0, 1.0))):
            raise ValueError("MaskSemantics: mask must be strictly binary")
        self.m_bar = 1.0 - self.m


def image_content_hash(image: np.ndarray) -> str:
    arr = np.ascontiguousarray(image, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


# -- captioning ----------------------------------------------------------------


def select_keyword(t: TextDescription, vocabulary, configured: str | None = None) -> KeywordSpec | None:
    """Pick the task keyword: configured word, else first vocabulary hit in T."""
    if configured:
        return KeywordSpec(configured, "config")
    lowered = [tok.casefold() for tok in t.tokens]
    for word in vocabulary:
        if word.casefold() in lowered:
            return KeywordSpec(word, "vocabulary-match")
    return None


def strip_keyword(t: TextDescription, spec: KeywordSpec) -> TextDescription:
    """Remove all whole-word occurrences of the keyword, case-insensitive.

    Absence is not an error; the caption is returned unchanged with a
    warning so callers can notice a mask that will come out empty.
    """
    kw = spec.keyword.casefold()
    kept = [tok for tok in t.tokens if tok.casefold() != kw]
    if len(kept) == len(t.tokens):
        warnings.warn(f"keyword {spec.keyword!r} not present in caption {t.text!r}", stacklevel=2)
        return t
    return TextDescription.from_text(" ".join(kept))


# -- mask generation -------------------------------------------------------------


@dataclass(frozen=True)
class MaskSettings:
    """Every setting a mask depends on besides its images and caption, in
    the order the mask-cache key lists them."""

    vocabulary: tuple[str, ...] = ("person", "car", "bike")
    keyword: str = ""               # forced task keyword; empty = vocabulary match
    threshold_policy: str = "otsu"  # or "fixed"
    tau: float = 0.5                # threshold when threshold_policy = fixed
    noise_level: float = 0.5
    noise_seed: int = 0

    def __post_init__(self):
        if self.threshold_policy not in ("otsu", "fixed"):
            raise ValueError(f"threshold_policy must be otsu or fixed, got {self.threshold_policy!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")


def otsu_threshold(values: np.ndarray) -> float:
    """Otsu's between-class-variance threshold over 256 bins of [0, 1]."""
    hist, edges = np.histogram(values.ravel(), bins=256, range=(0.0, 1.0))
    total = hist.sum()
    if total == 0:
        return 0.5
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(hist)
    w1 = total - w0
    sum0 = np.cumsum(hist * centers)
    mean_all = sum0[-1] / total
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (sum0[-1] - sum0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1.0
    best = between.max()
    if best <= 0.0:
        return float(mean_all)
    plateau = np.flatnonzero(between == best)
    idx = int(plateau[(len(plateau) - 1) // 2])  # midpoint of a flat maximum
    return float(centers[idx])


def _as_chw(image: np.ndarray) -> np.ndarray:
    if image.ndim == 2:
        return image[None, :, :]
    if image.ndim == 3 and image.shape[0] in (1, 3):
        return image
    raise ShapeError(f"expected (H,W) or (1|3,H,W from NCHW) image, got {image.shape}")


def mask_from_noise_diff(image: np.ndarray, t: TextDescription, t_hat: TextDescription,
                         denoiser, settings: MaskSettings = MaskSettings(),
                         content_hash: str | None = None) -> np.ndarray:
    """Binary map from the denoiser's response difference under T vs T-hat.

    Gaussian noise (``settings.noise_level`` times a normal draw seeded by
    ``settings.noise_seed`` and the image) is added once; the denoiser is
    queried under both captions; the absolute estimate difference is reduced
    over channels by mean, min-max normalized (all-zeros if flat), then
    binarized by Otsu or by ``settings.tau``, as ``settings.threshold_policy``
    says. ``content_hash`` is the image's ``image_content_hash`` in (C,H,W)
    form, when the caller has taken it.
    """
    img = _as_chw(np.asarray(image, dtype=np.float64))
    level = settings.noise_level
    gen = derive(settings.noise_seed, "mask-noise", content_hash or image_content_hash(img))
    noisy = img + level * gen.standard_normal(img.shape)
    est_t = np.asarray(denoiser.estimate_noise(noisy, t, level), dtype=np.float64)
    est_hat = np.asarray(denoiser.estimate_noise(noisy, t_hat, level), dtype=np.float64)
    for est, label in ((est_t, "T"), (est_hat, "T-hat")):
        if est.shape != img.shape:
            raise ShapeError(
                f"denoiser estimate under {label} has shape {est.shape}, expected {img.shape}"
            )
    diff = np.abs(est_t - est_hat).mean(axis=0)
    lo, hi = diff.min(), diff.max()
    if hi == lo:
        return np.zeros(diff.shape)
    norm = (diff - lo) / (hi - lo)
    thr = otsu_threshold(norm) if settings.threshold_policy == "otsu" else float(settings.tau)
    return (norm > thr).astype(np.float64)


def union_masks(m_vis: np.ndarray, m_ir: np.ndarray) -> MaskSemantics:
    """Elementwise-maximum union of the per-modality masks."""
    m_vis = np.asarray(m_vis, dtype=np.float64)
    m_ir = np.asarray(m_ir, dtype=np.float64)
    if m_vis.shape != m_ir.shape:
        raise ShapeError(f"union_masks: shapes differ, {m_vis.shape} vs {m_ir.shape}")
    return MaskSemantics(np.maximum(m_vis, m_ir))


# -- text embedding ---------------------------------------------------------------


def embed_text(t: TextDescription, encoder) -> TextSemantics:
    if not t.tokens:
        raise ProviderError("embed_text: empty caption")
    try:
        emb = np.asarray(encoder.encode(t), dtype=np.float64)
    except ProviderError:
        raise
    except Exception as e:
        raise ProviderError(f"text encoder failed on {t.text!r}: {e}") from e
    if emb.ndim != 2 or emb.shape[0] < 1:
        raise ProviderError(f"text encoder returned shape {emb.shape}, expected (L, D_t)")
    if not np.all(np.isfinite(emb)):
        raise ProviderError("text encoder returned non-finite embeddings")
    return TextSemantics(np.ascontiguousarray(emb))


# -- mask cache ------------------------------------------------------------------

MASK_MAGIC = b"IVM1"


class MaskCacheError(ValueError):
    """A mask cache file is not a whole, well-formed mask."""


def write_mask(path, mask: np.ndarray) -> None:
    """Packed 1-bit bitmap with an 8-byte header (magic, H, W); atomic write."""
    mask = np.asarray(mask)
    h, w = mask.shape
    if h > 0xFFFF or w > 0xFFFF:
        raise ValueError(f"mask too large for cache format: {mask.shape}")
    payload = np.packbits(mask.astype(bool), axis=None).tobytes()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MASK_MAGIC + struct.pack("<HH", h, w) + payload)
    os.replace(tmp, path)


def read_mask(path) -> np.ndarray:
    """Inverse of ``write_mask``; the file must be exactly 8 + ceil(H*W/8)
    bytes, and the last byte's padding bits zero."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8 or raw[:4] != MASK_MAGIC:
        raise MaskCacheError(f"{path}: not a mask cache file")
    h, w = struct.unpack("<HH", raw[4:8])
    want = 8 + (h * w + 7) // 8
    if len(raw) != want:
        raise MaskCacheError(f"{path}: {len(raw)} bytes, expected {want} for a {h}x{w} mask")
    if h * w % 8 and raw[-1] & (0xFF >> h * w % 8):
        raise MaskCacheError(f"{path}: padding bits after the {h}x{w} mask are not zero")
    bits = np.unpackbits(np.frombuffer(raw[8:], dtype=np.uint8), count=h * w)
    return bits.reshape(h, w).astype(np.float64)


class SemanticGenerator:
    """Glue object: providers and a mask cache, producing per-pair semantics.

    It keeps no caption: a caller that needs both the mask and the text of a
    pair asks for the caption once and passes it to both calls as
    ``caption``. Calls to exclusive providers are not parallelized; mask
    cache writes are atomic, so concurrent readers never observe a partial
    file.
    """

    def __init__(self, captioner, text_encoder, denoiser, settings=MaskSettings(), *,
                 cache_dir=None):
        self.captioner = captioner
        self.text_encoder = text_encoder
        self.denoiser = denoiser
        self.settings = settings
        self.cache_dir = cache_dir
        if cache_dir is not None:
            os.makedirs(os.path.join(cache_dir, "masks"), exist_ok=True)

    def caption_for(self, image: np.ndarray) -> TextDescription:
        """The captioner's caption of ``image``; each call asks the captioner."""
        try:
            raw = self.captioner.caption(image)
        except Exception as e:
            raise ProviderError(
                f"captioner failed for image {image_content_hash(image)[:12]}: {e}") from e
        if not raw or not raw.strip():
            raise ProviderError(
                f"captioner returned an empty caption for image {image_content_hash(image)[:12]}")
        return TextDescription.from_text(raw)

    def contrast_caption(self, t: TextDescription) -> TextDescription:
        spec = select_keyword(t, self.settings.vocabulary, configured=self.settings.keyword)
        if spec is None:
            warnings.warn(f"no vocabulary keyword found in caption {t.text!r}", stacklevel=2)
            return t
        return strip_keyword(t, spec)

    def mask_for_pair(self, i_vis: np.ndarray, i_ir: np.ndarray, pair_id: str | None = None,
                      caption: TextDescription | None = None) -> MaskSemantics:
        """Union of visible and infrared masks.

        A given ``caption`` replaces the captioner's caption of ``i_vis``.
        With a cache directory and a pair id, the mask is cached as
        ``masks/<key>.mask``, where the key digests every input the mask
        depends on (``_mask_key``), so a changed image, caption or
        setting never reads a stale mask. An entry that ``read_mask``
        rejects, or of another size than the images, is a miss: the mask is
        computed again and the entry rewritten.
        """
        vis = _as_chw(np.asarray(i_vis, dtype=np.float64))
        ir = _as_chw(np.asarray(i_ir, dtype=np.float64))
        h_vis, h_ir = image_content_hash(vis), image_content_hash(ir)
        t = caption or self.caption_for(vis)
        cache_path = None
        if self.cache_dir is not None and pair_id is not None:
            key = self._mask_key(h_vis, h_ir, t)
            cache_path = os.path.join(self.cache_dir, "masks", key + ".mask")
            try:
                cached = read_mask(cache_path)
                if cached.shape == vis.shape[-2:]:
                    return MaskSemantics(cached)
            except (FileNotFoundError, MaskCacheError):
                pass  # a miss: computed and rewritten below
        t_hat = self.contrast_caption(t)
        m_vis = mask_from_noise_diff(vis, t, t_hat, self.denoiser, self.settings, h_vis)
        m_ir = mask_from_noise_diff(ir, t, t_hat, self.denoiser, self.settings, h_ir)
        semantics = union_masks(m_vis, m_ir)
        if cache_path is not None:
            write_mask(cache_path, semantics.m)
        return semantics

    def _mask_key(self, h_vis: str, h_ir: str, caption: TextDescription) -> str:
        """SHA-256 hex digest naming a cached mask: both images' content hashes,
        the caption used, and every mask setting of this generator. An empty
        keyword enters the JSON as null."""
        s = self.settings
        fields = [h_vis, h_ir, caption.text, list(s.vocabulary), s.keyword or None,
                  s.threshold_policy, float(s.tau), float(s.noise_level), int(s.noise_seed)]
        return hashlib.sha256(json.dumps(fields).encode()).hexdigest()

    def text_for_pair(self, i_vis: np.ndarray,
                      caption: TextDescription | None = None) -> TextSemantics:
        """Embedding of ``caption``, else of the captioner's caption of ``i_vis``."""
        return embed_text(caption or self.caption_for(i_vis), self.text_encoder)
