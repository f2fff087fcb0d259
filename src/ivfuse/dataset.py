"""Paired dataset layout, registered image pairs, and the synthetic generator.

A dataset root holds ``vis/`` and ``ir/`` with shared filename stems as pair
ids, plus optional precomputed ``masks/`` (packed bitmaps) and ``captions/``
(plain text per pair). The synthetic generator fabricates registered pairs
(textured visible scenes, hot-region infrared scenes) together with the
fixture file the providers need, so the whole pipeline runs offline.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .imgio import load_image, save_image
from .providers import (HashTextEncoder, LookupCaptioner, PlantedRegionDenoiser,
                        Rect)
from .rng import derive
from .sig import (MaskCacheError, MaskSemantics, MaskSettings, SemanticGenerator,
                  TextDescription, image_content_hash, read_mask)

IMAGE_EXTENSIONS = (".png", ".ppm", ".pgm", ".pnm")


class DatasetError(ValueError):
    pass


@dataclass
class ImagePair:
    """Registered visible (3,H,W) + infrared (1,H,W) images in [0,1]."""

    pair_id: str
    i_vis: np.ndarray
    i_ir: np.ndarray
    mask: MaskSemantics | None = None
    caption: TextDescription | None = None

    def __post_init__(self):
        self.i_vis = np.clip(np.asarray(self.i_vis, dtype=np.float64), 0.0, 1.0)
        self.i_ir = np.clip(np.asarray(self.i_ir, dtype=np.float64), 0.0, 1.0)
        if self.i_vis.ndim != 3 or self.i_vis.shape[0] != 3:
            raise DatasetError(f"{self.pair_id}: visible image must be (3,H,W), got {self.i_vis.shape}")
        if self.i_ir.ndim != 3 or self.i_ir.shape[0] != 1:
            raise DatasetError(f"{self.pair_id}: infrared image must be (1,H,W), got {self.i_ir.shape}")
        if self.i_vis.shape[1:] != self.i_ir.shape[1:]:
            raise DatasetError(
                f"{self.pair_id}: unregistered pair, visible {self.i_vis.shape[1:]} "
                f"vs infrared {self.i_ir.shape[1:]}"
            )

    @property
    def height(self) -> int:
        return self.i_vis.shape[1]

    @property
    def width(self) -> int:
        return self.i_vis.shape[2]


def stem_index(directory) -> dict[str, Path]:
    """Image files directly under ``directory`` by filename stem; empty if
    it is not a directory. A subdirectory is no image, whatever its name."""
    directory = Path(directory)
    out: dict[str, Path] = {}
    if not directory.is_dir():
        return out
    for entry in sorted(directory.iterdir()):
        if entry.suffix.lower() in IMAGE_EXTENSIONS and entry.is_file():
            out[entry.stem] = entry
    return out


def load_pairs(root, ids=None) -> list[ImagePair]:
    """Load all pairs under ``root`` (vis/ + ir/), sorted by pair id.

    vis/ and ir/ must hold the same stems, each pair of identical
    dimensions; optional masks/ and captions/ entries attach when present.
    A shipped mask must be a whole mask file of its pair's size and a
    shipped caption non-empty UTF-8 text, else ``DatasetError`` names it.
    """
    root = Path(root)
    vis_index = stem_index(root / "vis")
    ir_index = stem_index(root / "ir")
    if not vis_index:
        raise DatasetError(f"{root}: no visible images under vis/")
    for have, lack, kind, other in ((vis_index, ir_index, "visible", "infrared"),
                                    (ir_index, vis_index, "infrared", "visible")):
        alone = sorted(set(have) - set(lack))
        if alone:
            raise DatasetError(f"{root}: {kind} images without {other} counterpart: {alone[:5]}")
    pairs = []
    wanted = sorted(vis_index) if ids is None else list(ids)
    for stem in wanted:
        if stem not in vis_index:
            raise DatasetError(f"{root}: unknown pair id {stem!r}")
        vis_path, ir_path = vis_index[stem], ir_index[stem]
        i_vis = load_image(vis_path)
        i_ir = load_image(ir_path)
        if i_vis.shape[0] == 1:
            i_vis = np.repeat(i_vis, 3, axis=0)
        if i_ir.shape[0] == 3:
            raise DatasetError(f"{root}: infrared image {ir_path.name} has 3 channels, expected 1")
        if i_vis.shape[1:] != i_ir.shape[1:]:
            raise DatasetError(
                f"dimension mismatch between {vis_path.name} ({i_vis.shape[1:]}) "
                f"and {ir_path.name} ({i_ir.shape[1:]})"
            )
        pair = ImagePair(stem, i_vis, i_ir)
        mask_path = root / "masks" / f"{stem}.mask"
        if mask_path.exists():
            pair.mask = _shipped_mask(mask_path, i_vis.shape[1:])
        caption_path = root / "captions" / f"{stem}.txt"
        if caption_path.exists():
            pair.caption = _shipped_caption(caption_path)
        pairs.append(pair)
    return pairs


def _shipped_mask(path: Path, size: tuple) -> MaskSemantics:
    try:
        m = read_mask(path)
    except MaskCacheError as e:
        raise DatasetError(str(e)) from e
    if m.shape != size:
        raise DatasetError(f"{path}: mask is {m.shape[0]}x{m.shape[1]}, "
                           f"its images are {size[0]}x{size[1]}")
    return MaskSemantics(m)


def _shipped_caption(path: Path) -> TextDescription:
    try:
        caption = TextDescription.from_text(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise DatasetError(f"{path}: caption is not UTF-8 (byte {e.start})") from e
    if not caption.tokens:
        raise DatasetError(f"{path}: empty caption")
    return caption


# -- fixtures -------------------------------------------------------------------


@dataclass
class FixtureBundle:
    """Provider configuration shipped beside a dataset (fixtures.json)."""

    captions: dict[str, str] = field(default_factory=dict)   # pair id -> caption
    regions: dict[str, list] = field(default_factory=dict)   # keyword -> [t,l,h,w]
    amplitude: float = 1.0
    vocabulary: tuple[str, ...] = ("person", "car", "bike")

    def save(self, path) -> None:
        payload = {"captions": self.captions, "regions": self.regions,
                   "amplitude": self.amplitude, "vocabulary": list(self.vocabulary)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "FixtureBundle":
        """Read a fixtures.json; an unreadable or malformed one raises
        ``DatasetError`` naming it, and the key where there is one."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except OSError as e:
            raise DatasetError(f"fixture file {path}: {e.strerror}") from e
        except ValueError as e:  # a JSONDecodeError or a UnicodeDecodeError
            raise DatasetError(f"{path}: not valid JSON ({e})") from e
        if not isinstance(payload, dict):
            raise DatasetError(f"{path}: not a JSON object")
        unknown = sorted(payload.keys() - _FIXTURE_RULES.keys())
        if unknown:
            raise DatasetError(f"{path}: unknown keys {unknown}")
        for key, (want, ok) in _FIXTURE_RULES.items():
            if key in payload and not ok(payload[key]):
                raise DatasetError(f"{path}: {key} must be {want}")
        return cls(captions=dict(payload.get("captions", {})),
                   regions=dict(payload.get("regions", {})),
                   amplitude=float(payload.get("amplitude", 1.0)),
                   vocabulary=tuple(payload.get("vocabulary", cls.vocabulary)))


_FIXTURE_RULES = {  # fixtures.json key -> (what its value must be, a test of the value)
    "captions": ("an object of pair id to caption string",
                 lambda v: isinstance(v, dict) and all(isinstance(c, str) for c in v.values())),
    "regions": ("an object of keyword to four integers [top, left, height, width] >= 0",
                lambda v: isinstance(v, dict) and all(
                    isinstance(r, list) and len(r) == 4
                    and all(type(n) is int and n >= 0 for n in r) for r in v.values())),
    # false for NaN, infinities and ints beyond the float range alike
    "amplitude": ("a finite number",
                  lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "vocabulary": ("a list of strings",
                   lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v)),
}


def providers_from_fixtures(fixtures: FixtureBundle, pairs) -> tuple:
    """Build (captioner, denoiser) fixtures resolved against loaded pairs."""
    by_hash = {}
    for pair in pairs:
        caption = fixtures.captions.get(pair.pair_id)
        if caption is not None:
            by_hash[image_content_hash(pair.i_vis)] = caption
    captioner = LookupCaptioner(by_hash)
    denoiser = PlantedRegionDenoiser(fixtures.regions, fixtures.amplitude)
    return captioner, denoiser


def semantic_generator_for(root, pairs, *, text_dim: int, cache_dir=None,
                           settings: MaskSettings | None = None,
                           fixtures_path=None) -> SemanticGenerator:
    """Wire fixtures.json next to the dataset into a SemanticGenerator.

    The fixtures' keyword list stands in when ``settings`` is absent or its
    ``vocabulary`` is empty.
    """
    path = Path(fixtures_path) if fixtures_path else Path(root) / "fixtures.json"
    fixtures = FixtureBundle.load(path)
    captioner, denoiser = providers_from_fixtures(fixtures, pairs)
    if settings is None or not settings.vocabulary:
        settings = replace(settings or MaskSettings(), vocabulary=fixtures.vocabulary)
    return SemanticGenerator(captioner, HashTextEncoder(text_dim), denoiser, settings,
                             cache_dir=str(cache_dir) if cache_dir else None)


# -- synthetic scenes --------------------------------------------------------------

# Below six pixels a side the hot region can be empty, and its glow divides by zero.
_SYNTH_MIN_SIDE = 6


def _check_synth_size(size: tuple[int, int]) -> None:
    if min(size) < _SYNTH_MIN_SIDE:
        raise DatasetError(f"synthetic scenes need sides of at least {_SYNTH_MIN_SIDE} pixels, "
                           f"got {size[0]}x{size[1]}")


def _texture(gen, h, w):
    yy, xx = np.mgrid[0:h, 0:w] / max(h, w)
    freq = gen.uniform(2.0, 8.0, size=3)
    phase = gen.uniform(0, 2 * np.pi, size=3)
    base = 0.45 + 0.2 * np.sin(2 * np.pi * freq[0] * xx + phase[0])
    base += 0.15 * np.sin(2 * np.pi * freq[1] * yy + phase[1])
    base += 0.1 * np.sin(2 * np.pi * freq[2] * (xx + yy) + phase[2])
    return base


def synth_pair(seed: int, size: tuple[int, int] = (96, 96)) -> tuple[np.ndarray, np.ndarray, Rect]:
    """One registered synthetic pair: textured visible, hot-region infrared.
    A side below six pixels raises ``DatasetError``."""
    _check_synth_size(size)
    h, w = size
    gen = derive(seed, "synth")
    vis = np.stack([_texture(gen, h, w) for _ in range(3)])
    # a few colored rectangles for visible structure
    for _ in range(3):
        t = int(gen.integers(0, h - h // 4))
        l = int(gen.integers(0, w - w // 4))
        hh = int(gen.integers(h // 8, h // 4))
        ww = int(gen.integers(w // 8, w // 4))
        color = gen.uniform(0.1, 0.9, size=3)
        vis[:, t:t + hh, l:l + ww] = color[:, None, None]
    vis = np.clip(vis, 0.0, 1.0)

    ir = 0.15 + 0.05 * _texture(gen, h, w)
    hot_h = int(gen.integers(h // 6, h // 3))
    hot_w = int(gen.integers(w // 6, w // 3))
    hot_t = int(gen.integers(h // 8, h - hot_h - h // 8))
    hot_l = int(gen.integers(w // 8, w - hot_w - w // 8))
    region = Rect(hot_t, hot_l, hot_h, hot_w)
    ir += 0.75 * region.indicator(h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = hot_t + hot_h / 2, hot_l + hot_w / 2
    glow = np.exp(-(((yy - cy) / (hot_h)) ** 2 + ((xx - cx) / (hot_w)) ** 2))
    ir = np.clip(ir + 0.1 * glow, 0.0, 1.0)
    return vis, ir[None], region


def overfit_pair(size: tuple[int, int] = (96, 96)) -> tuple[np.ndarray, np.ndarray, Rect]:
    """A mutually consistent pair for single-image convergence checks.

    The infrared channel equals the visible luminance, so the composite
    training objective has an exactly reachable zero-loss optimum (the
    visible image itself); the scene is a dark smooth field, which a fresh
    model can fit within a short budget at the stock learning rate.
    """
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w] / h
    base = 0.12 + 0.06 * np.sin(2 * np.pi * 0.8 * xx) * np.sin(2 * np.pi * 0.6 * yy)
    vis = np.clip(np.stack([base * 1.05, base, base * 0.95]), 0.02, 0.3)
    ir = (0.299 * vis[0] + 0.587 * vis[1] + 0.114 * vis[2])[None]
    region = Rect(h // 3, w // 3, h // 3, w // 3)
    return vis, ir, region


def generate_dataset(root, n_pairs: int, size: tuple[int, int] = (96, 96),
                     seed: int = 0, vocabulary=("car", "person", "bike")) -> FixtureBundle:
    """Write a synthetic dataset plus its fixtures.json under ``root``; a
    side below six pixels raises ``DatasetError`` before anything is written."""
    _check_synth_size(size)
    root = Path(root)
    (root / "vis").mkdir(parents=True, exist_ok=True)
    (root / "ir").mkdir(parents=True, exist_ok=True)
    fixtures = FixtureBundle(vocabulary=tuple(vocabulary))
    for i in range(n_pairs):
        keyword = vocabulary[i % len(vocabulary)]
        vis, ir, region = synth_pair(seed + i, size)
        pair_id = f"pair{i:04d}"
        save_image(vis, root / "vis" / f"{pair_id}.png")
        save_image(ir, root / "ir" / f"{pair_id}.png")
        caption = f"a {keyword} in scene {i:04d}"
        fixtures.captions[pair_id] = caption
        # keying the region by the full caption keeps regions per pair
        fixtures.regions[caption] = [region.top, region.left, region.height, region.width]
    fixtures.save(root / "fixtures.json")
    return fixtures
