"""Seeded inputs of every workload, made before any timed region.

The same seed gives byte-identical files. Datasets come from ivfuse's own
``generate_dataset`` and the fuse checkpoint from ``save_checkpoint``; the
``ingest-png`` images are then re-encoded by ``pngfilter`` with per-row
adaptive filters. The program under test only ever sees these files; the
``expected/`` arrays are for the benchmark's output checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .pngfilter import FILTER_NAMES, encode_png

FUSE_PAIRS = 4
TRAIN_PAIRS = 8
INGEST_PAIRS = 4
INGEST_SIZE = (240, 320)
LETTERBOX_ROWS = 2      # black rows on top, then as many gray ones
AVERAGE_ROWS = 3        # rows at the bottom predicted exactly by Average


def fuse_inputs(work: Path, seed: int, size: int) -> dict:
    from ivfuse.checkpoint import save_checkpoint
    from ivfuse.dataset import generate_dataset
    from ivfuse.model import FusionModel, ModelConfig

    generate_dataset(work / "data", FUSE_PAIRS, (size, size), seed=seed)
    model_seed = seed + 1
    model = FusionModel(ModelConfig(), variant="full", seed=model_seed)
    save_checkpoint(work / "model.ckpt", model.parameters(),
                    meta={"variant": "full", "global_step": "0", "seed": str(model_seed)})
    return {"data": "data", "checkpoint": "model.ckpt", "size": size}


def train_inputs(work: Path, seed: int) -> dict:
    from ivfuse.dataset import generate_dataset

    generate_dataset(work / "data", TRAIN_PAIRS, (96, 96), seed=seed)
    return {"data": "data", "size": 96}


def _shape_rows(pixels: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Give every image the same mix of PNG filter work, with all five types.

    Odd rows get a one-level dither, so no content row repeats the row above:
    without it, flat bands of some scenes chose Up, which decodes in one
    vectorised step, and the op cost varied by a quarter between seeds. On
    top, two black letterbox rows (None) and two gray ones (Sub, then Up);
    at the bottom a band that Average predicts exactly.
    """
    out = pixels.astype(np.int64)
    h, w, c = out.shape
    out[1::2] = np.minimum(out[1::2] + 1, 255)
    out[:LETTERBOX_ROWS] = 0
    out[LETTERBOX_ROWS:2 * LETTERBOX_ROWS] = 128
    rows = out.reshape(h, w * c)
    for y in range(h - AVERAGE_ROWS, h):
        rows[y, :c] = gen.integers(0, 256, size=c)
        for x in range(c, w * c):
            rows[y, x] = (rows[y, x - c] + rows[y - 1, x]) >> 1
    return rows.astype(np.uint8).reshape(h, w, c)


def ingest_inputs(work: Path, seed: int) -> dict:
    from ivfuse.dataset import generate_dataset
    from ivfuse.imgio import load_image, save_image

    root = work / "data"
    fixtures = generate_dataset(root, INGEST_PAIRS, INGEST_SIZE, seed=seed)
    gen = np.random.default_rng(seed)
    (work / "expected").mkdir()
    (work / "fused").mkdir()
    filter_counts = {}
    pairs = {}
    for pair_id, caption in sorted(fixtures.captions.items()):
        images = {}
        used = np.zeros(5, dtype=np.int64)
        for modality in ("vis", "ir"):
            path = root / modality / f"{pair_id}.png"
            pixels = np.round(load_image(path) * 255.0).astype(np.uint8).transpose(1, 2, 0)
            pixels = _shape_rows(pixels, gen)
            blob, filters = encode_png(pixels)
            path.write_bytes(blob)
            np.save(work / "expected" / f"{pair_id}_{modality}.npy", pixels)
            used += np.bincount(filters, minlength=5)
            images[modality] = pixels.transpose(2, 0, 1) / 255.0
        if not used.all():
            raise RuntimeError(f"{pair_id}: filter types {used.tolist()} miss one of five")
        filter_counts[pair_id] = dict(zip(FILTER_NAMES, used.tolist()))
        # stand-in fused image, written the way `ivfuse fuse` writes its output
        stand_in = 0.5 * images["vis"] + 0.5 * images["ir"]
        save_image(stand_in, work / "fused" / f"{pair_id}.png")
        pairs[pair_id] = {"region": fixtures.regions[caption]}
    return {"data": "data", "fused": "fused", "expected": "expected",
            "pairs": pairs, "filter_rows": filter_counts}


def make_inputs(workload: str, work: Path, seed: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "fuse-96":
        manifest = fuse_inputs(work, seed, 96)
    elif workload == "fuse-160":
        manifest = fuse_inputs(work, seed, 160)
    elif workload == "train-b2":
        manifest = train_inputs(work, seed)
    elif workload == "ingest-png":
        manifest = ingest_inputs(work, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["seed"] = seed
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
