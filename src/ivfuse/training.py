"""Training loop: random crops, AdamW, loss history, checkpoints, resume.

Every random draw (epoch shuffle, crop windows) is derived statelessly from
(seed, epoch, index), so a run resumed from a checkpoint at step k continues
bit-exactly as the uninterrupted run would have.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .blas import one_blas_thread
from .checkpoint import (CheckpointError, load_checkpoint, restore_parameters,
                         save_checkpoint)
from .dataset import ImagePair
from .losses import LossWeights, total_loss
from .model import VARIANTS, FusionModel, ModelConfig, reflect_pad
from .optim import adamw_step, zero_grads
from .rng import derive
from .sig import MaskSemantics
from .tensor import NonFiniteError, Tensor

HISTORY_COLUMNS = ("step", "l_ssim", "l_grad", "l_int", "l_color", "total")
HISTORY_HEADER = ",".join(HISTORY_COLUMNS)


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; the last good checkpoint is preserved."""

    def __init__(self, step: int, checkpoint_path):
        self.step = step
        self.checkpoint_path = checkpoint_path
        super().__init__(
            f"non-finite loss at step {step}; last good checkpoint: {checkpoint_path}"
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 140
    batch_size: int = 8
    crop: int = 96
    lr: float = 1e-4
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    variant: str = "full"
    checkpoint_every: int = 0       # steps between checkpoints; 0 = end only
    lr_schedule: str = "constant"   # or "cosine"
    model: ModelConfig = ModelConfig()

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.crop < self.model.patch:
            raise ValueError(f"crop must be >= patch ({self.model.patch}), got {self.crop}")
        if self.crop % self.model.patch != 0:
            raise ValueError(
                f"crop {self.crop} not divisible by patch size {self.model.patch}"
            )
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"lr_schedule must be constant or cosine, got {self.lr_schedule!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def sample_crop(pair: ImagePair, mask: MaskSemantics, crop: int,
                gen: np.random.Generator):
    """One aligned random window over I_vis, I_ir, and the mask.

    Undersized images are reflect-padded up to the crop size first, in which
    case the window is the whole frame.
    """
    i_vis = reflect_pad(pair.i_vis, crop, crop)
    i_ir = reflect_pad(pair.i_ir, crop, crop)
    m = reflect_pad(mask.m, crop, crop)
    h, w = i_vis.shape[-2:]
    y0 = int(gen.integers(0, h - crop + 1))
    x0 = int(gen.integers(0, w - crop + 1))
    window = (slice(y0, y0 + crop), slice(x0, x0 + crop))
    return (np.ascontiguousarray(i_vis[:, window[0], window[1]]),
            np.ascontiguousarray(i_ir[:, window[0], window[1]]),
            MaskSemantics(m[window]))


def _lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    if config.lr_schedule == "constant":
        return config.lr
    frac = step / max(1, total_steps)
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    checkpoint_path: str
    history: list[dict]
    final_loss: float
    model: FusionModel


@dataclass(frozen=True)
class Resume:
    """A checkpoint read to resume from: its path, its model (AdamW moments
    restored) and the step it was written at."""
    path: object
    model: FusionModel
    step: int


def load_resume(path) -> Resume:
    return Resume(path, *_model_from(path, moments=True))


def train(config: TrainConfig, pairs: list[ImagePair], semantics, out_dir,
          resume_from: Resume | None = None) -> TrainResult:
    """Run the optimization loop and write checkpoints plus a loss history.

    ``semantics`` maps pair_id -> (MaskSemantics, TextSemantics), precomputed
    (the semantic generator caches them); crops slice the pair's mask, which
    must have the pair's size. ``resume_from`` is a checkpoint's
    ``load_resume``, whose model is trained in place; a checkpoint of another
    model raises ``ValueError``. The result carries the trained model. Where
    OpenBLAS's thread count can be set (see ``ivfuse.blas``), the loop holds
    it at one thread and puts the count back when it returns or raises, so
    its bits do not depend on the count it starts with.
    """
    if not pairs:
        raise ValueError("train: empty dataset")
    for pair in pairs:
        shape = semantics[pair.pair_id][0].m.shape
        if shape != (pair.height, pair.width):
            raise ValueError(f"train: mask {shape} does not match pair "
                             f"{pair.pair_id!r} of size {(pair.height, pair.width)}")
    os.makedirs(out_dir, exist_ok=True)

    if resume_from is None:
        model = FusionModel(config.model, variant=config.variant, seed=config.seed)
        start_step, last_good = 0, None
    else:
        model, start_step, last_good = resume_from.model, resume_from.step, resume_from.path
        differ = checkpoint_mismatch(model, config.model, config.variant)
        if differ:
            raise ValueError(f"checkpoint {last_good} differs from the config in "
                             + ", ".join(differ))
    params = model.trainable_parameters()

    n = len(pairs)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history_path = os.path.join(out_dir, "loss_history.csv")
    final_path = os.path.join(out_dir, "model.ckpt")

    history: list[dict] = []
    mode = "a" if start_step > 0 and os.path.exists(history_path) else "w"
    # the hold's one helper, joined before this returns or raises, runs each
    # member's visible encoder, then fvi's reconstruction, beside the other
    # lane (``mgca``); the bits do not depend on the machine's core count
    with open(history_path, mode, encoding="utf-8") as log, one_blas_thread():
        if mode == "w":
            log.write(HISTORY_HEADER + "\n")
        for step in range(start_step, total_steps):
            epoch, batch_idx = divmod(step, steps_per_epoch)
            order = derive(config.seed, "order", epoch).permutation(n)
            members = order[batch_idx * config.batch_size:
                            (batch_idx + 1) * config.batch_size]
            try:
                # backward per member frees its graph before the next is built;
                # parameter grads accumulate across the calls
                row = dict.fromkeys(HISTORY_COLUMNS, 0.0) | {"step": step}
                for dataset_idx in members:
                    pair = pairs[int(dataset_idx)]
                    mask, text = semantics[pair.pair_id]
                    gen = derive(config.seed, "crop", epoch, int(dataset_idx))
                    vis_c, ir_c, mask_c = sample_crop(pair, mask, config.crop, gen)
                    out = model.forward(Tensor(vis_c), Tensor(ir_c), mask_c, text)
                    loss, parts = total_loss(out, vis_c, ir_c, config.weights)
                    scaled = loss * (1.0 / len(members))
                    member = scaled.item()
                    if not math.isfinite(member):
                        raise NonFiniteError(f"loss at step {step} is {member}")
                    scaled.backward()
                    row["total"] += member
                    for key, part in parts.items():
                        row["l_" + key] += part / len(members)
                adamw_step(params, lr=_lr_at(config, step, total_steps))
                zero_grads(params)
            except NonFiniteError:
                raise TrainingDiverged(step, last_good)
            history.append(row)
            log.write(",".join("%.10g" % row[c] for c in HISTORY_COLUMNS) + "\n")
            log.flush()
            if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
                last_good = os.path.join(out_dir, f"checkpoint_step{step + 1}.ckpt")
                _write_checkpoint(last_good, model, step + 1, config.seed)
    _write_checkpoint(final_path, model, total_steps, config.seed)
    return TrainResult(final_path, history, history[-1]["total"] if history else math.nan, model)


def _write_checkpoint(path, model: FusionModel, step: int, seed: int) -> None:
    """Save ``model`` under the header ``_model_from`` reads: variant,
    global_step, seed, then each ModelConfig field (a tuple comma-separated)."""
    meta = {"variant": model.variant, "global_step": str(step), "seed": str(seed)}
    for f in fields(ModelConfig):
        value = getattr(model.config, f.name)
        meta[f.name] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    save_checkpoint(path, model.parameters(), meta=meta)


def _model_from(path, moments: bool) -> tuple[FusionModel, int]:
    """The FusionModel checkpoint ``path`` holds, with its parameters
    restored (AdamW moments and steps too if ``moments``), and the step it
    was written at. A ModelConfig field absent from its header takes its
    default; every integer is ASCII decimal. Any fault in the file raises
    ``CheckpointError`` naming ``path``."""
    def decimal(name, raw):
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"{name} is not decimal: {raw!r}")
        return int(raw)

    values = {}
    try:
        meta, states = load_checkpoint(path, moments=moments)
        for f in fields(ModelConfig):
            if f.name in meta:
                raw = meta[f.name]
                values[f.name] = (tuple(decimal(f.name, part) for part in raw.split(","))
                                  if isinstance(f.default, tuple) else decimal(f.name, raw))
        step = decimal("global_step", meta.get("global_step", "0"))
        config, variant = ModelConfig(**values), meta.get("variant", "full")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        _check_shapes(config, variant, states)
        # every parameter is restored below, so the init seed is immaterial
        model = FusionModel(config, variant=variant)
        restore_parameters(model.parameters(), states)
    except ValueError as e:  # CheckpointError among them
        raise CheckpointError(f"checkpoint {path}: {e}") from e
    return model, step


def _check_shapes(c: ModelConfig, variant: str, states) -> None:
    """Compare every ModelConfig size that shows in a parameter shape with
    the stored parameters, before a model of that size is allocated."""
    want = [("patch/dim", "vis_encoder.embed.proj.weight", (3 * c.patch ** 2, c.dim)),
            ("base_grid", "vis_encoder.pos", (c.base_grid[0] * c.base_grid[1], c.dim)),
            ("depth", f"decoder.block{c.depth - 1}.attn.q.weight", (c.dim, c.dim)),
            ("gate_kernel", "tdaf.gate_v.weight", (c.dim, c.dim, c.gate_kernel, c.gate_kernel))]
    if variant != "no-tivr":
        want.append(("text_dim", "tdaf.text_proj.weight", (c.text_dim, c.dim)))
    for names, param, shape in want:
        have = states[param].data.shape if param in states else None
        if have != shape:
            raise ValueError(f"{names} give {param} shape {shape}, checkpoint has "
                             + (str(have) if have else "no such parameter"))
    if f"decoder.block{c.depth}.attn.q.weight" in states:
        raise ValueError(f"depth {c.depth} is less than the checkpoint's decoder blocks")


def checkpoint_mismatch(model: FusionModel, config: ModelConfig, variant: str) -> list[str]:
    """``name (checkpoint x, config y)`` for each ModelConfig field, and for
    the variant, where a checkpoint's ``model`` differs from the config's."""
    pairs = [(f.name, getattr(model.config, f.name), getattr(config, f.name))
             for f in fields(ModelConfig)] + [("variant", model.variant, variant)]
    return [f"{name} (checkpoint {a}, config {b})" for name, a, b in pairs if a != b]


def load_model(checkpoint_path) -> FusionModel:
    """Rebuild the FusionModel a checkpoint holds (config and variant from
    its metadata), for inference: its parameters hold the file's values
    only, with no AdamW moments and step 0, though the whole file is still
    checked. ``load_resume`` restores the optimizer state."""
    return _model_from(checkpoint_path, moments=False)[0]
