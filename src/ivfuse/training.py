"""Training loop: random crops, AdamW, loss history, checkpoints, resume.

Every random draw (epoch shuffle, crop windows) is derived statelessly from
(seed, epoch, index), so a run resumed from a checkpoint at step k continues
bit-exactly as the uninterrupted run would have.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .dataset import ImagePair
from .losses import LossWeights, total_loss
from .model import FusionModel, ModelConfig
from .optim import adamw_step, zero_grads
from .rng import derive
from .sig import MaskSemantics, TextSemantics
from .tensor import NonFiniteError, Tensor

HISTORY_HEADER = "step,l_ssim,l_grad,l_int,l_color,total"


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.crop % self.model.patch != 0:
            raise ValueError(
                f"crop {self.crop} not divisible by patch size {self.model.patch}"
            )
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


def _reflect_to(arr: np.ndarray, size: int) -> np.ndarray:
    h, w = arr.shape[-2], arr.shape[-1]
    ph, pw = max(0, size - h), max(0, size - w)
    if ph == 0 and pw == 0:
        return arr
    spec = [(0, 0)] * (arr.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(arr, spec, mode="reflect")


def sample_crop(pair: ImagePair, mask: MaskSemantics, crop: int,
                gen: np.random.Generator):
    """One aligned random window over I_vis, I_ir, and the mask.

    Undersized images are reflect-padded up to the crop size first, in which
    case the window is the whole frame.
    """
    i_vis = _reflect_to(pair.i_vis, crop)
    i_ir = _reflect_to(pair.i_ir, crop)
    m = _reflect_to(mask.m, crop)
    h, w = i_vis.shape[-2:]
    y0 = int(gen.integers(0, h - crop + 1))
    x0 = int(gen.integers(0, w - crop + 1))
    window = (slice(y0, y0 + crop), slice(x0, x0 + crop))
    return (np.ascontiguousarray(i_vis[:, window[0], window[1]]),
            np.ascontiguousarray(i_ir[:, window[0], window[1]]),
            MaskSemantics(m[window], provenance=mask.provenance))


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
    steps: int


def train(config: TrainConfig, pairs: list[ImagePair], semantics, out_dir,
          resume_from=None) -> TrainResult:
    """Run the optimization loop and write checkpoints plus a loss history.

    ``semantics`` maps pair_id -> (MaskSemantics, TextSemantics); it can be a
    dict or a callable taking the pair. Masks and captions are expected to be
    precomputed (the semantic generator caches them); crops slice the cached
    mask.
    """
    if not pairs:
        raise ValueError("train: empty dataset")
    os.makedirs(out_dir, exist_ok=True)

    def sem_for(pair):
        got = semantics(pair) if callable(semantics) else semantics[pair.pair_id]
        return got

    model = FusionModel(config.model, variant=config.variant, seed=config.seed)
    params = model.trainable_parameters()
    start_step = 0
    if resume_from is not None:
        meta, states = load_checkpoint(resume_from)
        if meta.get("variant", config.variant) != config.variant:
            raise ValueError(
                f"checkpoint variant {meta.get('variant')!r} != config variant {config.variant!r}"
            )
        restore_parameters(model.parameters(), states)
        start_step = int(meta.get("global_step", "0"))

    n = len(pairs)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    history_path = os.path.join(out_dir, "loss_history.csv")
    final_path = os.path.join(out_dir, "model.ckpt")
    last_good = resume_from

    def write_checkpoint(path, step):
        save_checkpoint(path, model.parameters(), meta={
            "variant": config.variant,
            "global_step": str(step),
            "seed": str(config.seed),
        })

    history: list[dict] = []
    mode = "a" if start_step > 0 and os.path.exists(history_path) else "w"
    with open(history_path, mode, encoding="utf-8") as log:
        if mode == "w":
            log.write(HISTORY_HEADER + "\n")
        step = start_step
        while step < total_steps:
            epoch = step // steps_per_epoch
            batch_idx = step % steps_per_epoch
            order = derive(config.seed, "order", epoch).permutation(n)
            members = order[batch_idx * config.batch_size:
                            (batch_idx + 1) * config.batch_size]
            try:
                # backward per member frees its graph before the next is built;
                # parameter grads accumulate across the calls
                value = 0.0
                part_sums = {"ssim": 0.0, "grad": 0.0, "int": 0.0, "color": 0.0}
                for dataset_idx in members:
                    pair = pairs[int(dataset_idx)]
                    mask, text = sem_for(pair)
                    gen = derive(config.seed, "crop", epoch, int(dataset_idx))
                    vis_c, ir_c, mask_c = sample_crop(pair, mask, config.crop, gen)
                    out = model.forward(Tensor(vis_c), Tensor(ir_c), mask_c, text)
                    loss, parts = total_loss(out, vis_c, ir_c, config.weights)
                    scaled = loss * (1.0 / len(members))
                    member = scaled.item()
                    if not math.isfinite(member):
                        raise NonFiniteError(f"loss at step {step} is {member}")
                    scaled.backward()
                    value += member
                    for k in part_sums:
                        part_sums[k] += parts[k] / len(members)
                adamw_step(params, lr=_lr_at(config, step, total_steps))
                zero_grads(params)
            except NonFiniteError:
                raise TrainingDiverged(step, last_good)
            record = {"step": step, "l_ssim": part_sums["ssim"],
                      "l_grad": part_sums["grad"], "l_int": part_sums["int"],
                      "l_color": part_sums["color"], "total": value}
            history.append(record)
            log.write("%d,%.10g,%.10g,%.10g,%.10g,%.10g\n" % (
                step, record["l_ssim"], record["l_grad"], record["l_int"],
                record["l_color"], record["total"]))
            log.flush()
            step += 1
            if config.checkpoint_every and step % config.checkpoint_every == 0:
                path = os.path.join(out_dir, f"checkpoint_step{step}.ckpt")
                write_checkpoint(path, step)
                last_good = path
    write_checkpoint(final_path, total_steps)
    return TrainResult(final_path, history, history[-1]["total"] if history else float("nan"),
                       total_steps - start_step)


def load_model(checkpoint_path, model_config: ModelConfig | None = None) -> FusionModel:
    """Rebuild a FusionModel from a checkpoint (variant from the header)."""
    meta, states = load_checkpoint(checkpoint_path)
    config = model_config or ModelConfig()
    model = FusionModel(config, variant=meta.get("variant", "full"),
                        seed=int(meta.get("seed", "0")))
    restore_parameters(model.parameters(), states)
    return model
