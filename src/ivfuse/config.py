"""Flat key=value run configuration.

One text file drives every command; unknown keys are rejected so typos
cannot silently fall back to defaults. All keys and their defaults are
listed in KEY_DOCS (and rendered in docs/file_formats.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .losses import LossWeights
from .model import ModelConfig, VARIANTS
from .training import TrainConfig


class ConfigError(ValueError):
    pass


KEY_DOCS = {
    # model
    "patch": ("4", "patch size of the tokenizer; crop and image dims must divide by it"),
    "dim": ("64", "token embedding width"),
    "heads": ("4", "attention heads (must divide dim)"),
    "text_dim": ("64", "caption embedding width of the text-encoder provider"),
    "depth": ("4", "transformer blocks per encoder and in the decoder"),
    "gate_kernel": ("3", "gate convolution kernel size (odd)"),
    "variant": ("full", f"pipeline variant, one of {', '.join(VARIANTS)}"),
    # trainer
    "epochs": ("140", "training epochs"),
    "batch_size": ("8", "pairs per optimizer step"),
    "crop": ("96", "square training crop size"),
    "lr": ("0.0001", "AdamW learning rate"),
    "lr_schedule": ("constant", "constant or cosine"),
    "seed": ("0", "root seed for init, shuffling, crops, and noise"),
    "checkpoint_every": ("0", "steps between checkpoints; 0 saves only the final model"),
    # loss weights
    "w_ssim": ("1.0", "structural term weight"),
    "w_grad": ("10.0", "gradient term weight"),
    "w_int": ("10.0", "intensity term weight"),
    "w_color": ("5.0", "color term weight"),
    # semantics
    "vocabulary": ("person,car,bike", "comma-separated task keywords matched against captions"),
    "keyword": ("", "force this keyword instead of vocabulary matching (empty = match)"),
    "noise_level": ("0.5", "std of the Gaussian noise injected before denoiser queries"),
    "noise_seed": ("0", "seed of the injected noise"),
    "threshold_policy": ("otsu", "mask binarization: otsu or fixed"),
    "tau": ("0.5", "threshold when threshold_policy = fixed"),
    "fixtures": ("", "path to fixtures.json (empty = <dataset>/fixtures.json)"),
    # execution
    "jobs": ("1", "threads fusing pairs in fuse and ablate"),
}


@dataclass
class RunConfig:
    patch: int = 4
    dim: int = 64
    heads: int = 4
    text_dim: int = 64
    depth: int = 4
    gate_kernel: int = 3
    variant: str = "full"
    epochs: int = 140
    batch_size: int = 8
    crop: int = 96
    lr: float = 1e-4
    lr_schedule: str = "constant"
    seed: int = 0
    checkpoint_every: int = 0
    w_ssim: float = 1.0
    w_grad: float = 10.0
    w_int: float = 10.0
    w_color: float = 5.0
    vocabulary: tuple[str, ...] = ("person", "car", "bike")
    keyword: str = ""
    noise_level: float = 0.5
    noise_seed: int = 0
    threshold_policy: str = "otsu"
    tau: float = 0.5
    fixtures: str = ""
    jobs: int = 1

    def model_config(self) -> ModelConfig:
        grid = self.crop // max(self.patch, 1)  # ModelConfig rejects patch < 1
        return ModelConfig(patch=self.patch, dim=self.dim, heads=self.heads,
                           text_dim=self.text_dim, depth=self.depth,
                           gate_kernel=self.gate_kernel, base_grid=(grid, grid))

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.w_ssim, self.w_grad, self.w_int, self.w_color)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           crop=self.crop, lr=self.lr, seed=self.seed,
                           weights=self.loss_weights(), variant=self.variant,
                           checkpoint_every=self.checkpoint_every,
                           lr_schedule=self.lr_schedule,
                           model=self.model_config())

    def validate(self) -> "RunConfig":
        """Check every rule of the config, including those of the model,
        trainer and loss weights it builds, whichever command reads it."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.threshold_policy not in ("otsu", "fixed"):
            raise ConfigError(f"threshold_policy must be otsu or fixed, got {self.threshold_policy!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        try:
            self.train_config()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return self


def _coerce(key: str, raw: str):
    if key == "vocabulary":
        return tuple(w.strip() for w in raw.split(",") if w.strip())
    default = getattr(RunConfig(), key)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite")
        return value
    return raw


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KEY_DOCS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from e
    return RunConfig(**values).validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    return parse_config_text(text)


def config_to_text(config: RunConfig) -> str:
    lines = []
    for key in KEY_DOCS:
        value = getattr(config, key)
        if key == "vocabulary":
            value = ",".join(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def default_config_text() -> str:
    lines = ["# run configuration; every key optional, defaults shown"]
    for key, (default, doc) in KEY_DOCS.items():
        lines.append(f"# {doc}")
        lines.append(f"{key} = {default}")
    return "\n".join(lines) + "\n"
