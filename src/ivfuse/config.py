"""Flat key=value run configuration.

One text file drives every command; unknown keys are rejected so typos
cannot silently fall back to defaults. Each key is a field of one owner
(ModelConfig, TrainConfig, LossWeights, MaskSettings or RunConfig), which
holds its default and its rules; KEY_DOCS names the owner of every key
(the keys are rendered in docs/file_formats.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .losses import LossWeights
from .model import ModelConfig, VARIANTS
from .sig import MaskSettings
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    train: TrainConfig = TrainConfig()
    mask: MaskSettings = MaskSettings()
    fixtures: str = ""
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


KEY_DOCS = {
    "patch": (ModelConfig, "patch size of the tokenizer; crop and image dims must divide by it"),
    "dim": (ModelConfig, "token embedding width"),
    "heads": (ModelConfig, "attention heads (must divide dim)"),
    "text_dim": (ModelConfig, "caption embedding width of the text-encoder provider"),
    "depth": (ModelConfig, "transformer blocks per encoder and in the decoder"),
    "gate_kernel": (ModelConfig, "gate convolution kernel size (odd)"),
    "variant": (TrainConfig, f"pipeline variant, one of {', '.join(VARIANTS)}"),
    "epochs": (TrainConfig, "training epochs"),
    "batch_size": (TrainConfig, "pairs per optimizer step"),
    "crop": (TrainConfig, "square training crop size"),
    "lr": (TrainConfig, "AdamW learning rate"),
    "lr_schedule": (TrainConfig, "constant or cosine"),
    "seed": (TrainConfig, "root seed for init, shuffling, crops, and noise"),
    "checkpoint_every": (TrainConfig, "steps between checkpoints; 0 saves only the final model"),
    "w_ssim": (LossWeights, "structural term weight"),
    "w_grad": (LossWeights, "gradient term weight"),
    "w_int": (LossWeights, "intensity term weight"),
    "w_color": (LossWeights, "color term weight"),
    "vocabulary": (MaskSettings, "comma-separated task keywords matched against captions"),
    "keyword": (MaskSettings, "force this keyword instead of vocabulary matching (empty = match)"),
    "noise_level": (MaskSettings, "std of the Gaussian noise injected before denoiser queries"),
    "noise_seed": (MaskSettings, "seed of the injected noise"),
    "threshold_policy": (MaskSettings, "mask binarization: otsu or fixed"),
    "tau": (MaskSettings, "threshold when threshold_policy = fixed"),
    "fixtures": (RunConfig, "path to fixtures.json (empty = <dataset>/fixtures.json)"),
    "jobs": (RunConfig, "threads fusing pairs in fuse and ablate"),
}


def _coerce(key: str, raw: str):
    if key == "vocabulary":
        return tuple(w.strip() for w in raw.split(",") if w.strip())
    default = getattr(KEY_DOCS[key][0], key)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite")
        return value
    return raw


def _build(values: dict) -> RunConfig:
    """The RunConfig of ``values`` (owner -> {key: value}); each owner checks
    its own rules. The model's base grid is the training crop in patches,
    at least 1 so that TrainConfig, not ModelConfig, reports a crop below
    the patch size."""
    model, train = values[ModelConfig], values[TrainConfig]
    patch = max(model.get("patch", ModelConfig.patch), 1)  # ModelConfig rejects patch < 1
    grid = max(train.get("crop", TrainConfig.crop) // patch, 1)
    return RunConfig(
        train=TrainConfig(**train, weights=LossWeights(**values[LossWeights]),
                          model=ModelConfig(**model, base_grid=(grid, grid))),
        mask=MaskSettings(**values[MaskSettings]), **values[RunConfig])


def parse_config_text(text: str) -> RunConfig:
    values = {owner: {} for owner, _ in KEY_DOCS.values()}
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
        owned = values[KEY_DOCS[key][0]]
        if key in owned:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            owned[key] = _coerce(key, raw)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from e
    try:
        return _build(values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config file ({e.strerror})") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    return parse_config_text(text)


def config_to_text(config: RunConfig) -> str:
    owners = {ModelConfig: config.train.model, TrainConfig: config.train,
              LossWeights: config.train.weights, MaskSettings: config.mask,
              RunConfig: config}
    lines = []
    for key, (owner, _) in KEY_DOCS.items():
        value = getattr(owners[owner], key)
        if key == "vocabulary":
            value = ",".join(value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def default_config_text() -> str:
    lines = ["# run configuration; every key optional, defaults shown\n"]
    for (_, doc), line in zip(KEY_DOCS.values(),
                              config_to_text(RunConfig()).splitlines(keepends=True)):
        lines += [f"# {doc}\n", line]
    return "".join(lines)
