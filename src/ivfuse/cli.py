"""Command-line surface: fuse, train, mask, eval, ablate.

Exit codes: 0 success; 1 usage error, or a config, dataset, image or
checkpoint file that cannot be read; 2 runtime failure. Commands never
write into their input directories; artifacts go under --out.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, default_config_text, load_config
from .dataset import (DatasetError, generate_dataset, load_pairs,
                      semantic_generator_for)
from .imgio import ImageFormatError, save_image
from .metrics import METRIC_COLUMNS, evaluate_dataset
from .model import FusionModel, fuse
from .sig import write_mask
from .training import (TrainingDiverged, checkpoint_mismatch, load_model, load_resume,
                       train)

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivfuse",
                     description="Text-guided infrared/visible image fusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="run configuration file (key = value lines)")

    p_fuse = sub.add_parser("fuse", help="fuse every pair of a dataset")
    add_common(p_fuse)
    p_fuse.add_argument("--in", dest="dataset", required=True, help="dataset root (vis/ + ir/)")
    p_fuse.add_argument("--out", required=True, help="output directory for fused images")
    p_fuse.add_argument("--checkpoint", help="model checkpoint (omit for a seeded random model)")
    p_fuse.add_argument("--jobs", type=int, help="override config jobs bound")

    p_train = sub.add_parser("train", help="train a fusion model")
    add_common(p_train)
    p_train.add_argument("--in", dest="dataset", required=True)
    p_train.add_argument("--out", required=True, help="checkpoints + loss history directory")
    p_train.add_argument("--resume", help="resume from this checkpoint")

    p_mask = sub.add_parser("mask", help="precompute mask semantics and previews")
    add_common(p_mask)
    p_mask.add_argument("--in", dest="dataset", required=True)
    p_mask.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="metric report for fused images")
    p_eval.add_argument("--fused", required=True, help="directory of fused images")
    p_eval.add_argument("--in", dest="dataset",
                        help="dataset root supplying vis/ and ir/ (not with --vis/--ir)")
    p_eval.add_argument("--vis", help="visible image directory (with --ir, not --in)")
    p_eval.add_argument("--ir", help="infrared image directory (with --vis, not --in)")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--per-source", action="store_true",
                        help="also write per-source VIF debug columns")

    p_ablate = sub.add_parser("ablate", help="train and evaluate all pipeline variants")
    add_common(p_ablate)
    p_ablate.add_argument("--in", dest="dataset", required=True)
    p_ablate.add_argument("--out", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic fixture dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--pairs", type=int, default=4)
    p_synth.add_argument("--size", type=int, default=96)
    p_synth.add_argument("--seed", type=int, default=0)

    p_cfg = sub.add_parser("init-config", help="print a documented default config")
    p_cfg.add_argument("--out", help="write here instead of stdout")
    return parser


def _generator(config: RunConfig, dataset, pairs, cache_dir):
    """``config``'s semantic generator for ``pairs``, caching masks under ``cache_dir``."""
    return semantic_generator_for(dataset, pairs, text_dim=config.train.model.text_dim,
                                  cache_dir=cache_dir, settings=config.mask,
                                  fixtures_path=config.fixtures or None)


def _semantics(config: RunConfig, dataset, pairs, cache_dir) -> dict:
    """pair_id -> (mask, text) from one caption per pair: the shipped one,
    else the captioner's. A shipped mask wins over the generator's."""
    generator = _generator(config, dataset, pairs, cache_dir)
    semantics = {}
    for p in pairs:
        t = p.caption or generator.caption_for(p.i_vis)
        mask = p.mask or generator.mask_for_pair(p.i_vis, p.i_ir, p.pair_id, caption=t)
        semantics[p.pair_id] = (mask, generator.text_for_pair(p.i_vis, caption=t))
    return semantics


def _check_checkpoint(model: FusionModel, path, config: RunConfig) -> None:
    """A config that describes another model than the one checkpoint ``path``
    holds is a usage error naming the keys that differ."""
    differ = checkpoint_mismatch(model, config.train.model, config.train.variant)
    if differ:
        raise ConfigError(f"config differs from checkpoint {path} in " + ", ".join(differ))


def _fuse_to(model, pairs, semantics, out_dir: Path, jobs: int) -> int:
    """Fuse pairs on ``jobs`` threads, writing ``<pair>.png`` for each success.

    Each ``fuse`` holds OpenBLAS at one thread for its own forward, with
    that hold's one helper thread, so a job runs on two threads at most.
    A failed pair is reported and skipped; the exit code is 2 if any failed.
    """
    code = 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [(p.pair_id, pool.submit(fuse, model, p, semantics[p.pair_id]))
                   for p in pairs]
        for pair_id, future in futures:
            try:
                image = future.result()
            except Exception as e:
                print(f"fuse failed for {pair_id}: {e}", file=sys.stderr)
                code = RUNTIME_EXIT
                continue
            save_image(image, out_dir / f"{pair_id}.png")
    return code


def cmd_fuse(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    config = load_config(args.config)
    if args.checkpoint:
        model = load_model(args.checkpoint)
        _check_checkpoint(model, args.checkpoint, config)
    else:
        model = FusionModel(config.train.model, variant=config.train.variant,
                            seed=config.train.seed)
    pairs = load_pairs(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    semantics = _semantics(config, args.dataset, pairs, out_dir / "cache")
    code = _fuse_to(model, pairs, semantics, out_dir, args.jobs or config.jobs)
    if code == 0:
        print(f"fused {len(pairs)} pairs -> {out_dir}")
    return code


def cmd_train(args) -> int:
    config = load_config(args.config)
    resume = load_resume(args.resume) if args.resume else None
    if resume:
        _check_checkpoint(resume.model, resume.path, config)
    pairs = load_pairs(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    semantics = _semantics(config, args.dataset, pairs, out_dir / "cache")
    result = train(config.train, pairs, semantics, out_dir, resume_from=resume)
    print(f"trained {len(result.history)} steps, final loss {result.final_loss:.6f}; "
          f"checkpoint {result.checkpoint_path}")
    return 0


def cmd_mask(args) -> int:
    config = load_config(args.config)
    pairs = load_pairs(args.dataset)
    out_dir = Path(args.out)
    masks_dir = out_dir / "masks"
    preview_dir = out_dir / "previews"
    masks_dir.mkdir(parents=True, exist_ok=True)
    preview_dir.mkdir(parents=True, exist_ok=True)
    generator = _generator(config, args.dataset, pairs, out_dir / "cache")
    masks = {p.pair_id: p.mask or generator.mask_for_pair(p.i_vis, p.i_ir, p.pair_id,
                                                         caption=p.caption)
             for p in pairs}
    for pair_id, mask in masks.items():
        write_mask(masks_dir / f"{pair_id}.mask", mask.m)
        save_image(mask.m[None], preview_dir / f"{pair_id}.png")
    print(f"wrote {len(pairs)} masks -> {masks_dir}")
    return 0


def cmd_eval(args) -> int:
    if args.dataset and not (args.vis or args.ir):
        vis_dir, ir_dir = Path(args.dataset) / "vis", Path(args.dataset) / "ir"
    elif args.vis and args.ir and not args.dataset:
        vis_dir, ir_dir = args.vis, args.ir
    else:
        raise ConfigError("give either --in DATASET or both --vis DIR and --ir DIR")
    report = evaluate_dataset(args.fused, vis_dir, ir_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "report.csv")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    if args.per_source:
        report.per_source_csv(out_dir / "report_per_source.csv")
    sys.stdout.write(report.to_text())
    return 0


ABLATION_ORDER = (("no-mgca", "(a) w/o MGCA"), ("no-tivr", "(b) w/o TIVR"),
                  ("no-gaf", "(c) w/o GAF"), ("full", "(d) full"))


def cmd_ablate(args) -> int:
    from dataclasses import replace

    config = load_config(args.config)
    pairs = load_pairs(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    semantics = _semantics(config, args.dataset, pairs, out_dir / "cache")

    rows = []
    for variant, label in ABLATION_ORDER:
        variant_dir = out_dir / variant
        variant_dir.mkdir(exist_ok=True)
        result = train(replace(config.train, variant=variant), pairs, semantics, variant_dir)
        fused_dir = variant_dir / "fused"
        fused_dir.mkdir(exist_ok=True)
        code = _fuse_to(result.model, pairs, semantics, fused_dir, config.jobs)
        if code:
            return code
        report = evaluate_dataset(fused_dir, Path(args.dataset) / "vis",
                                  Path(args.dataset) / "ir")
        means = report.means
        rows.append((label, means))
        report.to_csv(variant_dir / "report.csv")

    header = f"{'setting':<16}" + "".join(f"{c:>10}" for c in METRIC_COLUMNS)
    lines = [header]
    for label, means in rows:
        lines.append(f"{label:<16}" + "".join(f"{means[c]:>10.3f}" for c in METRIC_COLUMNS))
    table = "\n".join(lines) + "\n"
    (out_dir / "ablation.txt").write_text(table, encoding="utf-8")
    with open(out_dir / "ablation.csv", "w", encoding="utf-8") as f:
        f.write(",".join(("setting",) + METRIC_COLUMNS) + "\n")
        for label, means in rows:
            f.write(label + "," + ",".join(f"{means[c]:.6f}" for c in METRIC_COLUMNS) + "\n")
    sys.stdout.write(table)
    return 0


def cmd_synth(args) -> int:
    if args.pairs < 1:
        raise ConfigError("--pairs must be >= 1")
    generate_dataset(args.out, args.pairs, (args.size, args.size), seed=args.seed)
    print(f"wrote {args.pairs} synthetic pairs -> {args.out}")
    return 0


def cmd_init_config(args) -> int:
    text = default_config_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


COMMANDS = {
    "fuse": cmd_fuse,
    "train": cmd_train,
    "mask": cmd_mask,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "synth": cmd_synth,
    "init-config": cmd_init_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, DatasetError, CheckpointError, ImageFormatError) as e:
        print(f"ivfuse {args.command}: {e}", file=sys.stderr)
        return USAGE_EXIT
    except TrainingDiverged as e:
        print(f"ivfuse {args.command}: {e}", file=sys.stderr)
        return RUNTIME_EXIT
    except Exception as e:
        print(f"ivfuse {args.command}: {e}", file=sys.stderr)
        traceback.print_exc()
        return RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
