"""Per-layer metrics of a traced run, computed from its spans.

Unless a name says otherwise, a value is per timed op: the total over the
traced ops divided by their number. ``.s`` of a named span is inclusive
time (children included); ``tensor.<kind>.fwd_s`` is the op's self time
(its nested finite checks excluded) and ``self.<layer>.s`` partitions an
op's traced time into each layer's self time, ``self.bench.s`` being the
benchmark's own glue. ``setup.*`` values are for the one set-up of the
traced process.
"""

from __future__ import annotations

from . import stats
from .tracer import OP_KINDS, SETUP

# fuse-96 split by stage measured at the last ROADMAP re-anchor, in percent
ROADMAP_STAGE_SPLIT = {
    "encode_streams": 83.0,
    "decode": 8.5,
    "cross_reconstruct": 6.8,
    "token_fusion": 1.4,
}
STAGE_SPANS = {
    "encode_streams": "mgca.encode_streams",
    "cross_reconstruct": "mgca.cross_reconstruct",
    "token_fusion": "tdaf.token_fusion",
    "decode": "model.decode",
}
STAGE_SPLIT_ORDER = tuple(ROADMAP_STAGE_SPLIT)
LAYERS = ("tensor", "blocks", "mgca", "tdaf", "model", "losses", "optim", "training",
          "checkpoint", "sig", "providers", "imgio", "dataset", "metrics", "bench")

# spans reported by inclusive time per op, as "<span>.s"
INCLUSIVE = (
    "tensor.backward", "blocks.attention", "blocks.encoder", "blocks.patch_embed",
    "blocks.patch_unembed", "mgca.encode_streams", "mgca.cross_reconstruct",
    "tdaf.token_fusion", "model.decode", "model.fuse", "losses.total_loss",
    "losses.ssim_loss", "losses.gradient_loss", "optim.adamw_step", "optim.zero_grads",
    "training.step", "training.sample_crop", "checkpoint.save_checkpoint",
    "sig.mask_for_pair", "sig.mask_from_noise_diff", "sig.text_for_pair", "sig.write_mask",
    "imgio.load_image", "dataset.load_pairs", "imgio.save_image", "metrics.evaluate_pair",
    "metrics.vif_fusion", "metrics.qabf",
)
CALLS = ("tensor.check_finite", "blocks.attention", "sig.mask_for_pair",
         "providers.estimate_noise", "imgio.load_image", "imgio.save_image")
COUNTERS = (("tensor.matmul.flops", "flop"), ("tensor.conv2d.flops", "flop"),
            ("tensor.softmax.bytes", "B"), ("imgio.load_image.bytes_in", "B"),
            ("imgio.save_image.bytes_out", "B"))
SETUP_SPANS = ("checkpoint.load_checkpoint", "dataset.load_pairs", "sig.mask_for_pair",
               "sig.text_for_pair")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for kind in OP_KINDS:
        units[f"tensor.{kind}.calls"] = "count"
        units[f"tensor.{kind}.fwd_s"] = "s"
        units[f"tensor.{kind}.bwd_s"] = "s"
    units["tensor.check_finite.s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in INCLUSIVE:
        units[f"{name}.s"] = "s"
    for name, unit in COUNTERS:
        units[name] = unit
    units["blocks.attention.score_bytes_max"] = "B"
    units["checkpoint.bytes"] = "B"
    units["sig.mask_cache.hit_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"self.{layer}.s"] = "s"
    units["setup.total.s"] = "s"
    units["setup.imports.s"] = "s"
    for name in SETUP_SPANS:
        units[f"setup.{name}.s"] = "s"
    for stage in STAGE_SPLIT_ORDER:
        units[f"stage.{stage}.share"] = "ratio"
    units["stage.max_diff_pp"] = "pp"
    units["trace.ops"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def stage_split(agg: dict) -> dict[str, float]:
    """Share of ``model.forward`` time in each pipeline stage (0 if none)."""
    forward = agg.get("model.forward", {}).get("total_s", 0.0)
    if forward <= 0.0:
        return {stage: 0.0 for stage in STAGE_SPLIT_ORDER}
    return {stage: agg.get(STAGE_SPANS[stage], {}).get("total_s", 0.0) / forward
            for stage in STAGE_SPLIT_ORDER}


def per_layer(tracer, ops, *, setup_s: float, imports_s: float,
              traced_p50: float, untraced_p50: float) -> dict[str, float]:
    """Per-layer values from the spans of timed, traced ``ops``."""
    ops = sorted(ops)
    n = max(len(ops), 1)
    agg = stats.aggregate(tracer.spans, ops)
    setup = stats.aggregate(tracer.spans, [SETUP])

    def field(name, key, table=agg):
        return table.get(name, {}).get(key, 0.0)

    out: dict[str, float] = {}
    for kind in OP_KINDS:
        out[f"tensor.{kind}.calls"] = field(f"tensor.{kind}", "calls") / n
        out[f"tensor.{kind}.fwd_s"] = field(f"tensor.{kind}", "self_s") / n
        out[f"tensor.{kind}.bwd_s"] = field(f"tensor.{kind}.bwd", "total_s") / n
    out["tensor.check_finite.s"] = field("tensor.check_finite", "total_s") / n
    for name in CALLS:
        out[f"{name}.calls"] = field(name, "calls") / n
    for name in INCLUSIVE:
        out[f"{name}.s"] = field(name, "total_s") / n
    opset = set(ops)
    for name, _ in COUNTERS:
        out[name] = sum(v for (op, key), v in tracer.counters.items()
                        if key == name and op in opset) / n
    out["blocks.attention.score_bytes_max"] = max(
        [v for (op, key), v in tracer.maxima.items()
         if key == "blocks.attention.score_bytes_max" and op in opset], default=0.0)
    out["checkpoint.bytes"] = max(
        [v for (_, key), v in tracer.maxima.items() if key == "checkpoint.bytes"], default=0.0)
    out["sig.mask_cache.hit_ratio"] = mask_cache_hit_ratio(tracer.spans, opset)
    own = stats.self_times(tracer.spans)
    for layer in LAYERS:
        out[f"self.{layer}.s"] = 0.0
    for span, s in zip(tracer.spans, own):
        if span[4] in opset:
            out[f"self.{span[0].split('.', 1)[0]}.s"] += s / n
    out["setup.total.s"] = setup_s
    out["setup.imports.s"] = imports_s
    for name in SETUP_SPANS:
        out[f"setup.{name}.s"] = field(name, "total_s", setup)
    shares = stage_split(agg)
    for stage, share in shares.items():
        out[f"stage.{stage}.share"] = share
    out["stage.max_diff_pp"] = max(abs(100.0 * shares[s] - ROADMAP_STAGE_SPLIT[s])
                                   for s in STAGE_SPLIT_ORDER) if any(shares.values()) else 0.0
    out["trace.ops"] = float(len(ops))
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    out["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50 \
        if untraced_p50 > 0 else 0.0
    return out


def mask_cache_hit_ratio(spans, ops) -> float:
    """Share of ``mask_for_pair`` calls answered from the cache, i.e. that
    did not compute a mask through ``mask_from_noise_diff``."""
    calls = [i for i, s in enumerate(spans) if s[0] == "sig.mask_for_pair" and s[4] in ops]
    if not calls:
        return 0.0
    computed = {s[3] for s in spans if s[0] == "sig.mask_from_noise_diff"}
    return sum(1 for i in calls if i not in computed) / len(calls)
