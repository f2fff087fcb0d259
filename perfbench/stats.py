"""Pure arithmetic of the benchmark: medians, the tail rule, self times."""

from __future__ import annotations

import statistics
from collections import defaultdict

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``. With n sorted samples
    that is the value at rank n - beyond, percentile 100 * (n - beyond) / n.
    When fewer than ``2 * beyond`` samples exist, that percentile would sit
    below the median, so the maximum is reported instead, as percentile 100
    with 0 samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail: no samples")
    if n < 2 * beyond:
        return float(xs[-1]), 100.0, 0
    rank = n - beyond                      # 1-based rank of the reported sample
    return float(xs[rank - 1]), 100.0 * rank / n, n - rank


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's.

    ``spans`` is a sequence of ``(name, start, end, parent, op_id)`` where
    ``parent`` is the index of the enclosing span or -1. Children of one
    span never overlap (they come from one thread's call stack), so the
    part of the parent's interval they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans, ops) -> dict[str, dict[str, float]]:
    """Per span name, totals over the spans whose op id is in ``ops``.

    Returns ``{name: {"calls": n, "total_s": inclusive, "self_s": self}}``.
    """
    ops = set(ops)
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _, op_id), s in zip(spans, own):
        if op_id not in ops:
            continue
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += s
    return dict(out)
