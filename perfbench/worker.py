"""One measuring process of one workload: set-up, then the op loop.

Started by ``run.py`` in a fresh interpreter, so ``setup_s`` counts from
process start (the parent passes the ``time.monotonic()`` reading it took
just before spawning; the clock is system-wide) and its peak RSS is this
workload's own. After set-up it times the host-speed kernel of
``hostspeed``, and again just before each op. The result goes to ``--out`` as JSON.
"""

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import ivfuse  # noqa: E402,F401  (the import cost belongs to set-up)

from perfbench import hostspeed, layers, stats  # noqa: E402
from perfbench.tracer import Instrumentation, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

KERNEL_RUNS = 3     # host-speed kernel runs right after set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True, type=Path, help="directory holding the inputs")
    p.add_argument("--spawned", required=True, type=float,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--out", required=True, type=Path, help="result JSON path")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="span file of a traced run")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def is_traced(unit: int) -> bool:
    """Traced and untraced units alternate; the first unit, which pays the
    process's one-time costs, runs untraced."""
    return unit % 2 == 1


def peak_rss_mb() -> float:
    """High-water RSS of this process, in 10^6 bytes.

    ``VmHWM`` belongs to this process's own address space and starts afresh
    at exec. ``ru_maxrss`` would not do: Linux carries it across execve,
    seeded with the peak of the image replaced, which for a child started
    by vfork is the parent's.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not found in /proc/self/status")


def run_loop(workload, seconds: float, instrumentation, kernel) -> list:
    """Units until ``seconds`` have passed since the first op began (and,
    when tracing, until a traced and an untraced unit have run). The
    workload times the host-speed kernel just before each op, outside it."""
    ops, unit = [], 0
    kinds_seen = set()
    while True:
        traced = instrumentation is not None and is_traced(unit)
        if traced:
            instrumentation.install()
        try:
            ops += workload.run_unit(len(ops), traced, kernel)
        finally:
            if traced:
                instrumentation.uninstall()
        unit += 1
        kinds_seen.add(traced)
        done = time.perf_counter() - ops[0].start >= seconds
        if done and (instrumentation is None or len(kinds_seen) == 2):
            return ops


def main(argv=None) -> int:
    args = parse_args(argv)
    imports_s = time.monotonic() - args.spawned
    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    proc = args.work / f"proc{os.getpid()}"
    tracer = Tracer() if args.trace else None
    instrumentation = Instrumentation(tracer) if args.trace else None
    workload = WORKLOADS[args.workload](args.work, proc, manifest, tracer)
    if instrumentation is not None:
        instrumentation.install()
    try:
        workload.setup()
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    setup_s = time.monotonic() - args.spawned
    kernel = hostspeed.Kernel()
    result = {"pid": os.getpid(), "setup_s": setup_s, "imports_s": imports_s,
              "kernel_s": [kernel.run() for _ in range(KERNEL_RUNS)]}
    try:
        if not args.setup_only:
            ops = run_loop(workload, args.seconds, instrumentation, kernel)
            result.update(
                ops=[asdict(op) for op in ops],
                items_per_op=workload.items_per_op,
                finish_errors=workload.finish(),
                digests=workload.digests,
                peak_rss_mb=peak_rss_mb(),
            )
            if tracer is not None:
                result["per_layer"] = traced_metrics(tracer, ops, setup_s, imports_s)
                if args.spans is not None:
                    tracer.write(args.spans)
    finally:
        shutil.rmtree(proc, ignore_errors=True)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def traced_metrics(tracer, ops, setup_s: float, imports_s: float) -> dict:
    good = [op for op in ops if op.ok]
    traced = [op for op in good if op.traced]
    untraced = [op for op in good if not op.traced]

    def p50(group):
        return stats.median([op.end - op.start for op in group]) if group else 0.0

    return layers.per_layer(tracer, [op.op_id for op in traced], setup_s=setup_s,
                            imports_s=imports_s, traced_p50=p50(traced),
                            untraced_p50=p50(untraced))


if __name__ == "__main__":
    sys.exit(main())
