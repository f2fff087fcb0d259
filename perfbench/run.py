"""Run one ivfuse benchmark workload, or all of them, and report its metrics.

    python3 perfbench/run.py --workload fuse-96 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout of the repository; everything is read
and written inside it. Inputs are made from ``--seed`` before anything is
timed. Set-up is measured in several fresh processes and the op loop in one
more, each started one after another; ``--trace 1`` instead runs one traced
process and reports the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, host facts and digests go to ``.perfbench_out/``.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fuse-96", "fuse-160", "train-b2", "ingest-png")
SETUP_SAMPLES = 5            # fresh processes timed to set-up; the last one also runs the ops
TIME_LIMIT_S = 170.0         # the whole run, set-up samples included
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
# printed and stored with every untraced run but not gated in BENCHMARK.json:
# the tail is the maximum of fewer than 20 ops, a correct run's error rate is 0,
# and wall-clock figures drift with the host's speed
REPORTED_ONLY = ({"name": "op_tail_s", "unit": "s"}, {"name": "error_rate", "unit": "ratio"},
                 {"name": "op_p50_wall_s", "unit": "s"}, {"name": "items_per_wall_s", "unit": "1/s"},
                 {"name": "setup_wall_s", "unit": "s"}, {"name": "host_kernel_s", "unit": "s"})


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="op-loop length (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def blas_threads() -> int:
    """BLAS threads for every worker: at most 2, never more than nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def host_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_set_by": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    return env


def spawn_worker(workload: str, work: Path, deadline: float, *, setup_only: bool,
                 seconds: float = 0.0, trace: int = 0, spans: Path | None = None) -> dict:
    out = work / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--work", str(work), "--out", str(out), "--seconds", repr(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=worker_env(),
                              stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} worker exceeded the time limit") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(main: dict, setup_samples: list[float], setup_kernel: list[float],
               failed: int) -> tuple[dict, dict]:
    """All end-to-end values of one untraced run, plus notes to print.

    Times are given at reference speed (see ``hostspeed``): each op's time
    scaled by the kernel time taken just before it, set-up times by
    the median kernel time the processes took right after set-up. The
    ``*_wall*`` figures are the same before scaling.
    """
    from perfbench import hostspeed, stats

    def wall(op):
        return op["end"] - op["start"]

    def at_reference(op):
        return wall(op) * hostspeed.reference_factor([op["kernel_s"]])

    ops = main["ops"]
    good = [op for op in ops if op["ok"]] or ops
    latencies = [at_reference(op) for op in good]
    tail, pct, beyond = stats.tail(latencies)
    items = main["items_per_op"] * len(ops)
    loop_s = sum(wall(op) for op in ops)
    setup_factor = hostspeed.reference_factor(setup_kernel)
    values = {
        "op_p50_s": stats.median(latencies),
        "op_tail_s": tail,
        "items_per_s": items / sum(at_reference(op) for op in ops),
        "setup_s": stats.median(setup_samples) * setup_factor,
        "peak_rss_mb": main["peak_rss_mb"],
        "error_rate": failed / len(ops),
        "op_p50_wall_s": stats.median([wall(op) for op in good]),
        "items_per_wall_s": items / loop_s,
        "setup_wall_s": stats.median(setup_samples),
        "host_kernel_s": stats.median([op["kernel_s"] for op in ops]),
    }
    notes = {"op_p50_s": f"median of {len(latencies)} ops, at reference speed",
             "op_tail_s": f"p{pct:.4g} of {len(latencies)} ops, {beyond} beyond it, "
                          "at reference speed",
             "items_per_s": f"{main['items_per_op']} item(s) per op, {loop_s:.3f} s of ops, "
                            "at reference speed",
             "setup_s": f"median of {len(setup_samples)} fresh processes, at reference "
                        f"speed (wall x {setup_factor:.4f})",
             "op_p50_wall_s": "op_p50_s before scaling",
             "items_per_wall_s": "items_per_s before scaling",
             "setup_wall_s": "setup_s before scaling",
             "host_kernel_s": f"median over ops of the host-speed kernel time just before "
                              f"the op, {hostspeed.REFERENCE_S} s at reference speed",
             "peak_rss_mb": "VmHWM of the measuring process, 10^6 bytes",
             "error_rate": f"{failed} of {len(ops)} ops failed"}
    return values, notes


def run_workload(args, spec: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import make_inputs

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest = make_inputs(args.workload, work, args.seed)
        setup_samples, setup_kernel = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                sample = spawn_worker(args.workload, work, deadline, setup_only=True)
                setup_samples.append(sample["setup_s"])
                setup_kernel += sample["kernel_s"]
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        main = spawn_worker(args.workload, work, deadline, setup_only=False,
                            seconds=seconds, trace=args.trace,
                            spans=spans if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_samples.append(main["setup_s"])
    setup_kernel += main["kernel_s"]

    attempted = len(main["ops"])
    errors = [f"op {op['op_id']}: {op['error']}" for op in main["ops"] if not op["ok"]]
    errors += main["finish_errors"]
    failed = min(attempted, len(errors))
    if args.trace:
        wanted, reported = spec["per_layer"], []
        values, notes = main["per_layer"], {}
    else:
        wanted, reported = spec["end_to_end"], REPORTED_ONLY
        values, notes = end_to_end(main, setup_samples, setup_kernel, failed)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "host": host_facts(),
        "isolation": {
            "measuring_process": f"fresh python3 interpreter, pid {main['pid']}",
            "setup_samples": f"{len(setup_samples)} fresh interpreters, one after another",
            "peak_rss_mb": "VmHWM of the measuring process only, not its parent's",
        },
        "attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics,
        "reported": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                     for m in reported},
        "notes": notes, "setup_samples_s": setup_samples, "setup_kernel_s": setup_kernel,
        "digests": main["digests"],
        "inputs": {k: v for k, v in manifest.items() if k in ("filter_rows", "seed", "size")},
        "op_latencies_s": [[op["op_id"], op["end"] - op["start"], op["traced"], op["kernel_s"]]
                           for op in main["ops"]],
        "wall_s": time.monotonic() - started,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"({report['isolation']['measuring_process']})")
    for group, label in ((report["metrics"], ""), (report["reported"], "[not gated] ")):
        for name, m in group.items():
            note = label + report["notes"].get(name, "")
            print(f"  {name:<38} {m['value']:>16.6g} {m['unit']:<6} {note}")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    if report["trace"] and report["metrics"]["stage.encode_streams.share"]["value"] > 0:
        print_stage_split(report["metrics"])
    print("  host: " + ", ".join(f"{k}={v}" for k, v in report["host"].items()))
    print(f"  digests: {json.dumps(report['digests'], sort_keys=True)}")


def print_stage_split(metrics: dict) -> None:
    from perfbench.layers import ROADMAP_STAGE_SPLIT

    parts = []
    for stage, ref in ROADMAP_STAGE_SPLIT.items():
        share = 100.0 * metrics[f"stage.{stage}.share"]["value"]
        parts.append(f"{stage} {share:.1f}% (ROADMAP {ref}%, {share - ref:+.1f} pp)")
    print("  stage split of model.forward: " + "; ".join(parts))


def run_all(args) -> int:
    """Every workload in its own fresh ``run.py`` process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", repr(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (ROOT / "src" / "ivfuse" / "__init__.py").is_file():
            raise BenchError(f"ivfuse sources not found under {ROOT / 'src'}")
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
