"""The four workloads: set-up, one unit of ops, and the output checks.

Each drives ivfuse only through its public API, looking every function up
on its module at call time so a traced run can wrap it. A unit is one op
(``fuse-*``, ``ingest-png``) or one ``training.train`` call of
``TRAIN_STEPS`` optimizer steps (``train-b2``). Every op is timed, the
first one too: a process's first op pays one-time costs (first-touch page
faults make it about twice as slow on ``fuse-96`` and ``train-b2``), and a
change that moved work into it must show. Just before each op, outside
it, the host-speed kernel of ``hostspeed`` is timed once.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tracer import CHECKING

TEXT_DIM = 64
TRAIN_BATCH = 2
TRAIN_STEPS = 4          # steps per train() call: 8 pairs at batch 2, one epoch

# documented ranges of the metric report (8-bit grayscale scale)
METRIC_RANGES = {"EN": (0.0, 8.0), "SD": (0.0, 127.5), "SCD": (-2.0, 2.0),
                 "VIF": (0.0, math.inf), "QABF": (0.0, 1.0)}


@dataclass
class Op:
    op_id: int
    start: float
    end: float
    traced: bool
    kernel_s: float         # host-speed kernel time, taken just before the op
    ok: bool = True
    error: str | None = None


@dataclass
class Workload:
    work: Path              # the run's inputs, shared by its processes
    proc: Path              # this process's own outputs and caches
    manifest: dict
    tracer: object = None
    digests: dict = field(default_factory=dict)
    cache_count: int = 0

    items_per_op = 1

    @property
    def data(self) -> Path:
        return self.work / self.manifest["data"]

    def _set_op(self, op_id) -> None:
        if self.tracer is not None:
            self.tracer.op_id = op_id

    def _span(self, name):
        return self.tracer.begin(name) if self.tracer is not None else None

    def _end(self, idx) -> None:
        if idx is not None:
            self.tracer.end(idx)

    def fresh_cache(self) -> Path:
        """A cache directory no earlier call has seen (cold mask cache)."""
        self.cache_count += 1
        return self.proc / f"cache{self.cache_count}"

    def semantics_for(self, pairs) -> dict:
        from ivfuse import dataset

        generator = dataset.semantic_generator_for(self.data, pairs, text_dim=TEXT_DIM,
                                                   cache_dir=self.fresh_cache())
        return {p.pair_id: (generator.mask_for_pair(p.i_vis, p.i_ir, p.pair_id),
                            generator.text_for_pair(p.i_vis)) for p in pairs}

    def finish(self) -> list[str]:
        """Checks that span the whole run; returns failure messages."""
        return []

    @staticmethod
    def checked(check, *args) -> tuple[bool, str | None]:
        """Run an output check; a check that raises is a failed check."""
        try:
            return check(*args)
        except Exception as e:  # the op failed; the run goes on
            return False, f"check raised {e!r}"


class FuseWorkload(Workload):
    """Checkpoint load, then ``fuse`` + ``save_image`` per pair."""

    def setup(self) -> None:
        from ivfuse import dataset, training

        self.model = training.load_model(self.work / self.manifest["checkpoint"])
        self.pairs = dataset.load_pairs(self.data)
        self.semantics = self.semantics_for(self.pairs)
        self.out = self.proc / "fused"
        self.out.mkdir(parents=True, exist_ok=True)
        self.seen: dict[str, tuple[str, str]] = {}
        self.repeated = False

    def run_unit(self, op_id: int, traced: bool, kernel) -> list[Op]:
        from ivfuse import imgio, model

        # ops 0 and 1 both fuse the first pair: the repeat check always runs
        pair = self.pairs[max(op_id - 1, 0) % len(self.pairs)]
        path = self.out / f"{pair.pair_id}.png"
        kernel_s = kernel.run()
        self._set_op(op_id)
        idx = self._span("bench.op") if traced else None
        start = time.perf_counter()
        try:
            image = model.fuse(self.model, pair, self.semantics[pair.pair_id])
            imgio.save_image(image, path)
        except Exception as e:  # a failed op is counted, not fatal
            self._end(idx)
            return [Op(op_id, start, time.perf_counter(), traced, kernel_s, False, repr(e))]
        end = time.perf_counter()
        self._end(idx)
        self._set_op(CHECKING)
        return [Op(op_id, start, end, traced, kernel_s,
                   *self.checked(self.check, pair, image, path))]

    def check(self, pair, image, path) -> tuple[bool, str | None]:
        from ivfuse import imgio

        if image.shape != (3, pair.height, pair.width):
            return False, f"fused shape {image.shape}"
        if not np.all(np.isfinite(image)) or image.min() < 0.0 or image.max() > 1.0:
            return False, "fused image not finite or outside [0, 1]"
        decoded = np.round(imgio.load_image(path) * 255.0)
        if not np.array_equal(decoded, np.round(image * 255.0)):
            return False, "written PNG does not decode to the fused 8-bit pixels"
        digests = (hashlib.sha256(image.tobytes()).hexdigest(),
                   hashlib.sha256(path.read_bytes()).hexdigest())
        previous = self.seen.setdefault(pair.pair_id, digests)
        if previous != digests:
            return False, f"repeated fuse of {pair.pair_id} is not byte-identical"
        if previous is not digests:
            self.repeated = True
        self.digests[pair.pair_id] = digests[1]
        return True, None

    def finish(self) -> list[str]:
        """If the loop ended before any pair came round twice, fuse the
        first pair once more, untimed, for the repeat check."""
        from ivfuse import imgio, model

        def fuse_again():
            pair = self.pairs[0]
            path = self.out / f"{pair.pair_id}.png"
            image = model.fuse(self.model, pair, self.semantics[pair.pair_id])
            imgio.save_image(image, path)
            return self.check(pair, image, path)

        if self.repeated:
            return []
        ok, error = self.checked(fuse_again)
        return [] if ok else [error]


class TrainWorkload(Workload):
    """``training.train`` at crop 96, batch 2, on the 8-pair dataset."""

    items_per_op = TRAIN_BATCH

    def setup(self) -> None:
        from ivfuse import dataset

        self.pairs = dataset.load_pairs(self.data)
        self.semantics = self.semantics_for(self.pairs)
        self.out = self.proc / "train"
        self.history = None

    def run_unit(self, op_id: int, traced: bool, kernel) -> list[Op]:
        from ivfuse import training

        config = training.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, crop=96,
                                      seed=self.manifest["seed"], variant="full")
        starts: list[float] = []
        ends: list[float] = []
        kernel_s = [kernel.run()]
        state = {"op": op_id, "span": None}
        inner = training.adamw_step

        def timed_step(*args, **kwargs):
            # the one hook of an untraced run: timestamp each step's return,
            # then time the host-speed kernel before the next step starts
            result = inner(*args, **kwargs)
            ends.append(time.perf_counter())
            if len(ends) < TRAIN_STEPS:
                self._end(state["span"])
                kernel_s.append(kernel.run())
                state["op"] += 1
                self._set_op(state["op"])
                state["span"] = self._span("training.step") if traced else None
                starts.append(time.perf_counter())
            return result

        self._set_op(op_id)
        state["span"] = self._span("training.step") if traced else None
        training.adamw_step = timed_step
        starts.append(time.perf_counter())
        error = None
        try:
            result = training.train(config, self.pairs, self.semantics, self.out)
        except Exception as e:  # a failed call fails all its steps
            error, result = repr(e), None
        finally:
            end = time.perf_counter()
            training.adamw_step = inner
            self._end(state["span"])
        self._set_op(CHECKING)
        # the last step ends when train() returns: the checkpoint write is in it
        ends[TRAIN_STEPS - 1:] = [end]
        missing = TRAIN_STEPS - len(starts)     # steps a failed call never began
        starts += [end] * missing
        ends += [end] * (TRAIN_STEPS - len(ends))
        kernel_s += kernel_s[-1:] * missing
        if error is None:
            ok, error = self.checked(self.check, result)
        else:
            ok = False
        return [Op(op_id + k, starts[k], ends[k], traced, kernel_s[k], ok, error)
                for k in range(TRAIN_STEPS)]

    def check(self, result) -> tuple[bool, str | None]:
        from ivfuse import checkpoint, training

        history = result.history
        if len(history) != TRAIN_STEPS:
            return False, f"{len(history)} history rows, expected {TRAIN_STEPS}"
        keys = ("l_ssim", "l_grad", "l_int", "l_color", "total")
        if not all(math.isfinite(row[k]) for row in history for k in keys):
            return False, "non-finite loss"
        with open(self.out / "loss_history.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        logged = [{k: float(r[k]) for k in keys} | {"step": int(r["step"])} for r in rows]
        expected = [{k: float("%.10g" % row[k]) for k in keys} | {"step": row["step"]}
                    for row in history]
        if logged != expected:
            return False, "loss_history.csv differs from the returned history"
        fresh = training.load_model(result.checkpoint_path)
        _, states = checkpoint.load_checkpoint(result.checkpoint_path)
        if not all(np.array_equal(p.data, states[p.name].data) for p in fresh.parameters()):
            return False, "final checkpoint does not restore into a fresh model"
        if self.history is not None and history != self.history:
            return False, "a repeated train() call gave a different loss history"
        self.history = history
        self.digests["final_loss"] = repr(result.final_loss)
        return True, None


class IngestWorkload(Workload):
    """``load_pairs`` of adaptive-filter PNGs, cold-cache semantics, then
    ``load_image`` of a fused stand-in and ``evaluate_pair``."""

    def setup(self) -> None:
        self.pair_ids = sorted(self.manifest["pairs"])
        self.fused = self.work / self.manifest["fused"]
        self.expected = self.work / self.manifest["expected"]

    def run_unit(self, op_id: int, traced: bool, kernel) -> list[Op]:
        from ivfuse import dataset, imgio, metrics

        pair_id = self.pair_ids[op_id % len(self.pair_ids)]
        cache = self.fresh_cache()
        kernel_s = kernel.run()
        self._set_op(op_id)
        idx = self._span("bench.op") if traced else None
        start = time.perf_counter()
        try:
            (pair,) = dataset.load_pairs(self.data, ids=[pair_id])
            generator = dataset.semantic_generator_for(self.data, [pair], text_dim=TEXT_DIM,
                                                       cache_dir=cache)
            mask = generator.mask_for_pair(pair.i_vis, pair.i_ir, pair_id)
            text = generator.text_for_pair(pair.i_vis)
            fused = imgio.load_image(self.fused / f"{pair_id}.png")
            row = metrics.evaluate_pair(fused, pair.i_vis, pair.i_ir, pair_id)
        except Exception as e:  # a failed op is counted, not fatal
            self._end(idx)
            return [Op(op_id, start, time.perf_counter(), traced, kernel_s, False, repr(e))]
        end = time.perf_counter()
        self._end(idx)
        self._set_op(CHECKING)
        ok, error = self.checked(self.check, pair, mask, text, row)
        shutil.rmtree(cache, ignore_errors=True)
        return [Op(op_id, start, end, traced, kernel_s, ok, error)]

    def check(self, pair, mask, text, row) -> tuple[bool, str | None]:
        for modality, image in (("vis", pair.i_vis), ("ir", pair.i_ir)):
            source = np.load(self.expected / f"{pair.pair_id}_{modality}.npy")
            if not np.array_equal(np.round(image * 255.0).astype(np.uint8),
                                  source.transpose(2, 0, 1)):
                return False, f"{pair.pair_id} {modality}: decoded pixels differ from source"
        top, left, height, width = self.manifest["pairs"][pair.pair_id]["region"]
        planted = np.zeros((pair.height, pair.width))
        planted[top:top + height, left:left + width] = 1.0
        if not np.array_equal(mask.m, planted):
            return False, f"{pair.pair_id}: mask differs from the planted rectangle"
        if text.width != TEXT_DIM or not np.all(np.isfinite(text.embeddings)):
            return False, f"{pair.pair_id}: bad text semantics"
        values = dict(zip(METRIC_RANGES, row.values()))
        for name, (lo, hi) in METRIC_RANGES.items():
            if not (math.isfinite(values[name]) and lo <= values[name] <= hi):
                return False, f"{pair.pair_id}: {name} = {values[name]} outside [{lo}, {hi}]"
        self.digests[pair.pair_id] = hashlib.sha256(
            repr(sorted(values.items())).encode()).hexdigest()
        return True, None


WORKLOADS = {
    "fuse-96": FuseWorkload,
    "fuse-160": FuseWorkload,
    "train-b2": TrainWorkload,
    "ingest-png": IngestWorkload,
}
