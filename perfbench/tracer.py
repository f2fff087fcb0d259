"""Spans around the calls into each ivfuse layer, recorded from outside.

Nothing under ``src/`` changes. ``Instrumentation`` replaces each traced
function or method where its caller looks it up (``ivfuse.model.
encode_streams``, ``ivfuse.training.total_loss``, the ``ivfuse.tensor`` op
functions, ...) with a wrapper that opens a span, and puts the original
back on ``uninstall``. Tensor op backward passes are timed by wrapping the
VJP closure each op result carries.

A span is ``[name, start, end, parent, op_id]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``op_id`` the benchmark op that was
running (None during set-up). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict

SETUP = None      # op id of spans recorded during set-up
CHECKING = -1     # op id of spans recorded by output checks (never aggregated)

# tensor op functions by kind; reductions and relu count as elementwise
OP_KINDS = {
    "matmul": ("matmul",),
    "softmax": ("softmax",),
    "gelu": ("gelu",),
    "layer_norm": ("layer_norm",),
    "conv2d": ("conv2d",),
    "sigmoid": ("sigmoid",),
    "elementwise": ("add", "sub", "mul", "div", "neg", "pow_", "abs_",
                    "max_elementwise", "relu", "reduce_sum", "reduce_mean"),
    "shape": ("reshape", "transpose", "slice_", "concat", "pad2d"),
}

# (module, attribute, span name): functions patched where callers look them up
FUNCTIONS = (
    ("ivfuse.tensor", "_check_finite", "tensor.check_finite"),
    ("ivfuse.model", "encode_streams", "mgca.encode_streams"),
    ("ivfuse.model", "cross_reconstruct", "mgca.cross_reconstruct"),
    ("ivfuse.model", "fuse", "model.fuse"),
    ("ivfuse.training", "total_loss", "losses.total_loss"),
    ("ivfuse.losses", "ssim_loss", "losses.ssim_loss"),
    ("ivfuse.losses", "gradient_loss", "losses.gradient_loss"),
    ("ivfuse.training", "adamw_step", "optim.adamw_step"),
    ("ivfuse.training", "zero_grads", "optim.zero_grads"),
    ("ivfuse.training", "sample_crop", "training.sample_crop"),
    ("ivfuse.sig", "mask_from_noise_diff", "sig.mask_from_noise_diff"),
    ("ivfuse.sig", "write_mask", "sig.write_mask"),
    ("ivfuse.dataset", "load_pairs", "dataset.load_pairs"),
    ("ivfuse.dataset", "semantic_generator_for", "dataset.semantic_generator_for"),
    ("ivfuse.metrics", "evaluate_pair", "metrics.evaluate_pair"),
    ("ivfuse.metrics", "vif_fusion", "metrics.vif_fusion"),
    ("ivfuse.metrics", "qabf", "metrics.qabf"),
)

# (module, class, method, span name)
METHODS = (
    ("ivfuse.tensor", "Tensor", "backward", "tensor.backward"),
    ("ivfuse.blocks", "Encoder", "__call__", "blocks.encoder"),
    ("ivfuse.blocks", "PatchEmbed", "__call__", "blocks.patch_embed"),
    ("ivfuse.blocks", "PatchUnembed", "__call__", "blocks.patch_unembed"),
    ("ivfuse.model", "FusionModel", "forward", "model.forward"),
    ("ivfuse.sig", "SemanticGenerator", "mask_for_pair", "sig.mask_for_pair"),
    ("ivfuse.sig", "SemanticGenerator", "text_for_pair", "sig.text_for_pair"),
    ("ivfuse.providers", "PlantedRegionDenoiser", "estimate_noise",
     "providers.estimate_noise"),
)


class Tracer:
    """In-memory span recorder and per-op counters for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = SETUP
        self.counters: dict[tuple, float] = defaultdict(float)
        self.maxima: dict[tuple, float] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        if idx not in self.stack:
            return
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def add(self, name: str, amount: float) -> None:
        self.counters[(self.op_id, name)] += amount

    def peak(self, name: str, value: float) -> None:
        key = (self.op_id, name)
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def write(self, path) -> None:
        """Gzipped JSON lines: one ``[name, start, end, parent, op_id]`` each."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Instrumentation:
    """Installs and removes every wrapper around one Tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def install(self) -> None:
        if self.installed:
            return
        tensor = importlib.import_module("ivfuse.tensor")
        for kind, names in OP_KINDS.items():
            for name in names:
                self._replace(tensor, name, lambda fn, k=kind: self._op(k, fn))
        for module, attr, span in FUNCTIONS:
            owner = importlib.import_module(module)
            self._replace(owner, attr, lambda fn, s=span: self._span(s, fn))
        for module, cls, attr, span in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._replace(owner, attr, lambda fn, s=span: self._span(s, fn))
        blocks, model, training, imgio, dataset = (
            importlib.import_module(f"ivfuse.{name}")
            for name in ("blocks", "model", "training", "imgio", "dataset"))
        self._replace(blocks.CrossAttention, "__call__", self._attention)
        self._replace(model.FusionModel, "_fuse_tokens", self._token_fusion)
        self._replace(training, "save_checkpoint",
                      lambda fn: self._sized("checkpoint.save_checkpoint", fn,
                                             "checkpoint.bytes", after=True, peak=True))
        self._replace(training, "load_checkpoint",
                      lambda fn: self._sized("checkpoint.load_checkpoint", fn,
                                             "checkpoint.bytes", after=False, peak=True))
        for owner in (imgio, dataset):
            self._replace(owner, "load_image",
                          lambda fn: self._sized("imgio.load_image", fn,
                                                 "imgio.load_image.bytes_in", after=False))
        self._replace(imgio, "save_image",
                      lambda fn: self._sized("imgio.save_image", fn,
                                             "imgio.save_image.bytes_out", after=True,
                                             path_arg=1))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrapper factories ---------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return wrapper

    def _op(self, kind: str, fn):
        tracer = self.tracer
        fwd, bwd = f"tensor.{kind}", f"tensor.{kind}.bwd"

        def timed_vjp(vjp):
            def run(g):
                idx = tracer.begin(bwd)
                try:
                    return vjp(g)
                finally:
                    tracer.end(idx)
            return run

        def wrapper(*args, **kwargs):
            idx = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            # pad2d with zero padding hands back its input: leave that alone
            if out._vjp is not None and not any(out is a for a in args):
                out._vjp = timed_vjp(out._vjp)
            if kind == "matmul":
                tracer.add("tensor.matmul.flops", 2.0 * out.size * _shape(args[0])[-1])
            elif kind == "conv2d":
                _, ci, kh, kw = _shape(args[1])
                tracer.add("tensor.conv2d.flops", 2.0 * out.size * ci * kh * kw)
            elif kind == "softmax":
                tracer.add("tensor.softmax.bytes", 16.0 * out.size)
            return out
        return wrapper

    def _attention(self, fn):
        tracer = self.tracer

        def wrapper(module, queries, keys_values, *args, **kwargs):
            batch = 1
            for n in queries.shape[:-2]:
                batch *= n
            scores = module.heads * queries.shape[-2] * keys_values.shape[-2] * batch * 8
            tracer.peak("blocks.attention.score_bytes_max", float(scores))
            idx = tracer.begin("blocks.attention")
            try:
                return fn(module, queries, keys_values, *args, **kwargs)
            finally:
                tracer.end(idx)
        return wrapper

    def _token_fusion(self, fn):
        """Token fusion, then open ``model.decode``: the decoder blocks,
        unembedding and output sigmoid run inline in ``forward`` after it,
        and the ``model.forward`` wrapper closes the span."""
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            idx = tracer.begin("tdaf.token_fusion")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.begin("model.decode")
            return out
        return wrapper

    def _sized(self, name: str, fn, counter: str, *, after: bool, path_arg: int = 0,
               peak: bool = False):
        """Span plus the size of the file read (before) or written (after):
        summed per op, or with ``peak`` the largest file seen."""
        tracer = self.tracer
        record = tracer.peak if peak else tracer.add

        def wrapper(*args, **kwargs):
            path = args[path_arg] if len(args) > path_arg else None
            if not after:
                record(counter, _file_size(path))
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if after:
                    record(counter, _file_size(path))
        return wrapper


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))
