"""Instrumentation wraps ivfuse's layers and puts every original back."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, stats  # noqa: E402
from perfbench.tracer import FUNCTIONS, METHODS, Instrumentation, Tracer  # noqa: E402

ivfuse = pytest.importorskip("ivfuse")
from ivfuse import model as M, tensor as T  # noqa: E402
from ivfuse.dataset import ImagePair  # noqa: E402
from ivfuse.sig import MaskSemantics, TextSemantics  # noqa: E402


def tiny_fuse():
    config = M.ModelConfig(patch=4, dim=8, heads=2, text_dim=8, depth=1, base_grid=(4, 4))
    net = M.FusionModel(config, seed=0)
    gen = np.random.default_rng(0)
    pair = ImagePair("p", gen.uniform(size=(3, 16, 16)), gen.uniform(size=(1, 16, 16)))
    mask = np.zeros((16, 16))
    mask[4:10, 4:10] = 1.0
    semantics = (MaskSemantics(mask), TextSemantics(gen.standard_normal((3, 8))))
    return M.fuse(net, pair, semantics)


def patched_attributes():
    import importlib
    out = [(importlib.import_module(m), a) for m, a, _ in FUNCTIONS]
    out += [(getattr(importlib.import_module(m), c), a) for m, c, a, _ in METHODS]
    out += [(T, "matmul"), (T, "add"), (M.FusionModel, "_fuse_tokens")]
    return out


def test_uninstall_restores_every_original():
    before = [getattr(owner, attr) for owner, attr in patched_attributes()]
    instrumentation = Instrumentation(Tracer())
    instrumentation.install()
    assert T.matmul is not before[-3]
    instrumentation.uninstall()
    assert [getattr(owner, attr) for owner, attr in patched_attributes()] == before


def test_traced_fuse_gives_the_same_image_and_nested_stage_spans():
    expected = tiny_fuse()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    tracer.op_id = 1
    instrumentation.install()
    try:
        got = tiny_fuse()
    finally:
        instrumentation.uninstall()
    assert np.array_equal(got, expected)
    names = [s[0] for s in tracer.spans]
    for name in ("model.fuse", "model.forward", "mgca.encode_streams", "blocks.encoder",
                 "mgca.cross_reconstruct", "tdaf.token_fusion", "model.decode",
                 "blocks.attention", "tensor.matmul", "tensor.check_finite"):
        assert name in names, name
    forward = names.index("model.forward")
    decode = names.index("model.decode")
    assert tracer.spans[decode][3] == forward            # decode sits inside forward
    assert all(s[2] is not None for s in tracer.spans)   # every span closed
    shares = layers.stage_split(stats.aggregate(tracer.spans, [1]))
    assert 0.0 < sum(shares.values()) <= 1.0
