import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ivfuse import training
from ivfuse.checkpoint import load_checkpoint
from ivfuse.dataset import ImagePair, synth_pair
from ivfuse.losses import LossWeights, total_loss
from ivfuse.model import FusionModel, ModelConfig
from ivfuse.rng import derive
from ivfuse.sig import MaskSemantics, TextSemantics
from ivfuse.tensor import Tensor
from ivfuse.training import (HISTORY_HEADER, TrainConfig, TrainingDiverged,
                             load_model, sample_crop, train)

TINY_MODEL = ModelConfig(patch=2, dim=8, heads=2, text_dim=6, depth=1, base_grid=(8, 8))


def tiny_config(**kw):
    base = dict(epochs=2, batch_size=2, crop=16, lr=1e-3, seed=3,
                weights=LossWeights(), variant="full", model=TINY_MODEL)
    base.update(kw)
    return TrainConfig(**base)


def make_dataset(rng, n=3, h=24, w=24):
    pairs = []
    semantics = {}
    for i in range(n):
        vis, ir, rect = synth_pair(i, (h, w))
        pair = ImagePair(f"p{i}", vis, ir)
        pairs.append(pair)
        semantics[pair.pair_id] = (MaskSemantics(rect.indicator(h, w)),
                                   TextSemantics(rng.standard_normal((3, 6))))
    return pairs, semantics


# -- sample_crop -----------------------------------------------------------------


def test_crop_full_window_when_sizes_match(rng):
    vis, ir, rect = synth_pair(0, (16, 16))
    pair = ImagePair("p", vis, ir)
    mask = MaskSemantics(rect.indicator(16, 16))
    vis_c, ir_c, mask_c = sample_crop(pair, mask, 16, derive(0, "c"))
    np.testing.assert_array_equal(vis_c, pair.i_vis)
    np.testing.assert_array_equal(ir_c, pair.i_ir)
    np.testing.assert_array_equal(mask_c.m, mask.m)


def test_crop_deterministic_given_seed(rng):
    vis, ir, rect = synth_pair(1, (32, 40))
    pair = ImagePair("p", vis, ir)
    mask = MaskSemantics(rect.indicator(32, 40))
    a = sample_crop(pair, mask, 16, derive(7, "crop"))
    b = sample_crop(pair, mask, 16, derive(7, "crop"))
    for x, y in zip(a[:2], b[:2]):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a[2].m, b[2].m)


def test_crop_alignment_and_mask_count(rng):
    """Mask pixels inside the window recount from the original mask."""
    vis, ir, _ = synth_pair(2, (32, 32))
    pair = ImagePair("p", vis, ir)
    mask_arr = (np.random.default_rng(5).random((32, 32)) > 0.6).astype(float)
    mask = MaskSemantics(mask_arr)
    gen = derive(9, "crop")
    vis_c, ir_c, mask_c = sample_crop(pair, mask, 12, gen)
    # recover the window by matching the cropped visible block
    found = None
    for y0 in range(21):
        for x0 in range(21):
            if np.array_equal(pair.i_vis[:, y0:y0 + 12, x0:x0 + 12], vis_c):
                found = (y0, x0)
                break
        if found:
            break
    assert found is not None
    y0, x0 = found
    np.testing.assert_array_equal(mask_c.m, mask_arr[y0:y0 + 12, x0:x0 + 12])
    assert mask_c.m.sum() == mask_arr[y0:y0 + 12, x0:x0 + 12].sum()
    np.testing.assert_array_equal(ir_c, pair.i_ir[:, y0:y0 + 12, x0:x0 + 12])


def test_undersized_image_reflect_padded(rng):
    vis, ir, rect = synth_pair(3, (10, 10))
    pair = ImagePair("p", vis, ir)
    mask = MaskSemantics(rect.indicator(10, 10))
    vis_c, ir_c, mask_c = sample_crop(pair, mask, 16, derive(0, "pad"))
    assert vis_c.shape == (3, 16, 16)
    assert ir_c.shape == (1, 16, 16)
    assert mask_c.m.shape == (16, 16)
    np.testing.assert_array_equal(vis_c[:, :10, :10], pair.i_vis)


# -- train loop --------------------------------------------------------------------


def test_lr_zero_leaves_parameters_bit_identical(tmp_path, rng):
    pairs, semantics = make_dataset(rng, n=2)
    config = tiny_config(lr=0.0, epochs=1)
    result = train(config, pairs, semantics, tmp_path / "run")
    _, states = load_checkpoint(result.checkpoint_path)
    from ivfuse.model import FusionModel
    fresh = FusionModel(config.model, variant=config.variant, seed=config.seed)
    for p in fresh.parameters():
        np.testing.assert_array_equal(states[p.name].data, p.data)


def test_history_written_per_step(tmp_path, rng):
    pairs, semantics = make_dataset(rng, n=3)
    config = tiny_config(epochs=2, batch_size=2)   # 2 steps/epoch -> 4 steps
    result = train(config, pairs, semantics, tmp_path / "run")
    lines = (tmp_path / "run" / "loss_history.csv").read_text().strip().splitlines()
    assert lines[0] == HISTORY_HEADER
    assert len(lines) == 1 + 4
    assert len(result.history) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 6
    assert result.steps == 4


def test_reproducible_history(tmp_path, rng):
    pairs, semantics = make_dataset(rng, n=2)
    config = tiny_config(epochs=2)
    a = train(config, pairs, semantics, tmp_path / "a")
    b = train(config, pairs, semantics, tmp_path / "b")
    assert [r["total"] for r in a.history] == [r["total"] for r in b.history]
    assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
        (tmp_path / "b" / "model.ckpt").read_bytes()


def test_resume_equals_uninterrupted(tmp_path, rng):
    pairs, semantics = make_dataset(rng, n=3)
    # 2 steps/epoch; checkpoint after 3 of 6 steps, resume for the rest
    full_cfg = tiny_config(epochs=3, batch_size=2)
    full = train(full_cfg, pairs, semantics, tmp_path / "full")

    part_cfg = tiny_config(epochs=3, batch_size=2, checkpoint_every=3)
    train(part_cfg, pairs, semantics, tmp_path / "part")
    mid = tmp_path / "part" / "checkpoint_step3.ckpt"
    assert mid.exists()
    resumed = train(part_cfg, pairs, semantics, tmp_path / "resumed", resume_from=mid)
    assert resumed.steps == 3

    _, full_states = load_checkpoint(full.checkpoint_path)
    _, resumed_states = load_checkpoint(resumed.checkpoint_path)
    assert set(full_states) == set(resumed_states)
    for name in full_states:
        np.testing.assert_array_equal(full_states[name].data, resumed_states[name].data)
        np.testing.assert_array_equal(full_states[name].m, resumed_states[name].m)
        assert full_states[name].step == resumed_states[name].step


def test_variant_checkpoint_header_and_load_model(tmp_path, rng):
    pairs, semantics = make_dataset(rng, n=2)
    config = tiny_config(epochs=1, variant="no-gaf")
    result = train(config, pairs, semantics, tmp_path / "run")
    meta, _ = load_checkpoint(result.checkpoint_path)
    assert meta["variant"] == "no-gaf"
    model = load_model(result.checkpoint_path, config.model)
    assert model.variant == "no-gaf"


def test_diverged_training_keeps_last_checkpoint(tmp_path, rng):
    # an absurd learning rate overflows the parameters after the first step;
    # the abort must point at the step-1 checkpoint
    pairs, semantics = make_dataset(rng, n=2)
    config = tiny_config(epochs=4, batch_size=2, checkpoint_every=1, lr=1e155)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(config, pairs, semantics, tmp_path / "run")
    ckpt = err.value.checkpoint_path
    assert ckpt is not None and str(ckpt).endswith(".ckpt")
    meta, _ = load_checkpoint(ckpt)  # retained checkpoint is intact
    assert meta["variant"] == "full"


def test_empty_dataset_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        train(tiny_config(), [], {}, tmp_path / "run")


@pytest.mark.parametrize("variant", ["full", "no-mgca"])
def test_mask_of_wrong_size_rejected_before_cropping(rng, tmp_path, variant):
    pairs, semantics = make_dataset(rng, n=2, h=32, w=32)
    semantics["p1"] = (MaskSemantics(np.ones((5, 5))), semantics["p1"][1])
    with pytest.raises(ValueError,
                       match=r"mask \(5, 5\) does not match pair 'p1' of size \(32, 32\)"):
        train(tiny_config(variant=variant), pairs, semantics, tmp_path / "run")
    assert not (tmp_path / "run").exists()


# -- one backward pass per batch member ------------------------------------------


class _StopAtStep(Exception):
    pass


def first_step_grads(monkeypatch, config, pairs, semantics, out_dir):
    """Parameter grads ``train`` hands to its first AdamW step."""
    seen = []

    def capture(params, lr):
        seen.extend(p.grad.copy() for p in params)
        raise _StopAtStep

    monkeypatch.setattr(training, "adamw_step", capture)
    with pytest.raises(_StopAtStep):
        train(config, pairs, semantics, out_dir)
    return seen


def summed_graph_grads(config, pairs, semantics):
    """The same step built the way a single graph would: every member's
    scaled loss summed into one total, then one backward pass."""
    model = FusionModel(config.model, variant=config.variant, seed=config.seed)
    members = derive(config.seed, "order", 0).permutation(len(pairs))[:config.batch_size]
    total = None
    for idx in members:
        pair = pairs[int(idx)]
        mask, text = semantics[pair.pair_id]
        vis, ir, mask_c = sample_crop(pair, mask, config.crop,
                                      derive(config.seed, "crop", 0, int(idx)))
        loss, _ = total_loss(model.forward(Tensor(vis), Tensor(ir), mask_c, text),
                             vis, ir, config.weights)
        scaled = loss * (1.0 / len(members))
        total = scaled if total is None else total + scaled
    total.backward()
    return [p.grad for p in model.trainable_parameters()]


@pytest.mark.parametrize("variant", ["full", "no-mgca", "no-tivr", "no-gaf"])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_per_member_backward_matches_summed_graph(tmp_path, rng, monkeypatch,
                                                  variant, batch):
    pairs, semantics = make_dataset(rng, n=8)
    config = tiny_config(batch_size=batch, variant=variant)
    got = first_step_grads(monkeypatch, config, pairs, semantics, tmp_path / "run")
    want = summed_graph_grads(config, pairs, semantics)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_non_finite_later_member_diverges_before_any_step(tmp_path, rng, monkeypatch):
    pairs, semantics = make_dataset(rng, n=3)
    config = tiny_config(batch_size=3, epochs=1)
    models, calls, steps = [], [], []

    def recording_model(*args, **kwargs):
        models.append(FusionModel(*args, **kwargs))
        return models[-1]

    def nan_on_second(*args, **kwargs):
        loss, parts = total_loss(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            loss.data = np.full_like(loss.data, np.nan)
        return loss, parts

    monkeypatch.setattr(training, "FusionModel", recording_model)
    monkeypatch.setattr(training, "total_loss", nan_on_second)
    monkeypatch.setattr(training, "adamw_step", lambda *a, **k: steps.append(1))
    with pytest.raises(TrainingDiverged) as err:
        train(config, pairs, semantics, tmp_path / "run")
    assert err.value.step == 0
    assert len(calls) == 2 and steps == []
    fresh = FusionModel(config.model, variant=config.variant, seed=config.seed)
    for p, q in zip(models[0].parameters(), fresh.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


_MEMORY_PROBE = textwrap.dedent("""
    import sys

    import numpy as np
    from ivfuse.dataset import ImagePair, synth_pair
    from ivfuse.sig import MaskSemantics, TextSemantics
    from ivfuse.training import TrainConfig, train

    pairs, semantics = [], {}
    for i in range(2):
        vis, ir, rect = synth_pair(i, (96, 96))
        pairs.append(ImagePair(f"p{i}", vis, ir))
        semantics[f"p{i}"] = (MaskSemantics(rect.indicator(96, 96)),
                              TextSemantics(np.random.default_rng(i).standard_normal((3, 64))))
    train(TrainConfig(epochs=1, batch_size=2, crop=96), pairs, semantics, sys.argv[1])
    with open("/proc/self/status") as f:
        print(next(line for line in f if line.startswith("VmHWM:")).split()[1])
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_stock_train_step_peak_memory(tmp_path):
    """One stock train step (crop 96, batch 2) peaks below 1000 MB RSS.

    With one backward pass per member and the fused attention node it peaks
    at about 840 MB (2 cores, OpenBLAS). Per-member backward alone reads
    about 1180 MB, the fused node alone about 1490 MB, and neither (every
    member's graph held, each attention keeping scores and probabilities)
    about 2200 MB.
    """
    src = str(Path(training.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _MEMORY_PROBE, str(tmp_path / "run")],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    peak_mb = int(run.stdout.split()[-1]) / 1024
    assert peak_mb < 1000, f"peak RSS {peak_mb:.0f} MB"
