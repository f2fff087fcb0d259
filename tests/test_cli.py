import re

import numpy as np
import pytest

from ivfuse import blas, cli, sig, training
from ivfuse.cli import _semantics, main
from ivfuse.config import load_config, parse_config_text
from ivfuse.dataset import (FixtureBundle, generate_dataset, load_pairs,
                            semantic_generator_for)
from ivfuse.imgio import load_image
from ivfuse.model import FusionModel, StageError
from ivfuse.providers import HashTextEncoder, LookupCaptioner
from ivfuse.sig import MaskSemantics, TextDescription, embed_text, read_mask

SMALL_CONFIG = """
patch = 2
dim = 8
heads = 2
text_dim = 8
depth = 1
crop = 16
epochs = 2
batch_size = 2
seed = 11
vocabulary = car,person,bike
"""


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    generate_dataset(root, 2, (32, 32), seed=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    return root, cfg, tmp_path


def test_fuse_smoke(dataset, capsys):
    root, cfg, tmp = dataset
    out = tmp / "fused"
    code = main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(out)])
    assert code == 0
    images = sorted(out.glob("*.png"))
    assert [p.stem for p in images] == ["pair0000", "pair0001"]
    img = load_image(images[0])
    assert img.shape == (3, 32, 32)


def test_fuse_idempotent_outputs(dataset):
    root, cfg, tmp = dataset
    out1, out2 = tmp / "f1", tmp / "f2"
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(out1)]) == 0
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(out2)]) == 0
    for name in ("pair0000.png", "pair0001.png"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fuse_jobs_parallel_matches_serial(dataset):
    root, cfg, tmp = dataset
    serial, parallel = tmp / "s", tmp / "p"
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(serial)]) == 0
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(parallel),
                 "--jobs", "2"]) == 0
    for name in ("pair0000.png", "pair0001.png"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fuse_command_runs_each_forward_on_one_blas_thread_and_restores_it(dataset, monkeypatch,
                                                                           jobs):
    """Every pair's forward runs on one OpenBLAS thread, and the count set
    before the command (two here) is back afterwards."""
    get, set_ = blas._controls() or pytest.skip("OpenBLAS's thread count cannot be set here")
    root, cfg, tmp = dataset
    seen, real_forward = [], FusionModel.forward

    def forward(self, *args):
        seen.append(get())
        return real_forward(self, *args)

    monkeypatch.setattr(FusionModel, "forward", forward)
    before = get()
    set_(2)
    try:
        assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(tmp / "f"),
                     "--jobs", jobs]) == 0
        assert seen == [1, 1]
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fuse_reports_failed_pair_and_writes_the_rest(dataset, capsys, monkeypatch, jobs):
    root, cfg, tmp = dataset
    real_fuse = cli.fuse

    def fuse(model, pair, semantics):
        if pair.pair_id == "pair0001":  # model.fuse rejects a mask of the wrong size
            semantics = (MaskSemantics(np.ones((5, 5))), semantics[1])
        return real_fuse(model, pair, semantics)

    monkeypatch.setattr(cli, "fuse", fuse)
    out = tmp / "fused"
    code = main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(out),
                 "--jobs", jobs])
    assert code == 2
    assert sorted(p.name for p in out.glob("*.png")) == ["pair0000.png"]
    err = capsys.readouterr().err
    assert "fuse failed for pair0001: " in err
    assert "pair0000" not in err and "Traceback" not in err


def test_shipped_caption_drives_mask_and_text(dataset):
    """A dataset's captions/<pair>.txt replaces the captioner for that pair."""
    root, cfg, tmp = dataset
    (root / "captions").mkdir()
    (root / "captions" / "pair0000.txt").write_text("an empty street\n")
    out = tmp / "maskout"
    with pytest.warns(UserWarning, match="no vocabulary keyword"):
        assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    # no keyword, so the contrast caption is the caption and nothing stands out
    assert not read_mask(out / "masks" / "pair0000.mask").any()
    assert read_mask(out / "masks" / "pair0001.mask").any()
    config = load_config(cfg)
    pairs = load_pairs(root)
    with pytest.warns(UserWarning, match="no vocabulary keyword"):
        semantics = _semantics(config, root, pairs, tmp / "cache")
    generator = semantic_generator_for(root, pairs, text_dim=config.train.model.text_dim,
                                       settings=config.mask)
    shipped = embed_text(TextDescription.from_text("an empty street"), generator.text_encoder)
    assert semantics["pair0000"][1].length == 3
    np.testing.assert_array_equal(semantics["pair0000"][1].embeddings, shipped.embeddings)
    np.testing.assert_array_equal(semantics["pair0001"][1].embeddings,
                                  generator.text_for_pair(pairs[1].i_vis).embeddings)


def test_mask_rerun_after_shipping_a_caption_uses_it(dataset):
    """The mask cache under --out is keyed by the mask's inputs, not the pair
    id, so a caption shipped between two runs into one --out takes effect."""
    root, cfg, tmp = dataset
    out = tmp / "maskout"
    assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert read_mask(out / "masks" / "pair0000.mask").any()
    (root / "captions").mkdir()
    (root / "captions" / "pair0000.txt").write_text("an empty street\n")
    with pytest.warns(UserWarning, match="no vocabulary keyword"):
        assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert not read_mask(out / "masks" / "pair0000.mask").any()
    assert read_mask(out / "masks" / "pair0001.mask").any()


def test_mask_rerun_follows_a_changed_caption(dataset):
    """Captions are resolved afresh on every run, so a caption changed in
    fixtures.json between two runs into one --out gives a new mask and text."""
    root, cfg, tmp = dataset
    out, fresh = tmp / "maskout", tmp / "fresh"
    assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert read_mask(out / "masks" / "pair0000.mask").any()
    fixtures = FixtureBundle.load(root / "fixtures.json")
    fixtures.captions["pair0000"] = "an empty street"
    fixtures.save(root / "fixtures.json")
    for target in (out, fresh):
        with pytest.warns(UserWarning, match="no vocabulary keyword"):
            assert main(["mask", "--config", str(cfg), "--in", str(root),
                         "--out", str(target)]) == 0
    rerun = read_mask(out / "masks" / "pair0000.mask")
    np.testing.assert_array_equal(rerun, read_mask(fresh / "masks" / "pair0000.mask"))
    assert not rerun.any()
    # the new mask is cached, so this reads it and takes the text from the new caption
    semantics = _semantics(load_config(cfg), root, load_pairs(root), out / "cache")
    assert semantics["pair0000"][1].length == 3


def _artefact_patterns(out):
    """Every path under ``out``, with pair ids and cache keys generalised."""
    return sorted(re.sub(r"[0-9a-f]{64}", "<key>", re.sub(r"pair\d{4}", "<pair>", p))
                  for p in (path.relative_to(out).as_posix() for path in out.rglob("*")))


def _small_run(tmp_path):
    root = tmp_path / "data"
    generate_dataset(root, 2, (16, 16), seed=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 1"))
    return root, cfg


def test_commands_write_only_their_artefacts(tmp_path):
    root, cfg = _small_run(tmp_path)
    cache = ["cache", "cache/masks", "cache/masks/<key>.mask", "cache/masks/<key>.mask"]
    expected = {
        "fuse": ["<pair>.png", "<pair>.png"] + cache,
        "train": cache + ["loss_history.csv", "model.ckpt"],
        "mask": cache + ["masks", "masks/<pair>.mask", "masks/<pair>.mask",
                         "previews", "previews/<pair>.png", "previews/<pair>.png"],
    }
    for command, artefacts in expected.items():
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
        assert _artefact_patterns(out) == sorted(artefacts), command


def _semantics_calls(monkeypatch):
    """Record every ``ivfuse.sig.image_content_hash`` result and every
    captioner and text-encoder call."""
    calls = {"hash": [], "caption": [], "encode": []}

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append(out if name == "hash" else args[-1])
            return out
        return wrapper

    monkeypatch.setattr(sig, "image_content_hash", recording("hash", sig.image_content_hash))
    monkeypatch.setattr(LookupCaptioner, "caption", recording("caption", LookupCaptioner.caption))
    monkeypatch.setattr(HashTextEncoder, "encode", recording("encode", HashTextEncoder.encode))
    return calls


def test_each_command_hashes_each_image_once(tmp_path, monkeypatch):
    """One semantics pass per pair: ``ivfuse.sig`` hashes every image once
    per command, and the captioner runs once per pair."""
    root, cfg = _small_run(tmp_path)
    images = sorted(sig.image_content_hash(img) for p in load_pairs(root)
                    for img in (p.i_vis, p.i_ir))
    calls = _semantics_calls(monkeypatch)
    for command in ("fuse", "train", "mask"):
        for seen in calls.values():
            seen.clear()
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
        assert sorted(calls["hash"]) == images, command
        assert len(calls["caption"]) == 2, command


def test_mask_embeds_no_text(tmp_path, monkeypatch):
    root, cfg = _small_run(tmp_path)
    calls = _semantics_calls(monkeypatch)
    out = tmp_path / "mask"
    assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert calls["encode"] == [] and len(calls["caption"]) == 2


def test_mask_writes_caches_and_previews(dataset):
    root, cfg, tmp = dataset
    out = tmp / "maskout"
    assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "masks").iterdir()) == \
        ["pair0000.mask", "pair0001.mask"]
    preview = load_image(out / "previews" / "pair0000.png")
    assert set(np.unique(preview)).issubset({0.0, 1.0})


def test_train_then_fuse_with_checkpoint(dataset, capsys):
    root, cfg, tmp = dataset
    run = tmp / "train"
    assert main(["train", "--config", str(cfg), "--in", str(root), "--out", str(run)]) == 0
    ckpt = run / "model.ckpt"
    assert ckpt.exists()
    assert (run / "loss_history.csv").exists()
    out = tmp / "fused_ckpt"
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 0
    assert (out / "pair0000.png").exists()
    # a config that describes another model than the checkpoint is a usage error
    capsys.readouterr()
    for old, new, key in (("heads = 2", "heads = 4", "heads"),
                          ("seed = 11", "variant = no-mgca", "variant"),
                          ("crop = 16", "crop = 24", "base_grid")):
        other = tmp / "other.cfg"
        other.write_text(SMALL_CONFIG.replace(old, new))
        out = tmp / f"fused_{key}"
        assert main(["fuse", "--config", str(other), "--in", str(root), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 1
        assert not out.exists()
        assert f"differs from checkpoint {ckpt} in {key} (checkpoint" in capsys.readouterr().err


def test_train_resume_reads_the_checkpoint_once(dataset, monkeypatch):
    root, cfg, tmp = dataset
    assert main(["train", "--config", str(cfg), "--in", str(root),
                 "--out", str(tmp / "run")]) == 0
    ckpt = tmp / "run" / "model.ckpt"
    longer = tmp / "longer.cfg"
    longer.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 3"))
    reads, real = [], training.load_checkpoint

    def counted(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(training, "load_checkpoint", counted)
    out = tmp / "resumed"
    assert main(["train", "--config", str(longer), "--in", str(root), "--out", str(out),
                 "--resume", str(ckpt)]) == 0
    assert reads == [str(ckpt)]
    assert (out / "loss_history.csv").read_text().splitlines()[1].startswith("2,")


def test_eval_self_copies_unit_vif(dataset, capsys):
    root, cfg, tmp = dataset
    fused = tmp / "copies"
    fused.mkdir()
    for src in (root / "vis").iterdir():
        (fused / src.name).write_bytes(src.read_bytes())
    out = tmp / "report"
    code = main(["eval", "--fused", str(fused), "--in", str(root),
                 "--out", str(out), "--per-source"])
    assert code == 0
    per_source = (out / "report_per_source.csv").read_text().splitlines()
    assert per_source[0] == "pair,VIF_vis,VIF_ir"
    for line in per_source[1:]:
        vif_vis = float(line.split(",")[1])
        assert abs(vif_vis - 1.0) < 1e-6
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "pair,EN,SD,SCD,VIF,QABF"


def test_eval_requires_sources(dataset):
    root, cfg, tmp = dataset
    code = main(["eval", "--fused", str(root / "vis"), "--out", str(tmp / "r")])
    assert code == 1


def test_usage_errors_exit_one(dataset, capsys):
    root, cfg, tmp = dataset
    assert main(["fuse", "--in", str(root)]) == 1          # missing --config/--out
    assert main(["nonsense"]) == 1
    assert main(["fuse", "--config", str(tmp / "missing.cfg"), "--in", str(root),
                 "--out", str(tmp / "x")]) == 1            # config not found
    bad_cfg = tmp / "bad.cfg"
    bad_cfg.write_text("warp_speed = 9\n")
    assert main(["fuse", "--config", str(bad_cfg), "--in", str(root),
                 "--out", str(tmp / "x")]) == 1
    assert main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(tmp / "x"),
                 "--jobs", "0"]) == 1
    assert main(["eval", "--config", str(cfg), "--fused", str(root / "vis"),
                 "--in", str(root), "--out", str(tmp / "r")]) == 1  # eval reads no config
    # eval takes its sources from --in or from --vis and --ir, never a mix
    capsys.readouterr()
    for sources in (["--in", str(root), "--vis", str(root / "vis")],
                    ["--in", str(root), "--ir", str(root / "ir")],
                    ["--in", str(root), "--vis", str(root / "vis"), "--ir", str(root / "ir")],
                    ["--vis", str(root / "vis")], ["--ir", str(root / "ir")]):
        assert main(["eval", "--fused", str(root / "vis"), "--out", str(tmp / "r")]
                    + sources) == 1, sources
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, sources
    # a --fused directory with no image matching a pair is rejected before --out is made
    (tmp / "no_fused").mkdir()
    for fused in (tmp / "missing_fused", tmp / "no_fused"):
        out = tmp / f"r_{fused.name}"
        assert main(["eval", "--fused", str(fused), "--in", str(root),
                     "--out", str(out)]) == 1, fused
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(fused) in err and not out.exists(), fused
    # every config rule is checked when the config loads, for every command
    capsys.readouterr()
    for i, line in enumerate([b"heads = 0", b"patch = 0", b"lr_schedule = bogus",
                              b"batch_size = 0", b"w_ssim = -1", b"epochs = -1",
                              b"lr = nan", b"keyword = caf\xe9"]):
        key = line.split(b" ")[0]
        kept = [k for k in SMALL_CONFIG.encode().splitlines() if not k.startswith(key + b" ")]
        bad_cfg.write_bytes(b"\n".join(kept + [line]) + b"\n")
        for command in ("train", "fuse"):
            out = tmp / f"{command}{i}"
            assert main([command, "--config", str(bad_cfg), "--in", str(root),
                         "--out", str(out)]) == 1, line
            assert not (out / "model.ckpt").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "duplicate" not in err
    assert "not UTF-8" in err
    # resuming a checkpoint of another model is caught before anything is written
    assert main(["train", "--config", str(cfg), "--in", str(root),
                 "--out", str(tmp / "run")]) == 0
    ckpt = tmp / "run" / "model.ckpt"
    other = tmp / "other.cfg"
    other.write_text(SMALL_CONFIG.replace("heads = 2", "heads = 4"))
    capsys.readouterr()
    out = tmp / "resumed"
    assert main(["train", "--config", str(other), "--in", str(root), "--out", str(out),
                 "--resume", str(ckpt)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"differs from checkpoint {ckpt} in heads (checkpoint 2, config 4)" in err
    assert "Traceback" not in err


def test_runtime_errors_exit_two(dataset):
    root, cfg, tmp = dataset
    empty = tmp / "empty"
    (empty / "vis").mkdir(parents=True)
    (empty / "ir").mkdir()
    code = main(["fuse", "--config", str(cfg), "--in", str(empty), "--out", str(tmp / "o")])
    assert code == 1  # dataset errors are usage-class
    # corrupt checkpoint is a runtime failure
    bad = tmp / "bad.ckpt"
    bad.write_bytes(b"garbage")
    code = main(["fuse", "--config", str(cfg), "--in", str(root),
                 "--out", str(tmp / "o2"), "--checkpoint", str(bad)])
    assert code == 2


def test_inputs_never_mutated(dataset):
    root, cfg, tmp = dataset
    before = {p.name: p.read_bytes() for sub in ("vis", "ir")
              for p in (root / sub).iterdir()}
    before["fixtures.json"] = (root / "fixtures.json").read_bytes()
    main(["fuse", "--config", str(cfg), "--in", str(root), "--out", str(tmp / "out")])
    main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(tmp / "m")])
    after = {p.name: p.read_bytes() for sub in ("vis", "ir")
             for p in (root / sub).iterdir()}
    after["fixtures.json"] = (root / "fixtures.json").read_bytes()
    assert before == after
    assert sorted(p.name for p in root.iterdir()) == ["fixtures.json", "ir", "vis"]


@pytest.mark.parametrize("args, message", [
    (["--pairs", "0"], "--pairs must be >= 1"), (["--pairs", "-1"], "--pairs must be >= 1"),
    (["--size", "0"], "at least 6"), (["--size", "5"], "at least 6"),
], ids=["pairs0", "pairs-1", "size0", "size5"])
def test_synth_rejects_inputs_it_cannot_use(tmp_path, capsys, args, message):
    """No pairs, or sides below six pixels, are usage errors that write no
    image."""
    out = tmp_path / "synthetic"
    assert main(["synth", "--out", str(out), *args]) == cli.USAGE_EXIT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_and_init_config(tmp_path, capsys):
    out = tmp_path / "synthetic"
    assert main(["synth", "--out", str(out), "--pairs", "2", "--size", "24"]) == 0
    assert (out / "fixtures.json").exists()
    cfg_path = tmp_path / "default.cfg"
    assert main(["init-config", "--out", str(cfg_path)]) == 0
    from ivfuse.config import load_config, RunConfig
    assert load_config(cfg_path) == RunConfig()


def test_ablate_produces_table4_schema(dataset):
    root, cfg, tmp = dataset
    out = tmp / "ablation"
    assert main(["ablate", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "setting,EN,SD,SCD,VIF,QABF"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["(a) w/o MGCA", "(b) w/o TIVR", "(c) w/o GAF", "(d) full"]
    for line in lines[1:]:
        values = line.split(",")[1:]
        assert len(values) == 5
        assert all(np.isfinite(float(v)) for v in values)
    table = (out / "ablation.txt").read_text()
    assert "setting" in table and "(d) full" in table


def test_ablate_reports_failed_fuse_and_stops(dataset, capsys, monkeypatch):
    root, cfg, tmp = dataset
    real_fuse = cli.fuse

    def fuse(model, pair, semantics):
        if pair.pair_id == "pair0001":
            raise StageError(f"fuse failed in stage decode for pair {pair.pair_id!r}: boom")
        return real_fuse(model, pair, semantics)

    monkeypatch.setattr(cli, "fuse", fuse)
    out = tmp / "ablation"
    assert main(["ablate", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fuse failed for pair0001: " in err and "Traceback" not in err
    fused = out / "no-mgca" / "fused"
    assert sorted(p.name for p in fused.iterdir()) == ["pair0000.png"]
    assert not (out / "no-mgca" / "report.csv").exists()
    assert not (out / "no-tivr").exists() and not (out / "ablation.csv").exists()


def test_config_vocabulary_overrides_fixtures(dataset):
    """The run config's keyword order, not fixtures.json's, picks the keyword."""
    root, _, tmp = dataset
    fixtures = FixtureBundle.load(root / "fixtures.json")
    assert fixtures.vocabulary == ("car", "person", "bike")
    fixtures.captions["pair0000"] = "a person beside a car"
    fixtures.save(root / "fixtures.json")
    pairs = load_pairs(root)
    config = parse_config_text("vocabulary = person,car\n")
    generator = semantic_generator_for(root, pairs, text_dim=config.train.model.text_dim,
                                       cache_dir=tmp / "cache", settings=config.mask)
    caption = generator.caption_for(pairs[0].i_vis)
    assert generator.contrast_caption(caption).text == "a beside a car"
