import numpy as np
import pytest

from ivfuse import cli
from ivfuse.cli import _generator, _semantics, main
from ivfuse.config import load_config, parse_config_text
from ivfuse.dataset import FixtureBundle, generate_dataset, load_pairs
from ivfuse.imgio import load_image
from ivfuse.model import StageError
from ivfuse.sig import TextDescription, embed_text, read_mask, write_mask

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
def test_fuse_reports_failed_pair_and_writes_the_rest(dataset, capsys, jobs):
    root, cfg, tmp = dataset
    (root / "masks").mkdir()
    write_mask(root / "masks" / "pair0001.mask", np.ones((5, 5)))
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
    generator = _generator(config, root, pairs, None)
    shipped = embed_text(TextDescription.from_text("an empty street"), generator.text_encoder)
    assert semantics["pair0000"][1].length == 3
    np.testing.assert_array_equal(semantics["pair0000"][1].embeddings, shipped.embeddings)
    np.testing.assert_array_equal(semantics["pair0001"][1].embeddings,
                                  generator.text_for_pair(pairs[1].i_vis).embeddings)


def test_mask_writes_caches_and_previews(dataset):
    root, cfg, tmp = dataset
    out = tmp / "maskout"
    assert main(["mask", "--config", str(cfg), "--in", str(root), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "masks").iterdir()) == \
        ["pair0000.mask", "pair0001.mask"]
    preview = load_image(out / "previews" / "pair0000.png")
    assert set(np.unique(preview)).issubset({0.0, 1.0})


def test_train_then_fuse_with_checkpoint(dataset):
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
    generator = _generator(config, root, pairs, tmp / "cache")
    caption = generator.caption_for(pairs[0].i_vis)
    assert generator.contrast_caption(caption).text == "a beside a car"
