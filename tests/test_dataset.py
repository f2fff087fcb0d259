import re
import shutil

import numpy as np
import pytest

from ivfuse.dataset import (DatasetError, FixtureBundle, ImagePair,
                            generate_dataset, load_pairs,
                            providers_from_fixtures, semantic_generator_for,
                            synth_pair)
from ivfuse.imgio import save_image
from ivfuse.metrics import evaluate_dataset
from ivfuse.sig import MaskSettings, image_content_hash


def test_image_pair_validation(rng):
    with pytest.raises(DatasetError, match="visible"):
        ImagePair("p", rng.random((1, 8, 8)), rng.random((1, 8, 8)))
    with pytest.raises(DatasetError, match="infrared"):
        ImagePair("p", rng.random((3, 8, 8)), rng.random((3, 8, 8)))
    with pytest.raises(DatasetError, match="unregistered"):
        ImagePair("p", rng.random((3, 8, 8)), rng.random((1, 9, 8)))
    pair = ImagePair("p", rng.random((3, 8, 8)) * 2.0, rng.random((1, 8, 8)))
    assert pair.i_vis.max() <= 1.0  # clamped at load


def test_synth_pair_deterministic_and_in_range():
    a_vis, a_ir, a_rect = synth_pair(5, (48, 48))
    b_vis, b_ir, b_rect = synth_pair(5, (48, 48))
    np.testing.assert_array_equal(a_vis, b_vis)
    np.testing.assert_array_equal(a_ir, b_ir)
    assert a_rect == b_rect
    assert a_vis.shape == (3, 48, 48) and a_ir.shape == (1, 48, 48)
    assert 0.0 <= a_vis.min() and a_vis.max() <= 1.0
    # the hot region really is hot relative to the background
    hot = a_ir[0][a_rect.top:a_rect.top + a_rect.height,
                  a_rect.left:a_rect.left + a_rect.width]
    assert hot.mean() > a_ir.mean() + 0.3


@pytest.mark.parametrize("size", [(6, 6), (6, 40), (40, 6), (7, 7), (8, 8)])
def test_synth_pair_draws_a_finite_scene_down_to_six_pixels(size):
    for seed in range(20):
        vis, ir, rect = synth_pair(seed, size)
        assert np.isfinite(vis).all() and np.isfinite(ir).all()
        assert rect.height > 0 and rect.width > 0


@pytest.mark.parametrize("size", [(5, 5), (5, 40), (40, 5), (0, 0)])
def test_synth_sides_below_six_rejected(tmp_path, size):
    with pytest.raises(DatasetError, match="at least 6"):
        synth_pair(0, size)
    with pytest.raises(DatasetError, match="at least 6"):
        generate_dataset(tmp_path / "data", 1, size)
    assert not (tmp_path / "data").exists()


def test_directories_named_like_images_are_skipped(tmp_path):
    """A directory ``x.png/`` beside the images is no pair and no fused
    image: ``load_pairs`` and ``evaluate_dataset`` pass over it."""
    generate_dataset(tmp_path, 1, (64, 64), seed=7)
    (tmp_path / "fused").mkdir()
    shutil.copy(tmp_path / "vis" / "pair0000.png", tmp_path / "fused")
    for sub in ("vis", "ir", "fused"):
        (tmp_path / sub / "x.png").mkdir()
    assert [p.pair_id for p in load_pairs(tmp_path)] == ["pair0000"]
    report = evaluate_dataset(tmp_path / "fused", tmp_path / "vis", tmp_path / "ir")
    assert [r.pair_id for r in report.rows] == ["pair0000"] and report.missing == []


def test_generate_and_load_round_trip(tmp_path):
    fixtures = generate_dataset(tmp_path, 3, (32, 32), seed=1)
    assert set(fixtures.captions) == {"pair0000", "pair0001", "pair0002"}
    pairs = load_pairs(tmp_path)
    assert [p.pair_id for p in pairs] == ["pair0000", "pair0001", "pair0002"]
    assert pairs[0].i_vis.shape == (3, 32, 32)
    reloaded = FixtureBundle.load(tmp_path / "fixtures.json")
    assert reloaded.captions == fixtures.captions
    assert reloaded.regions == {k: list(v) for k, v in fixtures.regions.items()}


def test_missing_ir_counterpart_rejected(tmp_path, rng):
    """A visible image without an infrared one, and a stray infrared image
    beside two real pairs."""
    (tmp_path / "vis").mkdir()
    (tmp_path / "ir").mkdir()
    save_image(rng.random((3, 8, 8)), tmp_path / "vis" / "a.png")
    with pytest.raises(DatasetError, match="infrared counterpart"):
        load_pairs(tmp_path)
    save_image(rng.random((1, 8, 8)), tmp_path / "ir" / "a.png")
    for stem in ("b", "stray"):
        save_image(rng.random((1, 8, 8)), tmp_path / "ir" / f"{stem}.png")
    save_image(rng.random((3, 8, 8)), tmp_path / "vis" / "b.png")
    with pytest.raises(DatasetError, match=r"visible counterpart: \['stray'\]"):
        load_pairs(tmp_path)


def test_dimension_mismatch_names_both_files(tmp_path, rng):
    (tmp_path / "vis").mkdir()
    (tmp_path / "ir").mkdir()
    save_image(rng.random((3, 8, 8)), tmp_path / "vis" / "a.png")
    save_image(rng.random((1, 9, 8)), tmp_path / "ir" / "a.png")
    with pytest.raises(DatasetError) as err:
        load_pairs(tmp_path)
    assert "a.png" in str(err.value)


def test_optional_masks_and_captions_attach(tmp_path, rng):
    from ivfuse.sig import write_mask

    generate_dataset(tmp_path, 1, (16, 16), seed=2)
    (tmp_path / "masks").mkdir()
    (tmp_path / "captions").mkdir()
    mask = (rng.random((16, 16)) > 0.5).astype(float)
    write_mask(tmp_path / "masks" / "pair0000.mask", mask)
    (tmp_path / "captions" / "pair0000.txt").write_text("a person outside\n")
    pair = load_pairs(tmp_path)[0]
    np.testing.assert_array_equal(pair.mask.m, mask)
    assert pair.caption.text == "a person outside"


def test_providers_resolve_against_pairs(tmp_path):
    generate_dataset(tmp_path, 2, (24, 24), seed=3)
    pairs = load_pairs(tmp_path)
    fixtures = FixtureBundle.load(tmp_path / "fixtures.json")
    captioner, denoiser = providers_from_fixtures(fixtures, pairs)
    caption = captioner.caption(pairs[0].i_vis)
    assert caption == fixtures.captions["pair0000"]
    assert image_content_hash(pairs[0].i_vis) in captioner.captions


def test_semantic_generator_recovers_planted_regions(tmp_path):
    generate_dataset(tmp_path, 2, (32, 32), seed=4)
    pairs = load_pairs(tmp_path)
    fixtures = FixtureBundle.load(tmp_path / "fixtures.json")
    gen = semantic_generator_for(tmp_path, pairs, text_dim=16,
                                 cache_dir=tmp_path / "work")
    for pair in pairs:
        mask = gen.mask_for_pair(pair.i_vis, pair.i_ir, pair.pair_id)
        rect = fixtures.regions[fixtures.captions[pair.pair_id]]
        want = np.zeros((32, 32))
        want[rect[0]:rect[0] + rect[2], rect[1]:rect[1] + rect[3]] = 1.0
        np.testing.assert_array_equal(mask.m, want)
        text = gen.text_for_pair(pair.i_vis)
        assert text.width == 16
        assert text.length == len(fixtures.captions[pair.pair_id].split())


def test_fixture_vocabulary_stands_in_for_an_absent_or_empty_one(tmp_path):
    generate_dataset(tmp_path, 1, (16, 16), seed=5, vocabulary=("bike",))
    pairs = load_pairs(tmp_path)
    for settings, want in ((None, ("bike",)), (MaskSettings(vocabulary=()), ("bike",)),
                           (MaskSettings(vocabulary=("car",)), ("car",))):
        gen = semantic_generator_for(tmp_path, pairs, text_dim=8, settings=settings)
        assert gen.settings.vocabulary == want


def test_missing_fixture_file_rejected(tmp_path):
    generate_dataset(tmp_path, 1, (16, 16), seed=5)
    (tmp_path / "fixtures.json").unlink()
    with pytest.raises(DatasetError, match="fixture"):
        semantic_generator_for(tmp_path, load_pairs(tmp_path), text_dim=8)


MALFORMED = {
    "empty-caption": ("captions/pair0000.txt", b" \n\t\n"),
    "non-utf8-caption": ("captions/pair0000.txt", b"a car \xff\xfe outside\n"),
    "wrong-size-mask": ("masks/pair0000.mask", None),
    "corrupt-mask": ("masks/pair0000.mask", b"IVM1 not a mask"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_shipped_semantics_rejected_naming_the_file(tmp_path, capsys, case):
    from ivfuse.cli import main
    from ivfuse.sig import write_mask

    root = tmp_path / "data"
    generate_dataset(root, 2, (32, 32), seed=6)
    name, payload = MALFORMED[case]
    path = root / name
    path.parent.mkdir()
    if payload is None:
        write_mask(path, np.ones((5, 5)))
    else:
        path.write_bytes(payload)
    with pytest.raises(DatasetError, match=re.escape(str(path))):
        load_pairs(root)
    cfg = tmp_path / "run.cfg"
    assert main(["init-config", "--out", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--in", str(root),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err


MALFORMED_FIXTURES = {
    "a-directory": (None, None),
    "not-json": (b'{"captions": ', None),
    "not-utf8": (b'{"captions": {"pair0000": "a \xff car"}}', None),
    "not-an-object": (b"[1, 2]", None),
    "unknown-key": (b'{"region": {}}', "region"),
    "captions-not-an-object": (b'{"captions": ["a car"]}', "captions"),
    "caption-not-a-string": (b'{"captions": {"pair0000": 3}}', "captions"),
    "regions-not-an-object": (b'{"regions": [[1, 2, 3, 4]]}', "regions"),
    "region-of-two-values": (b'{"regions": {"car": [1, 2]}}', "regions"),
    "region-with-a-float": (b'{"regions": {"car": [1, 2, 3, 4.5]}}', "regions"),
    "region-with-a-bool": (b'{"regions": {"car": [1, 2, 3, true]}}', "regions"),
    "region-negative": (b'{"regions": {"car": [-2, 0, 4, 4]}}', "regions"),
    "amplitude-string": (b'{"amplitude": "1"}', "amplitude"),
    "amplitude-nan": (b'{"amplitude": NaN}', "amplitude"),
    "amplitude-beyond-float": (b'{"amplitude": 1' + b"0" * 400 + b"}", "amplitude"),
    "vocabulary-string": (b'{"vocabulary": "car"}', "vocabulary"),
    "vocabulary-with-a-number": (b'{"vocabulary": ["car", 1]}', "vocabulary"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIXTURES))
def test_malformed_fixture_file_rejected_naming_file_and_key(tmp_path, capsys, case):
    from ivfuse.cli import main

    root = tmp_path / "data"
    generate_dataset(root, 1, (16, 16), seed=5)
    payload, key = MALFORMED_FIXTURES[case]
    path = root / "fixtures.json"
    if payload is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(payload)
    with pytest.raises(DatasetError, match=re.escape(str(path))) as err:
        FixtureBundle.load(path)
    assert key is None or key in str(err.value)
    cfg = tmp_path / "run.cfg"
    assert main(["init-config", "--out", str(cfg)]) == 0
    capsys.readouterr()
    for command in ("mask", "fuse"):
        assert main([command, "--config", str(cfg), "--in", str(root),
                     "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
