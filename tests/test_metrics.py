import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from ivfuse import metrics
from ivfuse.dataset import DatasetError, synth_pair
from ivfuse.imgio import save_image
from ivfuse.metrics import (METRIC_COLUMNS, MetricReport, entropy,
                            evaluate_dataset, evaluate_pair, qabf, scd,
                            std_dev, vif_fusion)

from oracles import (entropy_from_histogram, pearson, qabf_transcription,
                     vif_pixel_transcription)


def gray_img(arr):
    return np.asarray(arr, dtype=np.float64)[None]


# -- entropy ---------------------------------------------------------------


def test_entropy_constant_is_zero():
    assert entropy(gray_img(np.full((16, 16), 0.37))) == 0.0


def test_entropy_two_level_half_half():
    img = np.zeros((16, 16))
    img[:8] = 1.0
    assert abs(entropy(gray_img(img)) - 1.0) < 1e-12


def test_entropy_known_histogram():
    # 4x4 with 4 pixels each of 4 distinct levels -> 2 bits
    img = np.repeat(np.array([0.0, 0.25, 0.5, 0.75]), 4).reshape(4, 4)
    got = entropy(gray_img(img))
    want = entropy_from_histogram(img * 255.0)
    assert abs(got - want) < 1e-12
    assert abs(got - 2.0) < 1e-12


def test_entropy_bounded_by_eight(rng):
    img = rng.random((64, 64))
    assert 0.0 <= entropy(gray_img(img)) <= 8.0
    # perfectly uniform 256-level histogram attains the bound
    levels = np.arange(256.0).repeat(4) / 255.0
    assert abs(entropy(gray_img(levels.reshape(32, 32))) - 8.0) < 1e-12


# -- std ----------------------------------------------------------------------


def test_std_constant_zero_and_two_point():
    assert std_dev(gray_img(np.full((8, 8), 0.4))) == 0.0
    img = np.zeros((8, 8))
    img[:4] = 1.0
    assert abs(std_dev(gray_img(img)) - 127.5) < 1e-12


def test_std_matches_two_pass_formula(rng):
    img = rng.random((32, 32))
    gray = img * 255.0
    want = math.sqrt(((gray - gray.mean()) ** 2).mean())
    assert abs(std_dev(gray_img(img)) - want) < 1e-9


# -- scd -----------------------------------------------------------------------


def test_scd_additive_fusion_is_two(rng):
    v = rng.random((24, 24)) * 0.5
    r = rng.random((24, 24)) * 0.5
    fused = v + r
    assert abs(scd(gray_img(fused), gray_img(v), gray_img(r)) - 2.0) < 1e-9


def test_scd_constant_argument_rule(rng):
    v = rng.random((16, 16))
    ir = np.full((16, 16), 0.5)
    # fused == vis makes (fused - ir) correlate with vis, but (fused - vis)
    # is constant zero -> r := 0; second term r(const_diff, const) -> 0 too
    got = scd(gray_img(v), gray_img(v), gray_img(ir))
    want = pearson(v - ir, v)
    assert abs(got - (0.0 + want)) < 1e-12


def test_scd_matches_pearson_oracle(rng):
    f, v, r = rng.random((20, 20)), rng.random((20, 20)), rng.random((20, 20))
    got = scd(gray_img(f), gray_img(v), gray_img(r))
    want = (pearson((f - v) * 255, r * 255) + pearson((f - r) * 255, v * 255))
    assert abs(got - want) < 1e-9


def test_scd_symmetric_under_source_swap(rng):
    f, v, r = rng.random((20, 20)), rng.random((20, 20)), rng.random((20, 20))
    a = scd(gray_img(f), gray_img(v), gray_img(r))
    b = scd(gray_img(f), gray_img(r), gray_img(v))
    assert abs(a - b) < 1e-12


# -- vif ------------------------------------------------------------------------


def test_vif_self_fidelity_is_one(rng):
    img = rng.random((64, 64))
    got = vif_fusion(gray_img(img), gray_img(img), gray_img(img))
    assert abs(got - 1.0) < 1e-6


def test_vif_blur_reduces_information(rng):
    img = rng.random((64, 64))
    blurred = gaussian_filter(img, 3.0)
    got = vif_fusion(gray_img(blurred), gray_img(img), gray_img(img))
    assert got < 1.0


def test_vif_matches_independent_transcription(rng):
    f, v, r = rng.random((64, 64)), rng.random((64, 64)), rng.random((64, 64))
    got = vif_fusion(gray_img(f), gray_img(v), gray_img(r))
    want = 0.5 * (vif_pixel_transcription(v * 255, f * 255)
                  + vif_pixel_transcription(r * 255, f * 255))
    assert abs(got - want) < 1e-6


def test_vif_filters_each_pyramid_once(rng, monkeypatch):
    """Three pyramids of 4 scales, smooth(x) and smooth(x^2) each, plus
    smooth(ref * fused) per source and scale: 24 + 8 Gaussian filters."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return gaussian_filter(*args, **kwargs)

    monkeypatch.setattr(metrics, "gaussian_filter", counting)
    f, v, r = rng.random((64, 48)), rng.random((64, 48)), rng.random((64, 48))
    vif_fusion(gray_img(f), gray_img(v), gray_img(r))
    assert len(calls) == 32
    assert sorted(set(calls)) == [(8, 6), (16, 12), (32, 24), (64, 48)]


def test_vif_small_images_rejected(rng):
    img = gray_img(rng.random((16, 16)))
    with pytest.raises(ValueError, match="vif"):
        vif_fusion(img, img, img)


# -- qabf ------------------------------------------------------------------------


def test_qabf_self_value_from_sigmoid_arithmetic(rng):
    img = rng.random((32, 32))
    got = qabf(gray_img(img), gray_img(img), gray_img(img))
    q_g = 0.9994 / (1.0 + math.exp(-15.0 * (1.0 - 0.5)))
    q_a = 0.9879 / (1.0 + math.exp(-22.0 * (1.0 - 0.8)))
    exact = q_g * q_a
    assert abs(got - exact) < 1e-9
    assert abs(got - 0.9746) < 1e-3


def test_qabf_flat_sources_zero():
    flat = gray_img(np.full((16, 16), 0.5))
    assert qabf(flat, flat, flat) == 0.0


def test_qabf_matches_independent_transcription(rng):
    f, v, r = rng.random((20, 20)), rng.random((20, 20)), rng.random((20, 20))
    got = qabf(gray_img(f), gray_img(v), gray_img(r))
    want = qabf_transcription(f * 255, v * 255, r * 255)
    assert abs(got - want) < 1e-6


def test_qabf_in_unit_interval(rng):
    for _ in range(5):
        f, v, r = rng.random((24, 24)), rng.random((24, 24)), rng.random((24, 24))
        val = qabf(gray_img(f), gray_img(v), gray_img(r))
        assert 0.0 <= val <= 1.0


# -- translation invariance -------------------------------------------------------


def test_metrics_invariant_to_common_translation(rng):
    """Translating every input and cropping to the common region reaches the
    same pixels two ways; the metrics must agree (no absolute-coordinate
    dependence, boundary handling confined to the evaluated region)."""
    vis, ir, _ = synth_pair(7, (72, 72))
    fused = 0.5 * vis + 0.5 * np.repeat(ir, 3, axis=0)
    h, w = 72, 72
    for dy, dx in ((2, 0), (0, 2), (2, 2)):
        def common_from_original(img):
            return np.ascontiguousarray(img[..., dy:, dx:])

        def common_from_translated(img):
            translated = img[..., dy:, dx:]            # shift by (dy, dx)
            return np.ascontiguousarray(translated[..., :h - dy, :w - dx])

        base = tuple(common_from_original(x) for x in (fused, vis, ir))
        moved = tuple(common_from_translated(x) for x in (fused, vis, ir))
        for name, fn in (("en", lambda f, v, r: entropy(f)),
                         ("sd", lambda f, v, r: std_dev(f)),
                         ("scd", scd), ("vif", vif_fusion), ("qabf", qabf)):
            a = fn(*base)
            b = fn(*moved)
            assert abs(a - b) < 1e-9, name


# -- reporting ----------------------------------------------------------------------


def write_triplet(tmp_path, rng, stems):
    for sub in ("fused", "vis", "ir"):
        (tmp_path / sub).mkdir(exist_ok=True)
    for stem in stems:
        vis, ir, _ = synth_pair(sum(ord(c) for c in stem), (64, 64))
        fused = 0.6 * vis + 0.4 * np.repeat(ir, 3, axis=0)
        save_image(fused, tmp_path / "fused" / f"{stem}.png")
        save_image(vis, tmp_path / "vis" / f"{stem}.png")
        save_image(ir, tmp_path / "ir" / f"{stem}.png")


def test_single_pair_report_means_equal_row(tmp_path, rng):
    write_triplet(tmp_path, rng, ["a"])
    report = evaluate_dataset(tmp_path / "fused", tmp_path / "vis", tmp_path / "ir")
    assert len(report.rows) == 1
    means = report.means
    for col, val in zip(METRIC_COLUMNS, report.rows[0].values()):
        assert abs(means[col] - val) < 1e-12


def test_report_rows_sorted_and_means_averaged(tmp_path, rng):
    write_triplet(tmp_path, rng, ["b", "a"])
    report = evaluate_dataset(tmp_path / "fused", tmp_path / "vis", tmp_path / "ir")
    assert [r.pair_id for r in report.rows] == ["a", "b"]
    hand = np.array([report.rows[0].values(), report.rows[1].values()]).mean(axis=0)
    for col, val in zip(METRIC_COLUMNS, hand):
        assert abs(report.means[col] - val) < 1e-12


def test_empty_report_means_raise_dataset_error(tmp_path):
    """A report without rows has no means: ``means``, the CSV and the text
    report raise ``DatasetError``, and no CSV is left behind."""
    report = MetricReport()
    for read in (lambda: report.means, lambda: report.to_csv(tmp_path / "r.csv"),
                 report.to_text):
        with pytest.raises(DatasetError, match="no rows"):
            read()
    assert not (tmp_path / "r.csv").exists()


def test_unmatched_ids_listed_but_evaluation_continues(tmp_path, rng):
    write_triplet(tmp_path, rng, ["a", "b"])
    (tmp_path / "fused" / "b.png").unlink()
    report = evaluate_dataset(tmp_path / "fused", tmp_path / "vis", tmp_path / "ir")
    assert [r.pair_id for r in report.rows] == ["a"]
    assert report.missing == ["b"]


def test_report_files_and_schema(tmp_path, rng):
    write_triplet(tmp_path, rng, ["a"])
    report = evaluate_dataset(tmp_path / "fused", tmp_path / "vis", tmp_path / "ir")
    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "pair,EN,SD,SCD,VIF,QABF"
    assert lines[-1].startswith("mean,")
    text = report.to_text()
    assert "conventions" in text and "pair" in text
    debug = tmp_path / "per_source.csv"
    report.per_source_csv(debug)
    assert debug.read_text().splitlines()[0] == "pair,VIF_vis,VIF_ir"


def test_self_copy_has_unit_vif_in_debug_columns(rng):
    vis, ir, _ = synth_pair(3, (64, 64))
    row = evaluate_pair(vis, vis, ir, "self")
    assert abs(row.vif_vis - 1.0) < 1e-6
