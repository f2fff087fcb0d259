"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria 5 and 6 train real models and take several
minutes; everything else is seconds.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ivfuse import rng as ivrng
from ivfuse import tensor as T
from ivfuse.cli import main as cli_main
from ivfuse.dataset import ImagePair, generate_dataset, overfit_pair
from ivfuse.losses import (LossWeights, color_loss, gradient_loss,
                           intensity_loss, ssim_loss, total_loss)
from ivfuse.metrics import entropy, qabf, scd, std_dev, vif_fusion
from ivfuse.mgca import FeatureBundle, MaskGuidedAttention, cross_reconstruct
from ivfuse.model import FusionModel, ModelConfig, fuse
from ivfuse.optim import zero_grads
from ivfuse.providers import HashTextEncoder, PlantedRegionDenoiser, Rect
from ivfuse.sig import (MaskSemantics, TextDescription, TextSemantics,
                        embed_text, mask_from_noise_diff, union_masks)
from ivfuse.tdaf import (GateMaps, TextFusionParams, compute_gates,
                         gated_fusion, spatial_attention,
                         text_informed_reconstruction)
from ivfuse.tensor import Tensor
from ivfuse.training import TrainConfig, train

from oracles import (conv2d_direct, cross_attention_brute,
                     entropy_from_histogram, max_relative_error,
                     numeric_gradient, pearson, qabf_transcription,
                     vif_pixel_transcription)

EPS = 1e-4
GRAD_TOL = 1e-3


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def ca_raw(ca):
    return (ca.w_q.weight.data, ca.w_q.bias.data, ca.w_k.weight.data, ca.w_k.bias.data,
            ca.w_v.weight.data, ca.w_v.bias.data, ca.w_o.weight.data, ca.w_o.bias.data,
            ca.heads)


# -- criterion 1: gradient integrity ------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    def check(build, x0):
        x = Tensor(x0, requires_grad=True)
        build(x).backward()
        want = numeric_gradient(lambda arr: build(Tensor(arr)).item(), x0, eps=EPS)
        err = max_relative_error(x.grad, want)
        assert err < GRAD_TOL, f"rel err {err:.2e}"

    def weighted(t, shape):
        return T.reduce_sum(t * Tensor(np.random.default_rng(1).standard_normal(shape)))

    x4 = rng.standard_normal((2, 3, 4, 4))
    y4 = rng.standard_normal((2, 3, 4, 4)) + 3.0
    pairs = {
        "add": lambda t: weighted(T.add(t, Tensor(y4)), x4.shape),
        "sub": lambda t: weighted(T.sub(t, Tensor(y4)), x4.shape),
        "mul": lambda t: weighted(T.mul(t, Tensor(y4)), x4.shape),
        "div": lambda t: weighted(T.div(t, Tensor(y4)), x4.shape),
        "max_elementwise": lambda t: weighted(T.max_elementwise(t, Tensor(y4)), x4.shape),
        "relu": lambda t: weighted(T.relu(t + 0.2), x4.shape),
        "sigmoid": lambda t: weighted(T.sigmoid(t), x4.shape),
        "gelu": lambda t: weighted(T.gelu(t), x4.shape),
        "abs": lambda t: weighted(T.abs_(t + 0.2), x4.shape),
        "pow": lambda t: weighted(T.pow_(t * t + 0.5, 1.5), x4.shape),
        "softmax": lambda t: weighted(T.softmax(t, axis=-1), x4.shape),
        "neg": lambda t: weighted(T.neg(t), x4.shape),
        "reshape": lambda t: weighted(T.reshape(t, (6, 16)), (6, 16)),
        "transpose": lambda t: weighted(T.transpose(t, (1, 0, 3, 2)), (3, 2, 4, 4)),
        "slice": lambda t: weighted(t[:, 1:, :, :2], (2, 2, 4, 2)),
        "reduce_sum": lambda t: weighted(T.reduce_sum(t, axis=(0, 2)), (3, 4)),
        "reduce_mean": lambda t: weighted(T.reduce_mean(t, axis=-1), (2, 3, 4)),
        "concat": lambda t: weighted(T.concat([t, Tensor(y4)], axis=1), (2, 6, 4, 4)),
        "pad2d": lambda t: weighted(T.pad2d(t, 1), (2, 3, 6, 6)),
    }
    for name, build in pairs.items():
        check(build, x4)
    k = rng.standard_normal((2, 3, 3, 3))
    check(lambda t: weighted(T.conv2d(t, Tensor(k), padding=1), (2, 2, 4, 4)), x4)
    check(lambda t: weighted(T.conv2d(Tensor(x4), t, padding=1), (2, 2, 4, 4)), k)
    m = rng.standard_normal((4, 5))
    m_rhs = rng.standard_normal((5, 3))
    check(lambda t: weighted(T.matmul(t, Tensor(m_rhs)), (4, 3)), m)
    check(lambda t: weighted(T.matmul(Tensor(m), t), (4, 3)), m_rhs)
    s, b = rng.standard_normal(4) + 1.0, rng.standard_normal(4)
    check(lambda t: weighted(T.layer_norm(t, Tensor(s), Tensor(b)), (5, 4)), rng.standard_normal((5, 4)))
    # fused attention at a batched lead shape, from its own generator so that
    # the inputs drawn from rng below do not depend on it
    draw = np.random.default_rng(2).standard_normal
    lead = (2, 3)
    aq, akt, av = draw(lead + (4, 3)), draw(lead + (3, 5)), draw(lead + (5, 2))
    check(lambda t: weighted(T.attention(t, Tensor(akt), Tensor(av)), lead + (4, 2)), aq)
    check(lambda t: weighted(T.attention(Tensor(aq), t, Tensor(av)), lead + (4, 2)), akt)
    check(lambda t: weighted(T.attention(Tensor(aq), Tensor(akt), t), lead + (4, 2)), av)

    # every loss, differentiated along the fused-image path
    h = w = 14
    v = rng.random((3, h, w))
    ir = np.clip((0.299 * v[0] + 0.587 * v[1] + 0.114 * v[2])[None] + 0.1, 0, 1)
    f0 = np.clip(rng.random((3, h, w)), 0.05, 0.95)
    for name, build in {
        "ssim_loss": lambda t: ssim_loss(t, v, ir),
        "gradient_loss": lambda t: gradient_loss(t, v, ir),
        "intensity_loss": lambda t: intensity_loss(t, v, ir),
        "color_loss": lambda t: color_loss(t, v),
    }.items():
        check(build, f0)

    # end-to-end: fuse -> total_loss reaches >= 99% of parameters
    model = FusionModel(ModelConfig(), seed=5)
    vis, ir_img, rect = overfit_pair()
    mask = MaskSemantics(rect.indicator(96, 96))
    text = embed_text(TextDescription.from_text("a car in the dark"), HashTextEncoder(64))
    out = model.forward(Tensor(vis), Tensor(ir_img), mask, text)
    loss, _ = total_loss(out, vis, ir_img)
    loss.backward()
    params = model.trainable_parameters()
    nonzero = sum(1 for p in params if p.grad is not None and np.any(p.grad != 0.0))
    frac = nonzero / len(params)
    assert frac >= 0.99, f"only {frac:.1%} of parameters receive gradient"
    zero_grads(params)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.0f}s (budget 120s)"
    report(1, f"all op/loss gradchecks < {GRAD_TOL} rel err; end-to-end gradient "
              f"reaches {frac:.1%} of parameters; {elapsed:.0f}s")


# -- criterion 2: equation-level oracles --------------------------------------------


def test_criterion_2_equation_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    d, heads, n = 8, 2, 16

    # masked cross-reconstruction and the elementwise sum (Eqs. 4-6)
    attn = MaskGuidedAttention(d, heads, name="acc", rng=ivrng.derive(0, "acc2"))
    bundle = FeatureBundle(
        grid=(4, 4),
        fv=Tensor(rng.standard_normal((n, d))), fi=Tensor(rng.standard_normal((n, d))),
        fv_m=Tensor(rng.standard_normal((n, d))), fv_mbar=Tensor(rng.standard_normal((n, d))),
        fi_m=Tensor(rng.standard_normal((n, d))), fi_mbar=Tensor(rng.standard_normal((n, d))),
    )
    out = cross_reconstruct(bundle, attn)
    want_fvi = (cross_attention_brute(bundle.fv_m.data, bundle.fi_m.data, ca_raw(attn.ca_vi_fg))
                + cross_attention_brute(bundle.fv_mbar.data, bundle.fi_mbar.data,
                                        ca_raw(attn.ca_vi_bg)))
    np.testing.assert_allclose(out.fvi.data, want_fvi, atol=1e-9)
    want_fiv = (cross_attention_brute(bundle.fi_m.data, bundle.fv_m.data, ca_raw(attn.ca_iv_fg))
                + cross_attention_brute(bundle.fi_mbar.data, bundle.fv_mbar.data,
                                        ca_raw(attn.ca_iv_bg)))
    np.testing.assert_allclose(out.fiv.data, want_fiv, atol=1e-9)

    # text-informed reconstruction: queries are the channel-concat features
    params = TextFusionParams(d, heads, 6, name="acc.tdaf", rng=ivrng.derive(1, "acc2"))
    emb = rng.standard_normal((5, 6))
    fr = text_informed_reconstruction(out.fvi, out.fiv, TextSemantics(emb), params)
    queries = np.concatenate([out.fvi.data, out.fiv.data], axis=1)
    kv = emb @ params.text_proj.weight.data + params.text_proj.bias.data
    np.testing.assert_allclose(fr.data, cross_attention_brute(queries, kv, ca_raw(params.ca)),
                               atol=1e-9)

    # gates = sigmoid(conv(sum)) against a direct conv oracle
    g_v, g_i = compute_gates(bundle.fv, out.fvi, bundle.fi, out.fiv, params, (4, 4))

    def conv_oracle(tokens, conv):
        grid = tokens.reshape(4, 4, d).transpose(2, 0, 1)[None]
        raw = conv2d_direct(grid, conv.weight.data, conv.bias.data, 1, conv.kernel // 2)
        return 1.0 / (1.0 + np.exp(-raw[0].transpose(1, 2, 0).reshape(n, d)))

    np.testing.assert_allclose(g_v.data, conv_oracle(bundle.fv.data + out.fvi.data,
                                                     params.gate_conv_v), atol=1e-9)
    np.testing.assert_allclose(g_i.data, conv_oracle(bundle.fi.data + out.fiv.data,
                                                     params.gate_conv_i), atol=1e-9)

    # spatial weight = sigmoid(conv2(relu(conv1(.)))) against the same oracle
    alpha = spatial_attention(fr, params, (4, 4))
    hid = conv2d_direct(fr.data.reshape(4, 4, d).transpose(2, 0, 1)[None],
                        params.sa_conv1.weight.data, params.sa_conv1.bias.data, 1, 1)
    hid = np.maximum(hid, 0.0)
    raw = conv2d_direct(hid, params.sa_conv2.weight.data, params.sa_conv2.bias.data, 1, 1)
    np.testing.assert_allclose(alpha.data,
                               1.0 / (1.0 + np.exp(-raw[0].transpose(1, 2, 0).reshape(n, 1))),
                               atol=1e-9)

    # gated fusion elementwise algebra
    fused = gated_fusion(bundle.fv, out.fvi, bundle.fi, out.fiv,
                         GateMaps(g_v, g_i, alpha))
    a = alpha.data
    want = (a * (1 + g_v.data) * (bundle.fv.data + out.fvi.data)
            + (1 - a) * (1 + g_i.data) * (bundle.fi.data + out.fiv.data))
    np.testing.assert_allclose(fused.data, want, atol=1e-9)

    report(2, f"masked reconstruction, text attention, gates, spatial weight, and "
              f"gated fusion all match brute-force oracles to 1e-9; "
              f"{time.perf_counter() - start:.1f}s")


# -- criterion 3: mask semantics ----------------------------------------------------


def test_criterion_3_mask_semantics():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    rect = Rect(4, 6, 8, 10)
    img = rng.random((3, 20, 24))
    t = TextDescription.from_text("a car on a road")
    t_hat = TextDescription.from_text("a on a road")
    den = PlantedRegionDenoiser({"car": rect}, amplitude=0.7)

    planted = mask_from_noise_diff(img, t, t_hat, den)
    np.testing.assert_array_equal(planted, rect.indicator(20, 24))

    empty = mask_from_noise_diff(img, t, t, den)
    np.testing.assert_array_equal(empty, np.zeros((20, 24)))

    for _ in range(10):
        a = (rng.random((9, 9)) > 0.5).astype(float)
        b = (rng.random((9, 9)) > 0.5).astype(float)
        c = (rng.random((9, 9)) > 0.5).astype(float)
        ab = union_masks(a, b)
        assert np.array_equal(ab.m, union_masks(b, a).m)
        assert np.array_equal(union_masks(ab.m, c).m, union_masks(a, union_masks(b, c).m).m)
        assert np.array_equal(union_masks(a, a).m, a)
        np.testing.assert_array_equal(ab.m + ab.m_bar, np.ones((9, 9)))

    report(3, f"planted mask exact, empty on equal captions, union invariants "
              f"bit-exact; {time.perf_counter() - start:.1f}s")


# -- criterion 4: metric fixed points and transcriptions -----------------------------


def test_criterion_4_metric_fixed_points():
    start = time.perf_counter()
    rng = np.random.default_rng(13)

    assert entropy(np.full((1, 16, 16), 0.25)) == 0.0
    half = np.zeros((1, 16, 16))
    half[:, :8] = 1.0
    assert abs(std_dev(half) - 127.5) < 1e-12
    v = rng.random((1, 32, 32)) * 0.5
    r = rng.random((1, 32, 32)) * 0.5
    assert abs(scd(v + r, v, r) - 2.0) < 1e-9
    img = rng.random((1, 64, 64))
    assert abs(vif_fusion(img, img, img) - 1.0) < 1e-6
    photo = rng.random((1, 32, 32))
    q_self = qabf(photo, photo, photo)
    exact = (0.9994 / (1 + math.exp(-15 * 0.5))) * (0.9879 / (1 + math.exp(-22 * 0.2)))
    assert abs(q_self - exact) < 1e-9
    assert abs(q_self - 0.9746) < 1e-3

    f64 = rng.random((1, 64, 64))
    v64 = rng.random((1, 64, 64))
    r64 = rng.random((1, 64, 64))
    assert abs(entropy(f64) - entropy_from_histogram(f64[0] * 255)) < 1e-6
    gray = f64[0] * 255
    assert abs(std_dev(f64) - math.sqrt(((gray - gray.mean()) ** 2).mean())) < 1e-6
    want_scd = pearson((f64[0] - v64[0]) * 255, r64[0] * 255) \
        + pearson((f64[0] - r64[0]) * 255, v64[0] * 255)
    assert abs(scd(f64, v64, r64) - want_scd) < 1e-6
    want_vif = 0.5 * (vif_pixel_transcription(v64[0] * 255, f64[0] * 255)
                      + vif_pixel_transcription(r64[0] * 255, f64[0] * 255))
    assert abs(vif_fusion(f64, v64, r64) - want_vif) < 1e-6
    want_qabf = qabf_transcription(f64[0] * 255, v64[0] * 255, r64[0] * 255)
    assert abs(qabf(f64, v64, r64) - want_qabf) < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.0f}s (budget 60s)"
    report(4, f"metric fixed points exact and all five metrics match independent "
              f"transcriptions to 1e-6 on random 64x64 triples; {elapsed:.0f}s")


# -- criterion 5: overfit sanity ------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_overfit_sanity(tmp_path):
    start = time.perf_counter()
    vis, ir, rect = overfit_pair((96, 96))
    pair = ImagePair("overfit", vis, ir)
    mask = MaskSemantics(rect.indicator(96, 96))
    text = embed_text(TextDescription.from_text("a car in the dark"), HashTextEncoder(64))
    config = TrainConfig(epochs=200, batch_size=8, crop=96, lr=1e-4, seed=0,
                         weights=LossWeights(), variant="full", model=ModelConfig())
    result = train(config, [pair], {"overfit": (mask, text)}, tmp_path / "run")
    totals = [rec["total"] for rec in result.history]
    assert len(totals) == 200
    assert all(math.isfinite(t) for t in totals), "non-finite loss during training"
    ratio = totals[0] / totals[-1]
    assert ratio >= 10.0, f"loss fell only {ratio:.2f}x over 200 steps"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.0f}s (budget 600s)"
    report(5, f"200-step single-pair training at the stock recipe reduced total loss "
              f"{ratio:.1f}x with finite losses throughout; {elapsed:.0f}s")


# -- criterion 6: ablation harness -----------------------------------------------------


ABLATE_CONFIG = """
patch = 4
dim = 32
heads = 4
text_dim = 16
depth = 2
crop = 48
epochs = 2
batch_size = 2
seed = 21
"""


@pytest.mark.slow
def test_criterion_6_ablation_harness(tmp_path):
    start = time.perf_counter()
    root = tmp_path / "data"
    generate_dataset(root, 2, (48, 48), seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ABLATE_CONFIG)
    out = tmp_path / "ablation"
    code = cli_main(["ablate", "--config", str(cfg), "--in", str(root), "--out", str(out)])
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "setting,EN,SD,SCD,VIF,QABF"
    labels = [line.split(",", 1)[0] for line in lines[1:]]
    assert labels == ["(a) w/o MGCA", "(b) w/o TIVR", "(c) w/o GAF", "(d) full"]
    for line in lines[1:]:
        assert all(np.isfinite(float(x)) for x in line.split(",")[1:])

    # no-gaf output is bit-invariant to perturbing the unused fusion params
    small = ModelConfig(patch=4, dim=32, heads=4, text_dim=16, depth=2, base_grid=(12, 12))
    rng = np.random.default_rng(0)
    vis, ir, rect = overfit_pair((48, 48))
    pair = ImagePair("p", vis, ir)
    sem = (MaskSemantics(rect.indicator(48, 48)),
           embed_text(TextDescription.from_text("a car ahead"), HashTextEncoder(16)))
    no_gaf = FusionModel(small, variant="no-gaf", seed=3)
    before = fuse(no_gaf, pair, sem)
    for p in no_gaf.tdaf.parameters():
        p.data = p.data + rng.standard_normal(p.shape)
    after = fuse(no_gaf, pair, sem)
    assert before.tobytes() == after.tobytes()

    # no-tivr differs from full only through the spatial weight
    full = FusionModel(small, variant="full", seed=4)
    variant = FusionModel(small, variant="no-tivr", seed=5)
    shared = {p.name: p for p in full.parameters()}
    for p in variant.parameters():
        if p.name in shared and shared[p.name].shape == p.shape:
            p.data = shared[p.name].data.copy()
    alpha = Tensor(rng.random((144, 1)))
    with T.no_grad():
        a = full.forward(Tensor(vis), Tensor(ir), sem[0], sem[1], alpha_override=alpha).data
        b = variant.forward(Tensor(vis), Tensor(ir), sem[0], sem[1], alpha_override=alpha).data
    np.testing.assert_array_equal(a, b)

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"criterion 6 took {elapsed:.0f}s (budget 1800s)"
    report(6, f"4-variant ablation table produced; no-gaf bit-invariant to fusion-param "
              f"perturbation; no-tivr identical to full under injected alpha; {elapsed:.0f}s")


# -- criterion 7: reproducibility -------------------------------------------------------


REPRO_CONFIG = """
patch = 2
dim = 8
heads = 2
text_dim = 8
depth = 1
crop = 16
epochs = 2
batch_size = 2
seed = 17
"""


def test_criterion_7_reproducibility(tmp_path):
    start = time.perf_counter()
    root = tmp_path / "data"
    generate_dataset(root, 2, (32, 32), seed=9)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(REPRO_CONFIG)

    for label in ("one", "two"):
        base = tmp_path / label
        assert cli_main(["train", "--config", str(cfg), "--in", str(root),
                         "--out", str(base / "train")]) == 0
        assert cli_main(["fuse", "--config", str(cfg), "--in", str(root),
                         "--out", str(base / "fused"),
                         "--checkpoint", str(base / "train" / "model.ckpt")]) == 0
        assert cli_main(["eval", "--fused", str(base / "fused"), "--in", str(root),
                         "--out", str(base / "report")]) == 0

    a, b = tmp_path / "one", tmp_path / "two"
    assert (a / "train" / "model.ckpt").read_bytes() == (b / "train" / "model.ckpt").read_bytes()
    assert (a / "train" / "loss_history.csv").read_bytes() == \
        (b / "train" / "loss_history.csv").read_bytes()
    for png in sorted((a / "fused").glob("*.png")):
        assert png.read_bytes() == (b / "fused" / png.name).read_bytes()
    assert (a / "report" / "report.csv").read_bytes() == \
        (b / "report" / "report.csv").read_bytes()
    report(7, f"identical (seed, config, dataset) gave byte-identical checkpoints, "
              f"fused images, and reports; {time.perf_counter() - start:.0f}s")


# -- criterion 8: published-number disclaimer --------------------------------------------


def test_criterion_8_schema_and_disclaimer(tmp_path):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert "not reproducible" in readme.lower(), \
        "README must state that the published benchmark numbers are out of scope"

    # the report tooling reproduces the benchmark table schema exactly
    data = tmp_path / "data"
    generate_dataset(data, 1, (48, 48), seed=2)
    fused = tmp_path / "fused"
    fused.mkdir()
    for src in (data / "vis").iterdir():
        (fused / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "report"
    assert cli_main(["eval", "--fused", str(fused), "--in", str(data),
                     "--out", str(out)]) == 0
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "pair,EN,SD,SCD,VIF,QABF"
    text = (out / "report.txt").read_text()
    assert "conventions" in text
    report(8, "published benchmark values documented as out of scope; report schema "
              "matches the five-metric table shape exactly")
