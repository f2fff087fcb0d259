"""Fusion-quality metrics and dataset-level reporting.

All metrics run on 8-bit-scale grayscale (BT.601 luminance times 255), which
matches the magnitude conventions of the published comparison tables. Every
constant in play is echoed in the report's conventions block so numbers are
auditable; cross-tool comparability beyond that is not claimed.

Metrics
-------
entropy       Shannon entropy of the 256-bin histogram, bits
std_dev       population standard deviation
scd           sum of correlations of differences (fused minus one source,
              correlated against the other); constant arguments define r=0
vif_fusion    pixel-domain visual information fidelity, 4 scales, Gaussian
              sigma=2, GSM noise variance 2; mean over the two sources
qabf          gradient-based edge preservation with the published sigmoid
              constants; strength-weighted average over both sources
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import correlate, gaussian_filter

from .dataset import DatasetError, stem_index
from .imgio import load_image


def to_gray255(img: np.ndarray) -> np.ndarray:
    """(3|1,H,W) or (H,W) in [0,1] -> BT.601 luminance on [0,255]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        return img * 255.0
    if img.ndim == 3 and img.shape[0] == 1:
        return img[0] * 255.0
    if img.ndim == 3 and img.shape[0] == 3:
        return (0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]) * 255.0
    raise ValueError(f"expected (1|3,H,W) or (H,W) image, got {img.shape}")


def entropy(img: np.ndarray) -> float:
    """Histogram entropy in bits; a constant image scores 0."""
    gray = to_gray255(img)
    levels = np.clip(np.floor(gray), 0, 255).astype(np.int64)
    counts = np.bincount(levels.ravel(), minlength=256)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def std_dev(img: np.ndarray) -> float:
    """Population standard deviation on the [0,255] scale."""
    return float(to_gray255(img).std())


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    na = math.sqrt(float((da * da).sum()))
    nb = math.sqrt(float((db * db).sum()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((da * db).sum() / (na * nb))


def scd(fused: np.ndarray, i_vis: np.ndarray, i_ir: np.ndarray) -> float:
    """r(F - vis, ir) + r(F - ir, vis) on grayscale."""
    f = to_gray255(fused)
    v = to_gray255(i_vis)
    r = to_gray255(i_ir)
    if f.shape != v.shape or f.shape != r.shape:
        raise ValueError(f"scd: shapes differ {f.shape} / {v.shape} / {r.shape}")
    return _pearson(f - v, r) + _pearson(f - r, v)


VIF_SCALES = 4
VIF_SIGMA = 2.0
VIF_NOISE_VAR = 2.0
VIF_MIN_SIDE = 32  # four dyadic scales
_VIF_EPS = 1e-10


def _vif_smooth(im: np.ndarray) -> np.ndarray:
    return gaussian_filter(im, VIF_SIGMA, mode="mirror")


def _vif_pyramid(img: np.ndarray) -> list:
    """Per scale (x, smooth(x), smooth(x*x)); each scale's x decimates the
    smooth of the scale above, so every level is filtered once."""
    levels = []
    x = img
    for _ in range(VIF_SCALES):
        mu = _vif_smooth(x)
        levels.append((x, mu, _vif_smooth(x * x)))
        x = mu[::2, ::2]
    return levels


def _vif_single(ref: list, dist: list) -> float:
    """Pixel-domain VIF of dist against ref, given their ``_vif_pyramid``s."""
    num = 0.0
    den = 0.0
    for (r, mu1, rr), (d, mu2, dd) in zip(ref, dist):
        s1 = np.maximum(rr - mu1 * mu1, 0.0)
        s2 = np.maximum(dd - mu2 * mu2, 0.0)
        s12 = _vif_smooth(r * d) - mu1 * mu2
        g = s12 / (s1 + _VIF_EPS)
        sv = s2 - g * s12
        g = np.where(s1 < _VIF_EPS, 0.0, g)
        sv = np.where(s1 < _VIF_EPS, s2, sv)
        s1 = np.where(s1 < _VIF_EPS, 0.0, s1)
        sv = np.where(s2 < _VIF_EPS, 0.0, np.where(g < 0.0, s2, sv))
        g = np.where(s2 < _VIF_EPS, 0.0, np.maximum(g, 0.0))
        sv = np.maximum(sv, _VIF_EPS)
        num += float(np.log10(1.0 + g * g * s1 / (sv + VIF_NOISE_VAR)).sum())
        den += float(np.log10(1.0 + s1 / VIF_NOISE_VAR).sum())
    return num / den if den != 0.0 else 1.0


def vif_fusion(fused: np.ndarray, i_vis: np.ndarray, i_ir: np.ndarray,
               per_source: bool = False):
    """Mean of VIF(fused|vis) and VIF(fused|ir); needs min dim >= VIF_MIN_SIDE."""
    f = to_gray255(fused)
    if min(f.shape) < VIF_MIN_SIDE:
        raise ValueError(f"vif: min dimension {min(f.shape)} < {VIF_MIN_SIDE} (four scales)")
    fused_levels = _vif_pyramid(f)
    v_score = _vif_single(_vif_pyramid(to_gray255(i_vis)), fused_levels)
    i_score = _vif_single(_vif_pyramid(to_gray255(i_ir)), fused_levels)
    mean = 0.5 * (v_score + i_score)
    if per_source:
        return mean, v_score, i_score
    return mean


QABF_GAMMA_G, QABF_KAPPA_G, QABF_SIGMA_G = 0.9994, -15.0, 0.5
QABF_GAMMA_A, QABF_KAPPA_A, QABF_SIGMA_A = 0.9879, -22.0, 0.8

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T
# |sx| at or below this counts as a vertical edge; without the tolerance the
# angle flips by pi on rounding noise around analytically-zero responses
QABF_ANGLE_TOL = 1e-8


def _strength_angle(gray: np.ndarray):
    sx = correlate(gray, _SOBEL_X, mode="mirror")
    sy = correlate(gray, _SOBEL_Y, mode="mirror")
    g = np.sqrt(sx * sx + sy * sy)
    vertical = np.abs(sx) <= QABF_ANGLE_TOL
    alpha = np.where(vertical,
                     np.sign(sy) * (np.pi / 2.0),
                     np.arctan(sy / np.where(vertical, 1.0, sx)))
    return g, alpha


def _edge_preservation(g_src, a_src, g_f, a_f):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g_src > g_f,
                         np.divide(g_f, g_src, out=np.zeros_like(g_f), where=g_src != 0.0),
                         np.divide(g_src, g_f, out=np.zeros_like(g_f), where=g_f != 0.0))
    ratio = np.where(g_src == g_f, 1.0, ratio)
    a_pres = 1.0 - np.abs(a_src - a_f) / (np.pi / 2.0)
    q_g = QABF_GAMMA_G / (1.0 + np.exp(QABF_KAPPA_G * (ratio - QABF_SIGMA_G)))
    q_a = QABF_GAMMA_A / (1.0 + np.exp(QABF_KAPPA_A * (a_pres - QABF_SIGMA_A)))
    return q_g * q_a


def qabf(fused: np.ndarray, i_vis: np.ndarray, i_ir: np.ndarray) -> float:
    """Edge-preservation score; flat sources (zero total weight) define 0."""
    f = to_gray255(fused)
    a = to_gray255(i_vis)
    b = to_gray255(i_ir)
    if f.shape != a.shape or f.shape != b.shape:
        raise ValueError(f"qabf: shapes differ {f.shape} / {a.shape} / {b.shape}")
    g_f, al_f = _strength_angle(f)
    g_a, al_a = _strength_angle(a)
    g_b, al_b = _strength_angle(b)
    q_af = _edge_preservation(g_a, al_a, g_f, al_f)
    q_bf = _edge_preservation(g_b, al_b, g_f, al_f)
    weight_sum = float((g_a + g_b).sum())
    if weight_sum == 0.0:
        return 0.0
    return float((q_af * g_a + q_bf * g_b).sum() / weight_sum)


# -- reporting -----------------------------------------------------------------

METRIC_COLUMNS = ("EN", "SD", "SCD", "VIF", "QABF")

CONVENTIONS = {
    "grayscale": "BT.601 luminance on [0,255]",
    "entropy_bins": "256 equal bins on [0,255], floor quantization",
    "std": "population standard deviation",
    "scd_degenerate": "Pearson r of a constant argument defined as 0",
    "vif_variant": "pixel domain, 4 scales, Gaussian sigma=2 (mirror boundary), "
                   "decimate by 2 between scales, GSM noise variance 2, eps 1e-10",
    "qabf_constants": "(Gamma_g,kappa_g,sigma_g)=(0.9994,-15,0.5); "
                      "(Gamma_a,kappa_a,sigma_a)=(0.9879,-22,0.8); "
                      "Sobel 3x3, mirror boundary, weights = edge strengths, "
                      "|sx|<=1e-8 treated as a vertical edge",
}


@dataclass
class MetricRow:
    pair_id: str
    en: float
    sd: float
    scd: float
    vif: float
    qabf: float
    vif_vis: float
    vif_ir: float

    def values(self):
        return (self.en, self.sd, self.scd, self.vif, self.qabf)


@dataclass
class MetricReport:
    rows: list[MetricRow] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def means(self) -> dict[str, float]:
        """Per-metric means over the rows; a report without rows raises
        ``DatasetError``."""
        if not self.rows:
            raise DatasetError("metric report has no rows to average")
        stacked = np.array([r.values() for r in self.rows])
        return dict(zip(METRIC_COLUMNS, stacked.mean(axis=0)))

    def to_csv(self, path) -> None:
        means = self.means
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(("pair",) + METRIC_COLUMNS)
            for row in self.rows:
                writer.writerow((row.pair_id,) + tuple(f"{v:.6f}" for v in row.values()))
            writer.writerow(("mean",) + tuple(f"{means[c]:.6f}" for c in METRIC_COLUMNS))

    def per_source_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(("pair", "VIF_vis", "VIF_ir"))
            for row in self.rows:
                writer.writerow((row.pair_id, f"{row.vif_vis:.6f}", f"{row.vif_ir:.6f}"))

    def to_text(self) -> str:
        lines = ["# metric conventions"]
        for key, value in CONVENTIONS.items():
            lines.append(f"#   {key}: {value}")
        if self.missing:
            lines.append(f"#   unmatched pair ids skipped: {', '.join(self.missing)}")
        header = f"{'pair':<16}" + "".join(f"{c:>10}" for c in METRIC_COLUMNS)
        lines.append(header)
        for row in self.rows:
            lines.append(f"{row.pair_id:<16}" + "".join(f"{v:>10.3f}" for v in row.values()))
        means = self.means
        lines.append(f"{'mean':<16}" + "".join(f"{means[c]:>10.3f}" for c in METRIC_COLUMNS))
        return "\n".join(lines) + "\n"


def evaluate_pair(fused: np.ndarray, i_vis: np.ndarray, i_ir: np.ndarray,
                  pair_id: str = "") -> MetricRow:
    vif_mean, vif_v, vif_i = vif_fusion(fused, i_vis, i_ir, per_source=True)
    return MetricRow(pair_id, entropy(fused), std_dev(fused),
                     scd(fused, i_vis, i_ir), vif_mean,
                     qabf(fused, i_vis, i_ir), vif_v, vif_i)


def evaluate_dataset(fused_dir, vis_dir, ir_dir) -> MetricReport:
    """Per-image metrics plus means over matching filename stems. A fused
    image and its two sources of more than one size, or of a side below
    ``VIF_MIN_SIDE``, raise ``DatasetError`` naming the files."""
    fused_map, vis_map, ir_map = stem_index(fused_dir), stem_index(vis_dir), stem_index(ir_dir)
    shared = sorted(set(fused_map) & set(vis_map) & set(ir_map))
    if not shared:
        raise DatasetError(f"no fused image in {fused_dir} matches a pair in {vis_dir}, {ir_dir}")
    missing = sorted((set(fused_map) | set(vis_map) | set(ir_map)) - set(shared))
    report = MetricReport(missing=missing)
    for stem in shared:
        paths = (fused_map[stem], vis_map[stem], ir_map[stem])
        fused, i_vis, i_ir = images = [load_image(path) for path in paths]
        sizes = [img.shape[1:] for img in images]
        if len(set(sizes)) > 1 or min(sizes[0]) < VIF_MIN_SIDE:
            named = ", ".join(f"{path} {h}x{w}" for path, (h, w) in zip(paths, sizes))
            raise DatasetError(f"need one image size with sides >= {VIF_MIN_SIDE}: {named}")
        report.rows.append(evaluate_pair(fused, i_vis, i_ir, stem))
    return report
