"""Independent reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions with
plain loops or basic numpy, deliberately not sharing code with the library
paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.abs(np.asarray(analytic) - np.asarray(numeric))
    den = np.abs(np.asarray(numeric)) + 1e-8
    return float((num / den).max()) if num.size else 0.0


def linear(x, w, b):
    return x @ w + b


def attention_single_head(q, k, v):
    """softmax(q kT / sqrt(d)) v for one head, explicit rows."""
    d = q.shape[1]
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] / math.sqrt(d) for j in range(k.shape[0])])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[i] = sum(w[j] * v[j] for j in range(v.shape[0]))
    return out


def cross_attention_brute(queries, keys_values, params) -> np.ndarray:
    """Multi-head attention evaluated head by head from raw projections.

    ``params`` carries (wq, bq, wk, bk, wv, bv, wo, bo, heads) as ndarrays.
    """
    wq, bq, wk, bk, wv, bv, wo, bo, heads = params
    q = linear(queries, wq, bq)
    k = linear(keys_values, wk, bk)
    v = linear(keys_values, wv, bv)
    d = q.shape[1]
    dh = d // heads
    pieces = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        pieces.append(attention_single_head(q[:, sl], k[:, sl], v[:, sl]))
    merged = np.concatenate(pieces, axis=1)
    return linear(merged, wo, bo)


def conv2d_direct(x, w, b=None, stride=1, padding=0):
    """Direct quadruple-loop cross-correlation, NCHW / OIHW."""
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * sh:yi * sh + kh, xi * sw:xi * sw + kw]
                    out[ni, oi, yi, xi] = np.sum(patch * w[oi])
            if b is not None:
                out[ni, oi] += b[oi]
    return out


def softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gelu_formula(x):
    """x * Phi(x) as the plain expression, with its temporaries."""
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    return x * cdf


def gelu_formula_vjp(g, x):
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    pdf = 0.3989422804014327 * np.exp(-0.5 * x * x)
    return (g * (cdf + x * pdf),)


def layer_norm_formula(x, scale, bias, eps=1e-5):
    """Normalize the last axis with numpy's mean and var, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) * (1.0 / np.sqrt(var + eps))
    return xhat * scale + bias


def layer_norm_formula_vjp(g, x, scale, bias, eps=1e-5):
    """Gradients for (x, scale, bias) of ``layer_norm_formula``."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(g.ndim - 1))
    gh = g * scale
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def pearson(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    da, db = a - a.mean(), b - b.mean()
    na, nb = np.sqrt((da * da).sum()), np.sqrt((db * db).sum())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((da * db).sum() / (na * nb))


def gaussian_kernel_1d(sigma: float, radius: int) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_window_2d(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    win = np.outer(g, g)
    return win / win.sum()


def valid_correlate(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    h, w = img.shape
    out = np.zeros((h - kh + 1, w - kw + 1))
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            out[y, x] = np.sum(img[y:y + kh, x:x + kw] * kernel)
    return out


def reflect_pad(img: np.ndarray, ph: int, pw: int) -> np.ndarray:
    return np.pad(img, [(ph, ph), (pw, pw)], mode="reflect")


def reflect_correlate(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    kh, kw = kernel.shape
    return valid_correlate(reflect_pad(img, kh // 2, kw // 2), kernel)


def ssim_direct(x: np.ndarray, y: np.ndarray, window: int = 11, sigma: float = 1.5,
                c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """Mean SSIM with a Gaussian window, valid region only, [0,1] range."""
    win = gaussian_window_2d(window, sigma)
    mx = valid_correlate(x, win)
    my = valid_correlate(y, win)
    mxx = valid_correlate(x * x, win)
    myy = valid_correlate(y * y, win)
    mxy = valid_correlate(x * y, win)
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    num = (2 * mx * my + c1) * (2 * cxy + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def sobel_magnitude_reflect(img: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Magnitude with the library's differentiability epsilon inside the root."""
    gx = reflect_correlate(img, SOBEL_X)
    gy = reflect_correlate(img, SOBEL_Y)
    return np.sqrt(gx * gx + gy * gy + eps)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma from a 3xHxW array in [0,1]."""
    return 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2]


def chroma(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = luminance(rgb)
    cb = 0.5 + (rgb[2] - y) / 1.772
    cr = 0.5 + (rgb[0] - y) / 1.402
    return cb, cr


def entropy_from_histogram(gray255: np.ndarray) -> float:
    levels = np.clip(np.floor(gray255), 0, 255).astype(int)
    counts = np.bincount(levels.ravel(), minlength=256)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def vif_pixel_transcription(ref: np.ndarray, dist: np.ndarray, scales: int = 4,
                            sigma: float = 2.0, sigma_n_sq: float = 2.0,
                            eps: float = 1e-10) -> float:
    """Literal pixel-domain VIF with Gaussian windows and 2x decimation."""
    radius = int(round(4.0 * sigma))
    k1 = gaussian_kernel_1d(sigma, radius)

    def smooth(im):
        tmp = np.apply_along_axis(
            lambda row: np.convolve(np.pad(row, radius, mode="reflect"), k1, mode="valid"),
            0, im)
        return np.apply_along_axis(
            lambda row: np.convolve(np.pad(row, radius, mode="reflect"), k1, mode="valid"),
            1, tmp)

    num = 0.0
    den = 0.0
    r, d = ref.astype(np.float64), dist.astype(np.float64)
    for scale in range(scales):
        if scale > 0:
            r = smooth(r)[::2, ::2]
            d = smooth(d)[::2, ::2]
        mu1, mu2 = smooth(r), smooth(d)
        s1 = smooth(r * r) - mu1 * mu1
        s2 = smooth(d * d) - mu2 * mu2
        s12 = smooth(r * d) - mu1 * mu2
        s1 = np.maximum(s1, 0.0)
        s2 = np.maximum(s2, 0.0)
        g = s12 / (s1 + eps)
        sv = s2 - g * s12
        g = np.where(s1 < eps, 0.0, g)
        sv = np.where(s1 < eps, s2, sv)
        s1 = np.where(s1 < eps, 0.0, s1)
        sv = np.where(s2 < eps, 0.0, np.where(g < 0.0, s2, sv))
        g = np.where(s2 < eps, 0.0, np.maximum(g, 0.0))
        sv = np.maximum(sv, eps)
        num += np.sum(np.log10(1.0 + g * g * s1 / (sv + sigma_n_sq)))
        den += np.sum(np.log10(1.0 + s1 / sigma_n_sq))
    return float(num / den) if den != 0.0 else 1.0


def qabf_transcription(fused: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Edge-preservation score transcribed from the published sigmoid form."""
    gamma_g, kappa_g, sigma_g = 0.9994, -15.0, 0.5
    gamma_a, kappa_a, sigma_a = 0.9879, -22.0, 0.8

    def strength_angle(img):
        sx = reflect_correlate(img, SOBEL_X)
        sy = reflect_correlate(img, SOBEL_Y)
        g = np.sqrt(sx * sx + sy * sy)
        alpha = np.empty_like(g)
        for idx in np.ndindex(g.shape):
            # |sx| <= 1e-8 is the documented vertical-edge convention
            if abs(sx[idx]) <= 1e-8:
                alpha[idx] = math.copysign(np.pi / 2.0, sy[idx]) if sy[idx] != 0.0 else 0.0
            else:
                alpha[idx] = math.atan(sy[idx] / sx[idx])
        return g, alpha

    def preservation(gs, als, gf, alf):
        q = np.zeros_like(gs)
        for idx in np.ndindex(gs.shape):
            g_s, g_f = gs[idx], gf[idx]
            if g_s > g_f:
                gq = g_f / g_s
            elif g_f > g_s:
                gq = g_s / g_f
            else:
                gq = 1.0
            aq = 1.0 - abs(als[idx] - alf[idx]) / (np.pi / 2.0)
            qg = gamma_g / (1.0 + math.exp(kappa_g * (gq - sigma_g)))
            qa = gamma_a / (1.0 + math.exp(kappa_a * (aq - sigma_a)))
            q[idx] = qg * qa
        return q

    gf, alf = strength_angle(fused)
    ga, ala = strength_angle(a)
    gb, alb = strength_angle(b)
    qaf = preservation(ga, ala, gf, alf)
    qbf = preservation(gb, alb, gf, alf)
    wsum = ga + gb
    if wsum.sum() == 0.0:
        return 0.0
    return float((qaf * ga + qbf * gb).sum() / wsum.sum())
