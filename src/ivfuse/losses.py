"""Training objective: structure, gradient, intensity, and color terms.

Formulations follow the dominant conventions for this task family: SSIM
against both sources, Sobel-magnitude matching against the elementwise-max
gradient target, luminance matching against the elementwise-max intensity
target, and chroma fidelity to the visible source (BT.601). All terms are
differentiable along the fused-image path; weights come from the run config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T
_SOBEL_EPS = 1e-12
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class LossWeights:
    w_ssim: float = 1.0
    w_grad: float = 10.0
    w_int: float = 10.0
    w_color: float = 5.0

    def __post_init__(self):
        vals = (self.w_ssim, self.w_grad, self.w_int, self.w_color)
        if any(v < 0 for v in vals):
            raise ValueError(f"loss weights must be non-negative, got {vals}")
        if not any(v > 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def luminance(img: Tensor) -> Tensor:
    """BT.601 luma of a (3,H,W) tensor, or the lone channel of (1,H,W)."""
    img = _as_tensor(img)
    if img.ndim != 3:
        raise ShapeError(f"luminance: expected (C,H,W), got {img.shape}")
    if img.shape[0] == 1:
        return img[0]
    if img.shape[0] != 3:
        raise ShapeError(f"luminance: expected 1 or 3 channels, got {img.shape[0]}")
    return img[0] * 0.299 + img[1] * 0.587 + img[2] * 0.114


def chroma(img: Tensor) -> tuple[Tensor, Tensor]:
    """BT.601 (Cb, Cr), offset so neutral gray sits at 0.5."""
    img = _as_tensor(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"chroma: expected a (3,H,W) image, got {img.shape}")
    y = luminance(img)
    cb = (img[2] - y) * (1.0 / 1.772) + 0.5
    cr = (img[0] - y) * (1.0 / 1.402) + 0.5
    return cb, cr


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def _window_conv(plane: Tensor, kernel1d: np.ndarray) -> Tensor:
    """Separable Gaussian-window valid convolution of a 2-D plane."""
    n = kernel1d.shape[0]
    x = T.reshape(plane, (1, 1) + plane.shape)
    x = T.conv2d(x, Tensor(kernel1d.reshape(1, 1, n, 1)))
    x = T.conv2d(x, Tensor(kernel1d.reshape(1, 1, 1, n)))
    return T.reshape(x, x.shape[2:])


def ssim_index(x: Tensor, y: Tensor) -> Tensor:
    """Mean SSIM over the valid region of two single-channel planes."""
    x, y = _as_tensor(x), _as_tensor(y)
    h, w = x.shape
    if SSIM_WINDOW > h or SSIM_WINDOW > w:
        raise ShapeError(f"ssim: window {SSIM_WINDOW} larger than image ({h}, {w})")
    win = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    mx = _window_conv(x, win)
    my = _window_conv(y, win)
    mxx = _window_conv(x * x, win)
    myy = _window_conv(y * y, win)
    mxy = _window_conv(x * y, win)
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    num = (mx * my * 2.0 + SSIM_C1) * (cxy * 2.0 + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return T.reduce_mean(num / den)


def ssim_loss(i_f: Tensor, i_vis, i_ir) -> Tensor:
    """0.5 (1 - SSIM(Y_f, Y_vis)) + 0.5 (1 - SSIM(Y_f, Y_ir))."""
    yf = luminance(i_f)
    half = Tensor(0.5)
    loss_vis = half * (Tensor(1.0) - ssim_index(yf, luminance(_as_tensor(i_vis))))
    loss_ir = half * (Tensor(1.0) - ssim_index(yf, luminance(_as_tensor(i_ir))))
    return loss_vis + loss_ir


def sobel_magnitude(plane: Tensor) -> Tensor:
    """sqrt(gx^2 + gy^2 + 1e-12) on the reflect-padded plane (same size out).

    The epsilon keeps the root differentiable where the gradient vanishes.
    """
    x = T.reshape(plane, (1, 1) + plane.shape)
    x = T.pad2d(x, 1)
    gx = T.conv2d(x, Tensor(SOBEL_X[None, None]))
    gy = T.conv2d(x, Tensor(SOBEL_Y[None, None]))
    mag = T.pow_(gx * gx + gy * gy + _SOBEL_EPS, 0.5)
    return T.reshape(mag, mag.shape[2:])


def gradient_loss(i_f: Tensor, i_vis, i_ir) -> Tensor:
    """Mean |grad(I_f) - max(grad(I_vis), grad(I_ir))| over the interior."""
    gf = sobel_magnitude(luminance(_as_tensor(i_f)))
    gv = sobel_magnitude(luminance(_as_tensor(i_vis)))
    gi = sobel_magnitude(luminance(_as_tensor(i_ir)))
    target = T.max_elementwise(gv, gi)
    diff = T.abs_(gf - target)
    return T.reduce_mean(diff[1:-1, 1:-1])


def intensity_loss(i_f: Tensor, i_vis, i_ir) -> Tensor:
    """Mean |Y(I_f) - max(Y(I_vis), I_ir)|."""
    yf = luminance(_as_tensor(i_f))
    target = T.max_elementwise(luminance(_as_tensor(i_vis)), _as_tensor(i_ir)[0])
    return T.reduce_mean(T.abs_(yf - target))


def color_loss(i_f: Tensor, i_vis) -> Tensor:
    """Mean |CbCr(I_f) - CbCr(I_vis)|, chroma only."""
    i_f = _as_tensor(i_f)
    if i_f.ndim != 3 or i_f.shape[0] != 3:
        raise ShapeError(f"color_loss: fused image must be (3,H,W), got {i_f.shape}")
    cb_f, cr_f = chroma(i_f)
    cb_v, cr_v = chroma(_as_tensor(i_vis))
    half = Tensor(0.5)
    return half * T.reduce_mean(T.abs_(cb_f - cb_v)) + half * T.reduce_mean(T.abs_(cr_f - cr_v))


def total_loss(i_f: Tensor, i_vis, i_ir,
               weights: LossWeights = LossWeights()) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum; returns (scalar tensor, per-term float values)."""
    terms: dict[str, float] = {}
    total = Tensor(0.0)
    for key, weight, fn in (
        ("ssim", weights.w_ssim, lambda: ssim_loss(i_f, i_vis, i_ir)),
        ("grad", weights.w_grad, lambda: gradient_loss(i_f, i_vis, i_ir)),
        ("int", weights.w_int, lambda: intensity_loss(i_f, i_vis, i_ir)),
        ("color", weights.w_color, lambda: color_loss(i_f, i_vis)),
    ):
        if weight == 0.0:
            terms[key] = 0.0
            continue
        term = fn()
        terms[key] = term.item()
        total = total + Tensor(weight) * term
    return total, terms
