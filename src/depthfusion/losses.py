"""Training losses: SSIM, image-gradient (edge) and pixel terms, plus the
reciprocal-depth target transform.

The total loss is an (optionally weighted) sum of the three terms, computed
on normalized reciprocal-depth maps in [0, 1]; evaluation in meters lives in
``metrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .tensor import Tensor


SSIM_C1, SSIM_C2 = 0.01 ** 2, 0.03 ** 2  # stabilizers, for values in [0, 1]


class PixelLossKind(Enum):
    L1 = "l1"
    L2 = "l2"
    BERHU = "berhu"


@dataclass
class LossWeights:
    w_ssim: float = 1.0
    w_edge: float = 1.0
    w_pixel: float = 1.0

    def __post_init__(self):
        for name in ("w_ssim", "w_edge", "w_pixel"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if self.w_ssim == 0 and self.w_edge == 0 and self.w_pixel == 0:
            raise ValueError("at least one loss weight must be positive")


@dataclass
class ReciprocalCodec:
    """Maps metric depth to a bounded reciprocal training target.

    encode: t = d_min / d  (d clamped to [d_min, d_max] first), so t = 1 at
    d_min and t = d_min/d_max at d_max. decode inverts: d = d_min / t.
    """

    d_min: float = 0.5
    d_max: float = 80.0

    def __post_init__(self):
        if self.d_min <= 0 or self.d_max <= self.d_min:
            raise ValueError(f"bad codec parameters d_min={self.d_min}, "
                             f"d_max={self.d_max}")

    def encode(self, depth: np.ndarray) -> np.ndarray:
        d = np.clip(depth, self.d_min, self.d_max)
        return self.d_min / d

    def decode(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t)
        d = np.where(t <= 0, self.d_max, self.d_min / np.maximum(t, 1e-12))
        return np.clip(d, self.d_min, self.d_max)


def ssim(a: Tensor, b: Tensor, window: int = 7) -> Tensor:
    """Mean SSIM index over all valid windows, local stats by uniform window."""
    if a.shape != b.shape:
        raise T.ShapeError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    if window % 2 == 0 or window < 1:
        raise ValueError(f"ssim: window must be odd and positive, got {window}")
    if a.shape[2] < window or a.shape[3] < window:
        raise T.ShapeError(
            f"ssim: window {window} larger than image {a.shape[2:]}")
    if a.shape[1] != 1:
        raise T.ShapeError(f"ssim expects single-channel maps, got {a.shape}")
    mu_a = T.window_mean(a, window)
    mu_b = T.window_mean(b, window)
    var_a = T.window_mean(a * a, window) - mu_a * mu_a
    var_b = T.window_mean(b * b, window) - mu_b * mu_b
    cov = T.window_mean(a * b, window) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return T.mean_all(num / den)


def loss_ssim(pred: Tensor, gt: Tensor, window: int = 7) -> Tensor:
    """(1 - SSIM)/2, clamped to [0, 1]."""
    return T.clamp((1.0 - ssim(pred, gt, window)) * 0.5, 0.0, 1.0)


def loss_edge(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean absolute difference of forward-difference image gradients.

    gx drops the last column, gy the last row; the loss is
    mean|gx(pred)-gx(gt)| + mean|gy(pred)-gy(gt)|.
    """
    if pred.shape != gt.shape:
        raise T.ShapeError(f"loss_edge: shape mismatch {pred.shape} vs {gt.shape}")
    diff = pred - gt
    gx = T.tslice(diff, np.s_[:, :, :, 1:]) - T.tslice(diff, np.s_[:, :, :, :-1])
    gy = T.tslice(diff, np.s_[:, :, 1:, :]) - T.tslice(diff, np.s_[:, :, :-1, :])
    return T.mean_all(T.abs_(gx)) + T.mean_all(T.abs_(gy))


def berhu(residual: Tensor, c: float) -> Tensor:
    """Reverse Huber: |x| for |x| <= c, (x^2 + c^2)/(2c) beyond.

    Continuous with matching one-sided slopes at |x| = c.
    """
    if c <= 0:
        raise ValueError(f"berhu: threshold c must be positive, got {c}")
    absr = T.abs_(residual)
    linear = np.abs(residual.data) <= c
    m = Tensor(linear.astype(residual.dtype))
    quad = (residual * residual + c * c) * (1.0 / (2.0 * c))
    return absr * m + quad * (1.0 - m)


def berhu_threshold(residual: np.ndarray) -> float:
    """The adaptive Berhu threshold c = 0.2 max|residual|, floored at 1e-6.

    It is a constant of the step: no gradient flows through it.
    """
    return max(0.2 * float(np.abs(residual).max()), 1e-6)


def loss_pixel(pred: Tensor, gt: Tensor,
               kind: PixelLossKind = PixelLossKind.L1,
               berhu_c: float | None = None) -> Tensor:
    """Mean L1, L2 or Berhu penalty of pred - gt. The Berhu threshold
    defaults to ``berhu_threshold`` of this residual; a caller that splits
    a batch passes the whole batch's."""
    if pred.shape != gt.shape:
        raise T.ShapeError(f"loss_pixel: shape mismatch {pred.shape} vs {gt.shape}")
    diff = pred - gt
    if kind is PixelLossKind.L1:
        return T.mean_all(T.abs_(diff))
    if kind is PixelLossKind.L2:
        return T.mean_all(diff * diff)
    c = berhu_threshold(diff.data) if berhu_c is None else berhu_c
    return T.mean_all(berhu(diff, c))


def loss_total(pred: Tensor, gt: Tensor,
               weights: LossWeights | None = None,
               kind: PixelLossKind = PixelLossKind.L1,
               ssim_window: int = 7,
               berhu_c: float | None = None) -> Tensor:
    """Weighted sum of the SSIM, edge and pixel terms on reciprocal-depth maps."""
    w = weights or LossWeights()
    terms = []
    if w.w_ssim > 0:
        terms.append(loss_ssim(pred, gt, ssim_window) * w.w_ssim)
    if w.w_edge > 0:
        terms.append(loss_edge(pred, gt) * w.w_edge)
    if w.w_pixel > 0:
        terms.append(loss_pixel(pred, gt, kind, berhu_c) * w.w_pixel)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total
