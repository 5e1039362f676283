"""Guided densification of sparse depth via intensity-affinity propagation.

Every unknown pixel is constrained to the affinity-weighted average of its
8-connected neighbors, with measured pixels held fixed; the resulting linear
system is solved by Gauss-Seidel sweeps in red-black order. Known pixels
pass through unchanged, and since every sweep replaces an unknown by a
convex combination of its neighbors, the output obeys the maximum
principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 8-connected neighborhood, row-major order
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass
class DensifyConfig:
    sigma_min: float = 1e-4
    max_iterations: int = 5000
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class DensifyResult:
    depth: np.ndarray
    converged: bool
    iterations: int
    residual: float


def _shift(x: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """out[i, j] = x[i + dy, j + dx], zero outside the image."""
    out = np.zeros_like(x)
    h, w = x.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    yd = slice(max(-dy, 0), h + min(-dy, 0))
    xd = slice(max(-dx, 0), w + min(-dx, 0))
    out[yd, xd] = x[ys, xs]
    return out


def rgb_to_gray(rgb: np.ndarray) -> np.ndarray:
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim == 2:
        return rgb
    return (GRAY_WEIGHTS[0] * rgb[..., 0] + GRAY_WEIGHTS[1] * rgb[..., 1]
            + GRAY_WEIGHTS[2] * rgb[..., 2])


def build_weights(guide: np.ndarray, config: DensifyConfig) -> np.ndarray:
    """Per-pixel affinity to the 8 neighbors, shape (8, H, W).

    w_pq = exp(-(I(p) - I(q))^2 / (2 sigma_p^2)), sigma_p the standard
    deviation of the guide over p's 3x3 window (floored at sigma_min),
    normalized to sum to one over p's in-image neighbors.
    """
    g = np.asarray(guide, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"guide must be a 2-D grayscale image, got shape {g.shape}")
    h, w = g.shape
    ones = np.ones_like(g)
    count = ones.copy()
    total = g.copy()
    total_sq = g * g
    for dy, dx in OFFSETS:
        total += _shift(g, dy, dx)
        total_sq += _shift(g * g, dy, dx)
        count += _shift(ones, dy, dx)
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    sigma = np.maximum(np.sqrt(var), config.sigma_min)

    weights = np.zeros((len(OFFSETS), h, w), dtype=np.float64)
    for k, (dy, dx) in enumerate(OFFSETS):
        diff = g - _shift(g, dy, dx)
        wk = np.exp(-diff * diff / (2.0 * sigma * sigma))
        wk *= _shift(ones, dy, dx)  # zero weight toward off-image neighbors
        weights[k] = wk
    weights /= weights.sum(axis=0, keepdims=True)
    return weights


def _neighbor_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(Wx)(p) = sum_k w_k(p) * x(p + offset_k)."""
    out = np.zeros_like(x)
    for k, (dy, dx) in enumerate(OFFSETS):
        out += weights[k] * _shift(x, dy, dx)
    return out


def densify(sparse: np.ndarray, guide: np.ndarray,
            config: DensifyConfig | None = None) -> DensifyResult:
    """Fill every zero pixel of a sparse depth raster guided by an RGB image.

    Measured (nonzero) pixels are reproduced exactly; the rest solve the
    affinity-averaging system. RGB guides are converted to grayscale with
    (0.299, 0.587, 0.114) weights.
    """
    config = config or DensifyConfig()
    sparse = np.asarray(sparse, dtype=np.float64)
    gray = rgb_to_gray(guide)
    if gray.shape != sparse.shape:
        raise ValueError(
            f"guide shape {gray.shape} does not match raster shape {sparse.shape}")
    known = sparse > 0
    if not known.any():
        raise ValueError("densify requires at least one measured pixel")
    if known.all():
        return DensifyResult(sparse.copy(), True, 0, 0.0)
    weights = build_weights(gray, config)
    unknown = ~known
    f = np.where(known, sparse, sparse[known].mean())
    b = _neighbor_sum(weights, np.where(known, sparse, 0.0))
    bnorm = max(np.linalg.norm(b[unknown]), 1e-300)
    yy, xx = np.meshgrid(np.arange(f.shape[0]), np.arange(f.shape[1]), indexing="ij")
    red = unknown & ((yy + xx) % 2 == 0)
    black = unknown & ((yy + xx) % 2 == 1)
    for it in range(1, config.max_iterations + 1):
        for mask in (red, black):
            s = _neighbor_sum(weights, f)
            f[mask] = s[mask]
        ru = (f - _neighbor_sum(weights, f))[unknown]
        # an elementwise sum, not np.linalg.norm: that is a BLAS call, and
        # each one wakes a multi-threaded BLAS whose idle threads then spin
        residual = np.sqrt((ru * ru).sum()) / bnorm
        if residual <= config.tolerance:
            return DensifyResult(f, True, it, residual)
    return DensifyResult(f, False, config.max_iterations, residual)
