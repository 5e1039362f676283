"""Guided densification of sparse depth via intensity-affinity propagation.

Every unknown pixel is constrained to the affinity-weighted average of its
8-connected neighbors, with measured pixels held fixed (Levin, Lischinski
& Weiss, "Colorization using Optimization", SIGGRAPH 2004); the resulting
linear system is solved by Gauss-Seidel sweeps in red-black order. Known
pixels pass through unchanged, and since every sweep replaces an unknown
by a convex combination of its neighbors, the output obeys the maximum
principle.

Layout. The iterate lives in one flat, row-major buffer: the image inside
a zero border one pixel wide, (H + 2)(W + 2) values. Neighbor (dy, dx) of
flat position q is q + dy (W + 2) + dx, so each of the 8 products in the
neighbor sum W·f is one contiguous 1-D slice times a weight row stored
once in the same layout (zero on the border columns), computed into
buffers allocated once (``_Affinity``). A red-black iteration takes two
products, not three: f does not change between the product that gives
the residual after the black half-sweep and the next red half-sweep, so
that one product serves both.

Same bits. Each sum adds its 8 products in OFFSETS order starting from
w_0 f_0, exactly as a sum of zero-filled shifted copies of the image
does (the weights are nonnegative and f is positive, so starting from
w_0 f_0 rather than 0 + w_0 f_0 changes no sign of zero); the residual
sums the unknowns' squared differences as one array in row-major order.
Every value is therefore rounded as in the straightforward 2-D
formulation, which ``tests/test_densify.py`` keeps as its reference.
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


def _bordered(x: np.ndarray) -> np.ndarray:
    """x inside a zero border one pixel wide, shape (H + 2, W + 2)."""
    out = np.zeros((x.shape[0] + 2, x.shape[1] + 2), dtype=x.dtype)
    out[1:-1, 1:-1] = x
    return out


def _neighbor(bordered: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Of a zero-bordered image, the (H, W) view out[i, j] = x[i + dy, j + dx]."""
    h, w = bordered.shape[0] - 2, bordered.shape[1] - 2
    return bordered[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]


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
    g_border = _bordered(g)
    g2_border = g_border * g_border
    inside = _bordered(np.ones_like(g))  # 1 on the image, 0 off it
    count = np.ones_like(g)
    total = g.copy()
    total_sq = g * g
    for dy, dx in OFFSETS:
        total += _neighbor(g_border, dy, dx)
        total_sq += _neighbor(g2_border, dy, dx)
        count += _neighbor(inside, dy, dx)
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    sigma = np.maximum(np.sqrt(var), config.sigma_min)

    weights = np.zeros((len(OFFSETS), h, w), dtype=np.float64)
    for k, (dy, dx) in enumerate(OFFSETS):
        diff = g - _neighbor(g_border, dy, dx)
        wk = np.exp(-diff * diff / (2.0 * sigma * sigma))
        wk *= _neighbor(inside, dy, dx)  # zero weight toward off-image neighbors
        weights[k] = wk
    weights /= weights.sum(axis=0, keepdims=True)
    return weights


class _Affinity:
    """f -> W·f, (W·f)(p) = sum_k w_k(p) f(p + offset_k), on the flat layout.

    ``f`` is the flat bordered image. A product has H (W + 2) - 2 values:
    index i = r (W + 2) + c is pixel (r, c), which is flat position
    i + W + 3, and the indices with c >= W fall on the border columns
    between rows, where the weights are zero. The factor of neighbor
    (dy, dx) is then the slice of f that starts dy (W + 2) + dx further on.
    """

    def __init__(self, weights: np.ndarray):
        k, h, w = weights.shape
        stride = w + 2
        self.start = stride + 1
        self.size = h * stride - 2
        self.weights = self.spread(weights)
        self.shifts = [self.start + dy * stride + dx for dy, dx in OFFSETS]
        self._term = np.empty(self.size)

    def spread(self, image: np.ndarray) -> np.ndarray:
        """An (..., H, W) array in product layout, zero on the border columns."""
        *lead, h, w = image.shape
        rows = np.zeros((*lead, h, w + 2), dtype=image.dtype)
        rows[..., :w] = image
        return rows.reshape(*lead, -1)[..., :self.size]

    def apply(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = W·f, summed in OFFSETS order from w_0 f_0."""
        n = self.size
        np.multiply(self.weights[0], f[self.shifts[0]:self.shifts[0] + n], out=out)
        for wk, q in zip(self.weights[1:], self.shifts[1:]):
            np.multiply(wk, f[q:q + n], out=self._term)
            out += self._term
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
    op = _Affinity(build_weights(gray, config))
    unknown = ~known
    h, w = sparse.shape
    f_border = _bordered(np.where(known, sparse, sparse[known].mean()))
    f = f_border.reshape(-1)
    f_inner = f[op.start:op.start + op.size]  # aligned with a product
    s = np.empty(op.size)
    # the unknowns in row-major order, in product layout
    at_unknown = np.flatnonzero(op.spread(unknown))
    b = op.apply(_bordered(np.where(known, sparse, 0.0)).reshape(-1), s)
    bnorm = max(np.linalg.norm(b[at_unknown]), 1e-300)  # b is s, reused below
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    red = op.spread(unknown & ((yy + xx) % 2 == 0))
    black = op.spread(unknown & ((yy + xx) % 2 == 1))
    diff = np.empty(op.size)
    ru = np.empty(at_unknown.size)
    # f is unchanged between the product after a black half-sweep and the
    # next red half-sweep, so one product serves the residual and that sweep
    op.apply(f, s)
    for it in range(1, config.max_iterations + 1):
        np.copyto(f_inner, s, where=red)
        op.apply(f, s)
        np.copyto(f_inner, s, where=black)
        op.apply(f, s)
        np.subtract(f_inner, s, out=diff)
        diff *= diff
        np.take(diff, at_unknown, out=ru)
        # an elementwise sum, not np.linalg.norm: that is a BLAS call, and
        # each one wakes a multi-threaded BLAS whose idle threads then spin
        residual = np.sqrt(ru.sum()) / bnorm
        if residual <= config.tolerance:
            return DensifyResult(f_border[1:-1, 1:-1].copy(), True, it, residual)
    return DensifyResult(f_border[1:-1, 1:-1].copy(), False,
                         config.max_iterations, residual)
