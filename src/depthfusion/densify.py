"""Guided densification of sparse depth via intensity-affinity propagation.

Every unknown pixel is constrained to the affinity-weighted average of its
8-connected neighbors, with measured pixels held fixed (Levin, Lischinski
& Weiss, "Colorization using Optimization", SIGGRAPH 2004); the resulting
linear system is solved by Gauss-Seidel sweeps in red-black order. Known
pixels pass through unchanged, and since every sweep replaces an unknown
by a convex combination of its neighbors, the output obeys the maximum
principle.

Layout. The image sits inside a zero border on a flat, row-major grid
whose row stride S is odd: W + 2 when W is odd, W + 3 (one more zero
column) when W is even. Flat position q = (y + 1) S + x + 1 then has the
parity of the pixel's color (y + x) mod 2, and the iterate is kept as two
contiguous arrays, one per color: flat positions 2 j (red) and 2 j + 1
(black). Neighbor (dy, dx) of a color-c pixel at index j is element
j + (c + o) // 2 of color (c + o) mod 2, o = dy S + dx, so each of the 8
factors of the neighbor sum W·f over one color is a contiguous
half-length slice, times that color's (8, n_c) weights, which are zero on
the border columns (``_RedBlackAffinity``). An iteration takes two
half-size products: the black half-sweep takes one black product, and
the red product that follows serves both the residual and the next red
half-sweep, f being unchanged in between. The residual's black product is
taken only when the red unknowns' part of the residual, a lower bound on
the whole, is within the tolerance, or at the last iteration; elsewhere
the whole is above the tolerance too, so the convergence test would fail.

Same bits. Each pixel's sum adds its 8 products in OFFSETS order starting
from w_0 f_0, exactly as a sum of zero-filled shifted copies of the image
does (the weights and f are nonnegative, so starting from w_0 f_0 rather
than 0 + w_0 f_0 changes no sign of zero); the residual gathers the
unknowns' squared differences from both colors into one array in
row-major order through an index computed once, and sums it. Every value
is therefore rounded as in the straightforward 2-D formulation, which
``tests/test_densify.py`` keeps as its reference.
"""

from __future__ import annotations

import math
import numbers
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
        for name in ("sigma_min", "tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise ValueError(f"max_iterations must be an integer >= 1, "
                             f"got {self.max_iterations!r}")


@dataclass
class DensifyResult:
    """A densified raster and how its solve ended.

    ``residual`` is the relative residual ||f - W·f|| / ||b|| over the
    unknown pixels at the returned iteration, b = W·(known values).
    ``converged`` says that it is within the tolerance, and ``iterations``
    is the first iteration at which it was, or ``max_iterations`` when
    none was. An input with no unknown pixel returns converged after 0
    iterations with residual 0.
    """

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


def _check_input(sparse: np.ndarray, guide: np.ndarray):
    """Reject rasters and guides the solver would turn into NaN or misread."""
    bad = np.count_nonzero(~np.isfinite(sparse))
    if bad:
        raise ValueError(f"sparse has {bad} non-finite values (NaN or inf); "
                         f"0 marks a missing pixel")
    bad = np.count_nonzero(sparse < 0)
    if bad:
        raise ValueError(f"sparse has {bad} negative values; depths are "
                         f"positive and 0 marks a missing pixel")
    if not (guide.ndim == 2 or (guide.ndim == 3 and guide.shape[2] == 3)):
        raise ValueError(f"guide must be (H, W) gray or (H, W, 3) RGB, "
                         f"got shape {guide.shape}")
    bad = np.count_nonzero(~np.isfinite(guide))
    if bad:
        raise ValueError(f"guide has {bad} non-finite values (NaN or inf)")


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


class _RedBlackAffinity:
    """f -> W·f on the pixels of one color, (W·f)(p) = sum_k w_k(p) f(p + offset_k).

    ``f`` is an image in split layout: the pair of color halves that
    ``split`` returns. The product for color c has one value for each
    position of that color from the first pixel (flat S + 1) to the last
    (flat H S + W): index i is flat position S + 1 + c + 2 i, and the
    indices that fall on border columns have zero weights. Neighbor
    (dy, dx) of flat position q is q + o, o = dy S + dx, which is element
    (c + o) // 2 past q's own index of half (c + o) mod 2; so the factor
    of each neighbor is one contiguous slice of one half.
    """

    def __init__(self, weights: np.ndarray):
        h, w = self.shape = weights.shape[1:]
        self.stride = w + 2 if w % 2 else w + 3  # odd
        self.start = (self.stride + 1) // 2  # index of flat S + 1 in either half
        span = (h - 1) * self.stride + w  # flat S + 1 through H S + W
        self.sizes = ((span + 1) // 2, span // 2)
        # one map at a time, so that no (8, H + 2, S) padded copy is made
        split = [self.split(wk) for wk in weights]
        self.weights = [[self.inner(halves, c) for halves in split] for c in (0, 1)]
        self.factors = [[((c + o) % 2, self.start + (c + o) // 2)
                         for o in (dy * self.stride + dx for dy, dx in OFFSETS)]
                        for c in (0, 1)]
        self._term = np.empty(self.sizes[0])

    def split(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An (H, W) image on the zero-bordered grid of row stride S, as its
        two color halves: flat positions 2 j and 2 j + 1."""
        h, w = self.shape
        grid = np.zeros((h + 2, self.stride), dtype=image.dtype)
        grid[1:-1, 1:w + 1] = image
        flat = grid.reshape(-1)
        return flat[0::2].copy(), flat[1::2].copy()

    def join(self, halves: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The (H, W) image of a split one."""
        h, w = self.shape
        flat = np.empty((h + 2) * self.stride, dtype=halves[0].dtype)
        flat[0::2], flat[1::2] = halves
        return flat.reshape(h + 2, self.stride)[1:-1, 1:w + 1].copy()

    def inner(self, halves: tuple[np.ndarray, np.ndarray], c: int) -> np.ndarray:
        """The view of half c aligned with a product for color c."""
        return halves[c][self.start:self.start + self.sizes[c]]

    def gather_index(self, mask: np.ndarray) -> np.ndarray:
        """Where mask's pixels lie, in row-major order, in the two products
        laid end to end (color 0 first)."""
        y, x = np.nonzero(mask)
        i = y * self.stride + x  # flat position less the first pixel's
        return i // 2 + (i % 2) * self.sizes[0]

    def apply(self, f: tuple[np.ndarray, np.ndarray], c: int,
              out: np.ndarray) -> np.ndarray:
        """out = W·f on color c, summed in OFFSETS order from w_0 f_0."""
        n = self.sizes[c]
        term = self._term[:n]
        weights = self.weights[c]
        (half, q), *rest = self.factors[c]
        np.multiply(weights[0], f[half][q:q + n], out=out)
        for wk, (half, q) in zip(weights[1:], rest):
            np.multiply(wk, f[half][q:q + n], out=term)
            out += term
        return out


def densify(sparse: np.ndarray, guide: np.ndarray,
            config: DensifyConfig | None = None) -> DensifyResult:
    """Fill every zero pixel of a sparse depth raster guided by an RGB image.

    Measured (positive) pixels are reproduced exactly; the rest solve the
    affinity-averaging system. RGB guides are converted to grayscale with
    (0.299, 0.587, 0.114) weights.
    """
    config = config or DensifyConfig()
    sparse = np.asarray(sparse, dtype=np.float64)
    guide = np.asarray(guide, dtype=np.float64)
    _check_input(sparse, guide)
    gray = rgb_to_gray(guide)
    if gray.shape != sparse.shape:
        raise ValueError(
            f"guide shape {gray.shape} does not match raster shape {sparse.shape}")
    known = sparse > 0
    if not known.any():
        raise ValueError("densify requires at least one measured pixel")
    if known.all():
        return DensifyResult(sparse.copy(), True, 0, 0.0)
    op = _RedBlackAffinity(build_weights(gray, config))
    unknown = ~known
    f = op.split(np.where(known, sparse, sparse[known].mean()))
    f_inner = [op.inner(f, c) for c in (0, 1)]  # aligned with a product
    sweep = [op.inner(op.split(unknown), c) for c in (0, 1)]
    s = [np.empty(n) for n in op.sizes]
    # both colors' differences laid end to end, and the unknowns among them
    # in row-major order
    d = np.empty(sum(op.sizes))
    diff = (d[:op.sizes[0]], d[op.sizes[0]:])
    at_unknown = op.gather_index(unknown)
    fixed = op.split(np.where(known, sparse, 0.0))
    for c in (0, 1):
        op.apply(fixed, c, diff[c])  # b = W·(known values), in d for now
    bnorm = max(np.linalg.norm(d[at_unknown]), 1e-300)
    ru = np.empty(at_unknown.size)
    at_red = at_unknown[at_unknown < op.sizes[0]]
    ru_red = np.empty(at_red.size)
    # the red unknowns' part of the residual is at most the whole, up to
    # the rounding of the two sums, which this relative margin covers
    screen = config.tolerance * (1.0 + 1e-9)
    # f is unchanged between the red product for the residual and the next
    # red half-sweep, so that one product serves both
    op.apply(f, 0, s[0])
    for it in range(1, config.max_iterations + 1):
        np.copyto(f_inner[0], s[0], where=sweep[0])
        np.copyto(f_inner[1], op.apply(f, 1, s[1]), where=sweep[1])
        np.subtract(f_inner[0], op.apply(f, 0, s[0]), out=diff[0])
        np.multiply(diff[0], diff[0], out=diff[0])
        # an elementwise sum, not np.linalg.norm: that is a BLAS call, and
        # each one wakes a multi-threaded BLAS whose idle threads then spin
        if (np.sqrt(np.take(diff[0], at_red, out=ru_red).sum()) / bnorm > screen
                and it < config.max_iterations):
            continue  # the full residual is above tolerance too
        np.subtract(f_inner[1], op.apply(f, 1, s[1]), out=diff[1])
        np.multiply(diff[1], diff[1], out=diff[1])
        np.take(d, at_unknown, out=ru)
        residual = np.sqrt(ru.sum()) / bnorm
        if residual <= config.tolerance:
            return DensifyResult(op.join(f), True, it, residual)
    return DensifyResult(op.join(f), False, config.max_iterations, residual)
