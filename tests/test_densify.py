from dataclasses import replace

import numpy as np
import pytest

from depthfusion import data as D
from depthfusion.densify import (OFFSETS, DensifyConfig, _RedBlackAffinity,
                                 build_weights, densify, rgb_to_gray)

CFG = DensifyConfig()
# solved tightly so iteration error stays below the 1e-5 comparison bound
CFG_TIGHT = DensifyConfig(tolerance=1e-9, max_iterations=50000)


def dense_direct_solve(sparse, guide, config):
    """64-bit dense solve of the same averaging system, for tiny grids."""
    w = build_weights(rgb_to_gray(guide), config)
    h, wd = sparse.shape
    n = h * wd
    a = np.eye(n)
    b = np.zeros(n)
    for y in range(h):
        for x in range(wd):
            p = y * wd + x
            if sparse[y, x] > 0:
                b[p] = sparse[y, x]
                continue
            for k, (dy, dx) in enumerate(OFFSETS):
                qy, qx = y + dy, x + dx
                if 0 <= qy < h and 0 <= qx < wd:
                    a[p, qy * wd + qx] -= w[k, y, x]
    return np.linalg.solve(a, b).reshape(h, wd)


def test_constant_guide_uniform_weights():
    w = build_weights(np.full((5, 5), 0.3), CFG)
    assert w[:, 2, 2] == pytest.approx([1.0 / 8.0] * 8)
    # corner pixel has 3 in-image neighbors
    corner = w[:, 0, 0]
    assert corner[corner > 0] == pytest.approx([1.0 / 3.0] * 3)
    assert np.allclose(w.sum(axis=0), 1.0)


def test_edge_weights_prefer_same_side():
    guide = np.zeros((5, 6))
    guide[:, 3:] = 1.0  # vertical intensity jump
    w = build_weights(guide, CFG)
    # for the pixel left of the edge: left neighbor (same side) beats right
    left = w[OFFSETS.index((0, -1)), 2, 2]
    right = w[OFFSETS.index((0, 1)), 2, 2]
    assert left > right


def test_affine_guide_invariance():
    rng = np.random.default_rng(0)
    guide = rng.uniform(0, 1, size=(6, 6))
    w1 = build_weights(guide, CFG)
    w2 = build_weights(3.0 * guide - 0.4, CFG)
    np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_constant_solution_from_center_seed():
    sparse = np.zeros((3, 3))
    sparse[1, 1] = 7.0
    result = densify(sparse, np.full((3, 3), 0.5), CFG)
    assert result.converged
    np.testing.assert_allclose(result.depth, 7.0, atol=1e-5)


def test_known_pixel_fidelity_exact():
    rng = np.random.default_rng(1)
    sparse = np.zeros((8, 8))
    idx = rng.choice(64, size=6, replace=False)
    sparse.flat[idx] = rng.uniform(1.0, 50.0, size=6)
    guide = rng.uniform(0, 1, size=(8, 8, 3))
    result = densify(sparse, guide, CFG)
    known = sparse > 0
    np.testing.assert_array_equal(result.depth[known], sparse[known])


def test_maximum_principle_50_instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        sparse = np.zeros((h, w))
        n = int(rng.integers(2, 6))
        idx = rng.choice(h * w, size=n, replace=False)
        vals = rng.uniform(1.0, 60.0, size=n)
        sparse.flat[idx] = vals
        guide = rng.uniform(0, 1, size=(h, w))
        result = densify(sparse, guide, CFG)
        assert result.depth.min() >= vals.min() - 1e-9
        assert result.depth.max() <= vals.max() + 1e-9


def test_two_seed_bounds_on_constant_guide():
    sparse = np.zeros((6, 6))
    sparse[0, 0] = 10.0
    sparse[5, 5] = 2.0
    result = densify(sparse, np.full((6, 6), 0.5), CFG)
    assert np.all(result.depth >= 2.0 - 1e-9)
    assert np.all(result.depth <= 10.0 + 1e-9)


def test_matches_dense_direct_solve():
    rng = np.random.default_rng(3)
    for _ in range(5):
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        sparse = np.zeros((h, w))
        idx = rng.choice(h * w, size=3, replace=False)
        sparse.flat[idx] = rng.uniform(1.0, 20.0, size=3)
        guide = rng.uniform(0, 1, size=(h, w))
        result = densify(sparse, guide, CFG_TIGHT)
        oracle = dense_direct_solve(sparse, guide, CFG_TIGHT)
        np.testing.assert_allclose(result.depth, oracle, atol=1e-5)


def test_corner_seeds_5x5_against_direct_solve():
    sparse = np.zeros((5, 5))
    sparse[0, 0] = 3.0
    sparse[4, 4] = 9.0
    guide = np.full((5, 5), 0.5)
    result = densify(sparse, guide, CFG_TIGHT)
    oracle = dense_direct_solve(sparse, guide, CFG_TIGHT)
    np.testing.assert_allclose(result.depth, oracle, atol=1e-5)


def test_rejects_empty_sparse():
    with pytest.raises(ValueError):
        densify(np.zeros((4, 4)), np.zeros((4, 4)))


def test_config_validation():
    for tolerance in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            DensifyConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        DensifyConfig(max_iterations=0)
    for sigma_min in (float("nan"), float("inf"), 0.0, -1.0, "1e-4", None):
        with pytest.raises(ValueError, match="sigma_min"):
            DensifyConfig(sigma_min=sigma_min)
    for max_iterations in (2.5, float("inf"), True, "10", -3):
        with pytest.raises(ValueError, match="max_iterations"):
            DensifyConfig(max_iterations=max_iterations)
    for tolerance in ("1e-6", None, True):
        with pytest.raises(ValueError, match="tolerance"):
            DensifyConfig(tolerance=tolerance)
    DensifyConfig(sigma_min=np.float64(1e-3), max_iterations=np.int64(3),
                  tolerance=np.float32(1e-3))


def _bad_input(case):
    rng = np.random.default_rng(6)
    sparse = np.zeros((5, 6))
    sparse[1, 2], sparse[3, 4] = 4.0, 9.0
    guide = rng.uniform(0, 1, size=(5, 6, 3))
    if case == "nan sparse":
        sparse[0, 0] = np.nan
    elif case == "inf sparse":
        sparse[2, 2] = np.inf
    elif case == "negative sparse":
        sparse[4, 5] = -2.0
    elif case == "nan guide":
        guide[2, 3, 1] = np.nan
    elif case == "4-channel guide":
        guide = rng.uniform(0, 1, size=(5, 6, 4))
    elif case == "1-channel guide":
        guide = rng.uniform(0, 1, size=(5, 6, 1))
    return sparse, guide


@pytest.mark.parametrize("case,name", [
    ("nan sparse", "sparse"), ("inf sparse", "sparse"),
    ("negative sparse", "sparse"), ("nan guide", "guide"),
    ("4-channel guide", "guide"), ("1-channel guide", "guide")])
def test_rejects_bad_input(case, name):
    sparse, guide = _bad_input(case)
    with pytest.raises(ValueError, match=name):
        densify(sparse, guide)


def test_all_known_is_identity():
    rng = np.random.default_rng(5)
    sparse = rng.uniform(1.0, 10.0, size=(4, 4))
    result = densify(sparse, rng.uniform(0, 1, size=(4, 4)))
    np.testing.assert_array_equal(result.depth, sparse)
    assert result.converged


def _shift(x, dy, dx):
    """out[i, j] = x[i + dy, j + dx], zero outside the image."""
    out = np.zeros_like(x)
    h, w = x.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    yd = slice(max(-dy, 0), h + min(-dy, 0))
    xd = slice(max(-dx, 0), w + min(-dx, 0))
    out[yd, xd] = x[ys, xs]
    return out


def reference_weights(g, config):
    ones = np.ones_like(g)
    count, total, total_sq = ones.copy(), g.copy(), g * g
    for dy, dx in OFFSETS:
        total += _shift(g, dy, dx)
        total_sq += _shift(g * g, dy, dx)
        count += _shift(ones, dy, dx)
    mean = total / count
    sigma = np.maximum(np.sqrt(np.maximum(total_sq / count - mean * mean, 0.0)),
                       config.sigma_min)
    weights = np.zeros((len(OFFSETS),) + g.shape)
    for k, (dy, dx) in enumerate(OFFSETS):
        diff = g - _shift(g, dy, dx)
        weights[k] = np.exp(-diff * diff / (2.0 * sigma * sigma)) * _shift(ones, dy, dx)
    weights /= weights.sum(axis=0, keepdims=True)
    return weights


def reference_densify(sparse, guide, config):
    """The solver on 2-D images: zero-filled shifted copies, three neighbor
    sums per iteration (red sweep, black sweep, residual)."""
    def neighbor_sum(x):
        out = np.zeros_like(x)
        for k, (dy, dx) in enumerate(OFFSETS):
            out += weights[k] * _shift(x, dy, dx)
        return out

    known = sparse > 0
    unknown = ~known
    weights = reference_weights(rgb_to_gray(guide), config)
    f = np.where(known, sparse, sparse[known].mean())
    b = neighbor_sum(np.where(known, sparse, 0.0))
    bnorm = max(np.linalg.norm(b[unknown]), 1e-300)
    yy, xx = np.indices(f.shape)
    red = unknown & ((yy + xx) % 2 == 0)
    black = unknown & ((yy + xx) % 2 == 1)
    for it in range(1, config.max_iterations + 1):
        for mask in (red, black):
            f[mask] = neighbor_sum(f)[mask]
        ru = (f - neighbor_sum(f))[unknown]
        residual = np.sqrt((ru * ru).sum()) / bnorm
        if residual <= config.tolerance:
            return f, True, it, residual
    return f, False, config.max_iterations, residual


def assert_same_bits(sparse, guide, config):
    result = densify(sparse, guide, config)
    depth, converged, iterations, residual = reference_densify(sparse, guide, config)
    assert result.depth.shape == depth.shape
    assert result.depth.tobytes() == depth.tobytes()
    assert (result.converged, result.iterations) == (converged, iterations)
    assert np.float64(result.residual).tobytes() == np.float64(residual).tobytes()
    return converged


def test_same_bits_as_shifted_copy_reference():
    rng = np.random.default_rng(14)
    shapes = [(1, 7), (9, 1), (2, 2), (1, 2), (5, 8), (11, 6)]
    outcomes = set()
    for i in range(60):
        h, w = shapes[i % len(shapes)]
        sparse = np.zeros((h, w))
        # a single known pixel every third instance
        n = 1 if i % 3 == 0 else int(rng.integers(1, h * w))
        sparse.flat[rng.choice(h * w, size=n, replace=False)] = rng.uniform(1.0, 80.0, n)
        guide = rng.uniform(0, 1, size=(h, w, 3) if i % 2 else (h, w))
        config = DensifyConfig(max_iterations=int(rng.choice([1, 2, 3, 40, 3000])),
                               tolerance=float(rng.choice([1e-3, 1e-6, 1e-9])))
        np.testing.assert_array_equal(build_weights(rgb_to_gray(guide), config),
                                      reference_weights(rgb_to_gray(guide), config))
        outcomes.add(assert_same_bits(sparse, guide, config))
    assert outcomes == {True, False}


def test_same_bits_as_reference_on_a_generated_frame():
    frame = D.generate_sample(replace(D.SceneSpec(), weather="fog"), 102)
    assert frame.sparse.shape == (96, 160)
    assert not assert_same_bits(frame.sparse, frame.rgb,
                                DensifyConfig(max_iterations=300))


def _random_instance(rng, h, w, n_known):
    sparse = np.zeros((h, w))
    sparse.flat[rng.choice(h * w, size=n_known, replace=False)] = \
        rng.uniform(1.0, 80.0, n_known)
    return sparse, rng.uniform(0, 1, size=(h, w, 3))


@pytest.mark.parametrize("shape", [(16, 24), (17, 23), (16, 23), (17, 24)])
def test_same_bits_at_both_width_parities(shape):
    # even widths take one more zero column so that the row stride is odd
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    sparse, guide = _random_instance(rng, *shape, 12)
    assert not assert_same_bits(sparse, guide, DensifyConfig(max_iterations=60))
    assert assert_same_bits(sparse, guide, DensifyConfig(tolerance=1e-3))


def test_same_bits_on_single_row_and_column_grids():
    rng = np.random.default_rng(15)
    for shape in [(1, 2), (1, 9), (1, 10), (2, 1), (9, 1), (10, 1)]:
        for n_known in sorted({1, shape[0] * shape[1] - 1}):
            sparse, guide = _random_instance(rng, *shape, n_known)
            for iterations in (1, 5, 500):
                assert_same_bits(sparse, guide,
                                 DensifyConfig(max_iterations=iterations))
    # a 1x1 grid has no unknown to solve for
    sparse = np.array([[3.0]])
    result = densify(sparse, np.array([[0.5]]))
    assert result.converged and result.depth.tobytes() == sparse.tobytes()


@pytest.mark.parametrize("color", [0, 1])
def test_same_bits_when_every_unknown_has_one_color(color):
    rng = np.random.default_rng(16 + color)
    h, w = 7, 8
    yy, xx = np.indices((h, w))
    sparse = np.where((yy + xx) % 2 == color, 0.0, rng.uniform(1.0, 80.0, (h, w)))
    guide = rng.uniform(0, 1, size=(h, w))
    for iterations in (1, 3, 200):
        assert_same_bits(sparse, guide, DensifyConfig(max_iterations=iterations))


def test_same_bits_with_known_first_and_last_pixels():
    rng = np.random.default_rng(18)
    for shape in [(6, 9), (6, 10), (5, 5)]:
        sparse = np.zeros(shape)
        sparse[0, 0], sparse[-1, -1] = 12.0, 47.0
        guide = rng.uniform(0, 1, size=(*shape, 3))
        for iterations in (1, 7, 400):
            assert_same_bits(sparse, guide, DensifyConfig(max_iterations=iterations))


def test_same_bits_as_reference_on_a_day_frame():
    frame = D.generate_sample(replace(D.SceneSpec(), weather="day"), 101)
    assert not assert_same_bits(frame.sparse, frame.rgb,
                                DensifyConfig(max_iterations=300))


def _count_products(monkeypatch):
    """Patch _RedBlackAffinity.apply to count its calls; returns the count."""
    calls = [0]
    apply = _RedBlackAffinity.apply

    def counted(self, *args):
        calls[0] += 1
        return apply(self, *args)

    monkeypatch.setattr(_RedBlackAffinity, "apply", counted)
    return calls


def test_two_products_per_iteration_until_the_last(monkeypatch):
    # b takes two products and the first red sweep one; then each iteration
    # takes a black and a red one, and the full residual's black product is
    # taken only at the last, as the red unknowns alone stay above tolerance
    frame = D.generate_sample(replace(D.SceneSpec(), weather="fog"), 102)
    calls = _count_products(monkeypatch)
    n = 100
    result = densify(frame.sparse, frame.rgb, DensifyConfig(max_iterations=n))
    assert (result.converged, result.iterations) == (False, n)
    assert calls[0] == 2 * n + 4


def test_same_bits_when_the_red_screen_passes_for_many_iterations(monkeypatch):
    # every red pixel but a few is known, and a checkerboard guide couples
    # each black unknown mostly to its black diagonal neighbors: the red part
    # of the residual falls within tolerance long before the whole does
    rng = np.random.default_rng(3)
    h, w = 24, 32
    yy, xx = np.indices((h, w))
    red = (yy + xx) % 2 == 0
    known = red & (rng.uniform(size=(h, w)) >= 0.02)
    sparse = np.where(known, rng.uniform(1.0, 80.0, (h, w)), 0.0)
    guide = np.where(red, 0.0, 1.0) + 0.01 * rng.uniform(0, 1, (h, w))
    assert 0 < np.count_nonzero(red & ~known) < np.count_nonzero(~red) // 20
    calls = _count_products(monkeypatch)
    result = densify(sparse, guide, CFG)
    full_residuals = calls[0] - 2 * result.iterations - 3
    assert result.converged and 20 <= full_residuals < result.iterations
    assert assert_same_bits(sparse, guide, CFG)
