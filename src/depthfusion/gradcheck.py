"""Central finite-difference verification of analytic gradients.

All checks run in float64 with step 1e-5; float32 would drown the signal
in rounding noise.
"""

from __future__ import annotations

import numpy as np

from . import losses as L
from . import tensor as T
from .tensor import Tensor, backward

STEP = 1e-5


def numeric_gradient(fn, tensors, index):
    """Central-difference gradient of scalar fn w.r.t. tensors[index]."""
    t = tensors[index]
    base = t.data.copy()
    g = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        t.data = flat.reshape(base.shape)
        hi = float(fn(*tensors).data.reshape(-1)[0])
        flat[i] = orig - STEP
        t.data = flat.reshape(base.shape)
        lo = float(fn(*tensors).data.reshape(-1)[0])
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * STEP)
    t.data = base
    return g


def max_relative_error(fn, tensors):
    """Worst elementwise relative error between analytic and numeric gradients.

    The error is |ga - gn| / (|ga| + |gn| + 1e-6), which is ~1 for a wrong
    gradient and <1e-6 for a correct one at this step size; the additive
    floor keeps finite-difference noise on exactly-zero gradients from
    registering as error.
    """
    for t in tensors:
        t.zero_grad()
    loss = fn(*tensors)
    backward(loss)
    worst = 0.0
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        ga = np.zeros_like(t.data) if t.grad is None else t.grad
        gn = numeric_gradient(fn, tensors, i)
        err = np.abs(ga - gn) / (np.abs(ga) + np.abs(gn) + 1e-6)
        worst = max(worst, float(err.max()))
    return worst


def check(fn, tensors, tol=1e-4):
    err = max_relative_error(fn, tensors)
    return err <= tol, err


# ---------------------------------------------------------------------------
# the op/loss suite behind the `gradcheck` command


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True,
                  dtype=np.float64)


def _rand_away_from_zero(rng, shape, margin=0.1):
    mag = rng.uniform(margin, 1.0, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True, dtype=np.float64)


def _conv_away_from_kink(rng, stride, margin=0.01):
    """(x, kernel, bias) whose padded conv at ``stride`` has no output
    within ``margin`` of 0, the kink of a fused leaky ReLU, so central
    differences stay on one branch; drawn again until they do."""
    while True:
        case = [_rand(rng, (2, 2, 4, 4)), _rand(rng, (3, 2, 3, 3)), _rand(rng, (3,))]
        with T.no_grad():
            z = T.conv2d(*case, stride, 1).data
        if np.abs(z).min() >= margin:
            return case


def _suite_cases(rng):
    """(name, fn, tensors) triples; every fn maps its tensors to a scalar."""

    x = _rand(rng, (2, 2, 4, 4))
    k = _rand(rng, (3, 2, 3, 3))
    b = _rand(rng, (3,))
    k1 = _rand(rng, (3, 2, 1, 1))
    b1 = _rand(rng, (3,))
    y = _rand(rng, (2, 2, 4, 4))
    ch1 = _rand(rng, (2, 1, 4, 4))
    p8 = _rand(rng, (1, 1, 8, 8), 0.05, 0.95)
    g8 = _rand(rng, (1, 1, 8, 8), 0.05, 0.95)
    away = _rand_away_from_zero(rng, (2, 2, 4, 4))
    # for the edge loss, keep |gx|, |gy| of pred-gt bounded away from the
    # abs kink so central differences stay on one analytic branch
    sy = float(np.sign(rng.uniform(-1, 1)))
    sx = float(np.sign(rng.uniform(-1, 1)))
    ramp = (sy * np.cumsum(rng.uniform(0.02, 0.1, size=8))[:, None]
            + sx * np.cumsum(rng.uniform(0.02, 0.1, size=8))[None, :])
    p_edge = Tensor(g8.data + ramp.reshape(1, 1, 8, 8), requires_grad=True,
                    dtype=np.float64)
    fused_s1 = _conv_away_from_kink(rng, 1)
    fused_s2 = _conv_away_from_kink(rng, 2)
    skip = _rand(rng, (2, 1, 8, 8))
    weight = Tensor(rng.uniform(-1, 1, size=(2, 3, 8, 8)))

    def msum(t):
        return T.mean_all(t)

    return [
        ("conv2d_s1p1", lambda a, kk, bb: msum(T.conv2d(a, kk, bb, 1, 1)), [x, k, b]),
        ("conv2d_s2p1", lambda a, kk, bb: msum(T.conv2d(a, kk, bb, 2, 1)), [x, k, b]),
        ("conv1x1", lambda a, kk, bb: msum(T.conv1x1(a, kk, bb)), [x, k1, b1]),
        ("leaky_relu", lambda a: msum(T.leaky_relu(a, 0.1)), [away]),
        ("maxpool2x", lambda a: msum(T.maxpool2x(a)), [x]),
        ("bilinear_upsample2x", lambda a: msum(T.bilinear_upsample2x(a)), [x]),
        ("conv2d_leaky_s1p1",
         lambda a, kk, bb: msum(T.conv2d(a, kk, bb, 1, 1, leaky=0.2)), fused_s1),
        ("conv2d_leaky_s2p1",
         lambda a, kk, bb: msum(T.conv2d(a, kk, bb, 2, 1, leaky=0.2)), fused_s2),
        ("upsample2x_skip",
         lambda a, sk: msum(T.bilinear_upsample2x(a, sk) * weight), [x, skip]),
        ("concat_channels",
         lambda a, bb: msum(T.concat_channels(a, bb) * T.concat_channels(bb, a)),
         [x, y]),
        ("add_elementwise", lambda a, bb: msum(T.add_elementwise(a, bb) * a), [x, y]),
        ("add_broadcast", lambda a, bb: msum(T.add_elementwise(a, bb) * a), [x, ch1]),
        ("mul_div", lambda a, bb: msum(a * bb / (bb * bb + 2.0)), [x, y]),
        ("sigmoid", lambda a: msum(T.sigmoid(a)), [x]),
        ("abs", lambda a: msum(T.abs_(a)), [away]),
        ("slice", lambda a: msum(T.tslice(a, np.s_[:, :, 1:, :-1]) * 3.0), [x]),
        ("ssim", lambda a, bb: L.ssim(a, bb), [p8, g8]),
        ("loss_ssim", lambda a, bb: L.loss_ssim(a, bb), [p8, g8]),
        ("loss_edge", lambda a, bb: L.loss_edge(a, bb), [p_edge, g8]),
        ("loss_pixel_l1", lambda a, bb: L.loss_pixel(a, bb, L.PixelLossKind.L1),
         [p8, g8]),
        ("loss_pixel_l2", lambda a, bb: L.loss_pixel(a, bb, L.PixelLossKind.L2),
         [p8, g8]),
        ("berhu_fixed_c", lambda a: T.mean_all(L.berhu(a, 0.3)), [away]),
        ("loss_total", lambda a, bb: L.loss_total(a, bb), [p8, g8]),
    ]


def run_suite(n_seeds=10, tol=1e-4):
    """Finite-difference check of every differentiable op and loss.

    Returns a list of {op, max_relative_error, passed} records; the Berhu
    composite is checked with its adaptive threshold held fixed, since the
    threshold is a constant of the training step by definition.
    """
    worst = {}
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        for name, fn, tensors in _suite_cases(rng):
            err = max_relative_error(fn, tensors)
            worst[name] = max(worst.get(name, 0.0), err)
    return [{"op": name, "max_relative_error": err, "passed": err <= tol}
            for name, err in worst.items()]
