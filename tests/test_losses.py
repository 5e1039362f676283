import numpy as np
import pytest

from depthfusion import tensor as T
from depthfusion.losses import (SSIM_C1, LossWeights, PixelLossKind,
                                ReciprocalCodec, berhu, loss_edge, loss_pixel,
                                loss_ssim, loss_total, ssim)
from depthfusion.tensor import Tensor


def tmap(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_ssim_identical_images_is_one():
    rng = np.random.default_rng(0)
    a = tmap(rng.uniform(0, 1, size=(1, 1, 9, 9)))
    assert abs(ssim(a, a).item() - 1.0) < 1e-12


def test_ssim_constant_pair_closed_form():
    a = tmap(np.zeros((1, 1, 8, 8)))
    b = tmap(np.ones((1, 1, 8, 8)))
    # zero variance/covariance: index collapses to c1 / (0 + 1 + c1)
    expected = SSIM_C1 / (1.0 + SSIM_C1)
    assert abs(ssim(a, b).item() - expected) < 1e-12
    assert abs(loss_ssim(a, b).item() - (1.0 - expected) / 2.0) < 1e-12
    assert abs(loss_ssim(a, b).item() - 0.49995) < 1e-7


@pytest.mark.parametrize("window", [1, 3, 7])
def test_window_mean_and_adjoint_match_conv(window):
    rng = np.random.default_rng(window)
    x = tmap(rng.uniform(0, 1, size=(2, 1, 12, 15)))
    box = T.window_mean(x, window)
    kernel = Tensor(np.full((1, 1, window, window), 1.0 / window ** 2))
    x_conv = tmap(x.data)
    conv = T.conv2d(x_conv, kernel, Tensor(np.zeros(1)), stride=1, padding=0)
    np.testing.assert_allclose(box.data, conv.data, rtol=0, atol=1e-12)
    g = Tensor(rng.normal(size=box.shape))
    grads_box = T.backward(T.sum_all(box * g))
    grads_conv = T.backward(T.sum_all(conv * g))
    np.testing.assert_allclose(grads_box[x], grads_conv[x_conv], rtol=0, atol=1e-12)


def test_ssim_rejects_bad_window():
    a = tmap(np.zeros((1, 1, 8, 8)))
    with pytest.raises(ValueError):
        ssim(a, a, window=4)
    with pytest.raises(T.ShapeError):
        ssim(a, a, window=9)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_ssim_stabilizers_cannot_be_set(name):
    a = tmap(np.zeros((1, 1, 8, 8)))
    with pytest.raises(TypeError, match=name):
        ssim(a, a, **{name: 0.0})


def test_ssim_rejects_multichannel_maps():
    rgb = tmap(np.zeros((1, 3, 8, 8)))
    with pytest.raises(T.ShapeError, match="single-channel"):
        ssim(rgb, rgb)


def test_berhu_branch_values():
    out = berhu(tmap([0.5, 2.0]), c=1.0)
    assert out.data[0] == 0.5
    assert out.data[1] == 2.5  # (4 + 1) / 2
    with pytest.raises(ValueError):
        berhu(tmap([1.0]), c=0.0)


def test_berhu_continuity_at_threshold():
    c = 0.73
    eps = 1e-9
    f = lambda x: berhu(tmap([x]), c).data[0]
    assert abs(f(c - eps) - f(c + eps)) < 1e-8
    assert abs(f(c) - c) < 1e-12
    # one-sided slopes agree at the joint (once-differentiable)
    slope = (f(c + eps) - f(c - eps)) / (2 * eps)
    assert abs(slope - 1.0) < 1e-6


def test_berhu_adaptive_threshold_example():
    pred = tmap([[[[0.1, 1.0]]]])
    gt = tmap([[[[0.0, 0.0]]]])
    # c = 0.2 * max|diff| = 0.2: mean(0.1, (1 + 0.04)/0.4) = mean(0.1, 2.6)
    out = loss_pixel(pred, gt, PixelLossKind.BERHU)
    assert abs(out.item() - 1.35) < 1e-12


def test_loss_edge_hand_example():
    gt = tmap([[[[0.0, 0.0], [0.0, 0.0]]]])
    pred = tmap([[[[0.0, 1.0], [0.0, 0.0]]]])
    # gx diffs: [1, 0] -> mean 0.5; gy diffs: [0, -1] -> mean 0.5
    assert abs(loss_edge(pred, gt).item() - 1.0) < 1e-12


def test_loss_edge_shift_invariance():
    rng = np.random.default_rng(3)
    base = rng.uniform(0, 1, size=(1, 1, 6, 7))
    pred = tmap(base + rng.uniform(-0.2, 0.2, size=base.shape))
    gt = tmap(base)
    ref = loss_edge(pred, gt).item()
    assert abs(loss_edge(tmap(pred.data + 4.2), tmap(gt.data + 4.2)).item()
               - ref) < 1e-12
    assert abs(loss_edge(tmap(pred.data), tmap(gt.data)).item() - ref) < 1e-12
    # constant disagreement carries no edge penalty
    assert loss_edge(tmap(gt.data + 1.0), gt).item() < 1e-12


def test_loss_total_zero_iff_equal():
    rng = np.random.default_rng(4)
    gt = tmap(rng.uniform(0.1, 0.9, size=(1, 1, 9, 9)))
    assert loss_total(gt, gt).item() < 1e-12
    pred = tmap(gt.data + 0.05)
    assert loss_total(pred, gt).item() > 1e-4


def test_loss_total_recomposition():
    rng = np.random.default_rng(5)
    gt = tmap(rng.uniform(0.1, 0.9, size=(1, 1, 9, 9)))
    pred = tmap(np.clip(gt.data + rng.normal(0, 0.1, size=gt.shape), 0, 1))
    w = LossWeights(w_ssim=0.7, w_edge=1.3, w_pixel=2.0)
    total = loss_total(pred, gt, weights=w, kind=PixelLossKind.BERHU).item()
    parts = (0.7 * loss_ssim(pred, gt).item()
             + 1.3 * loss_edge(pred, gt).item()
             + 2.0 * loss_pixel(pred, gt, PixelLossKind.BERHU).item())
    assert abs(total - parts) < 1e-12


def test_loss_total_skips_zero_weighted_terms():
    gt = tmap(np.full((1, 1, 4, 4), 0.5))
    pred = tmap(gt.data + 0.1)
    w = LossWeights(w_ssim=0.0, w_edge=0.0, w_pixel=1.0)
    assert abs(loss_total(pred, gt, weights=w).item() - 0.1) < 1e-12


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(w_ssim=-1.0)
    with pytest.raises(ValueError):
        LossWeights(w_ssim=0.0, w_edge=0.0, w_pixel=0.0)
    for name in ("w_ssim", "w_edge", "w_pixel"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                LossWeights(**{name: value})


def test_codec_round_trip():
    codec = ReciprocalCodec()
    d = np.linspace(codec.d_min, codec.d_max, 500)
    np.testing.assert_allclose(codec.decode(codec.encode(d)), d, atol=1e-6)
    # out-of-range depths clamp before encoding
    assert codec.encode(np.array([0.01]))[0] == 1.0
    assert codec.encode(np.array([1e6]))[0] == codec.d_min / codec.d_max
    # targets live in (0, 1]
    t = codec.encode(np.array([0.5, 5.0, 80.0]))
    assert np.all(t > 0) and np.all(t <= 1)


def test_codec_validation():
    with pytest.raises(ValueError):
        ReciprocalCodec(d_min=2.0, d_max=1.0)
    with pytest.raises(ValueError):
        ReciprocalCodec(d_min=0.0)
