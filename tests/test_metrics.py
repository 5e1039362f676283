import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from depthfusion.metrics import (Divisor, compute_metrics, evaluate,
                                 mean_report, reference_metrics, write_reports)


def test_hand_example_both_divisors():
    gt = np.array([[2.0, 4.0]])
    pred = np.array([[1.0, 5.0]])
    rep = compute_metrics(pred, gt, divisor=Divisor.GROUNDTRUTH)
    assert rep.rmse == 1.0
    assert rep.ard == 0.375
    assert rep.delta1 == 0.0
    rep_p = compute_metrics(pred, gt, divisor=Divisor.PREDICTION)
    assert rep_p.ard == 0.6


def test_delta_thresholds_are_strict():
    gt = np.full((4, 4), 4.0)
    pred = gt * 1.25  # ratio exactly at the first threshold
    rep = compute_metrics(pred, gt)
    assert rep.delta1 == 0.0
    assert rep.delta2 == 1.0
    assert rep.delta3 == 1.0


def test_perfect_prediction():
    gt = np.random.default_rng(0).uniform(1, 50, size=(8, 8))
    rep = compute_metrics(gt, gt)
    assert rep.rmse == 0.0 and rep.ard == 0.0 and rep.srd == 0.0
    assert rep.delta1 == rep.delta2 == rep.delta3 == 1.0


def test_matches_scalar_reference_100_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        gt = rng.uniform(0.5, 80.0, size=(h, w))
        pred = rng.uniform(0.5, 80.0, size=(h, w))
        mask = rng.uniform(size=(h, w)) < 0.8
        if not mask.any():
            mask[0, 0] = True
        for div in Divisor:
            fast = compute_metrics(pred, gt, mask=mask, divisor=div).as_dict()
            slow = reference_metrics(pred, gt, mask=mask, divisor=div).as_dict()
            for key, val in slow.items():
                assert fast[key] == pytest.approx(val, abs=1e-12), key


def test_validation_errors():
    gt = np.ones((3, 3))
    with pytest.raises(ValueError):
        compute_metrics(np.ones((2, 3)), gt)
    with pytest.raises(ValueError):
        compute_metrics(gt, gt, mask=np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((3, 3)), gt)  # non-positive depths


def test_metric_invariances():
    rng = np.random.default_rng(2)
    gt = rng.uniform(1, 40, size=(6, 6))
    pred = rng.uniform(1, 40, size=(6, 6))
    base = compute_metrics(pred, gt)
    # relative metrics are invariant to a common positive scale
    scaled = compute_metrics(3.0 * pred, 3.0 * gt)
    assert scaled.ard == pytest.approx(base.ard, abs=1e-12)
    assert scaled.delta1 == base.delta1
    assert scaled.rmse == pytest.approx(3.0 * base.rmse, rel=1e-12)
    # pixel order is irrelevant
    perm = rng.permutation(36)
    shuffled = compute_metrics(pred.ravel()[perm].reshape(6, 6),
                               gt.ravel()[perm].reshape(6, 6))
    assert shuffled.as_dict() == pytest.approx(base.as_dict(), abs=1e-12)


def test_mean_report_averages_per_image():
    gt = np.full((2, 2), 2.0)
    r1 = compute_metrics(np.full((2, 2), 1.0), gt)  # rmse 1
    r2 = compute_metrics(np.full((2, 2), 4.0), gt)  # rmse 2
    agg = mean_report([r1, r2])
    assert agg.rmse == 1.5
    assert agg.n_pixels == 8


def test_write_reports_round_trip(tmp_path):
    gt = np.array([[2.0, 4.0]])
    reports = {"a": compute_metrics(np.array([[1.0, 5.0]]), gt),
               "b": compute_metrics(gt, gt)}
    jsonl = tmp_path / "per.jsonl"
    csvp = tmp_path / "per.csv"
    write_reports(reports, jsonl, csvp)
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["sample_id"] == "a" and rec["rmse"] == 1.0
    with open(csvp) as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["sample_id"] == "a"
    assert float(rows[0]["ard"]) == 0.375


def test_evaluate_skips_pixels_without_groundtruth():
    # a stored ground truth of 0 means "no measurement": it is not scored,
    # where clipping it first would score it as a depth of d_min
    model = SimpleNamespace(
        config=SimpleNamespace(d_min=0.5, d_max=80.0),
        predict_depth=lambda rgb, sparse: np.full(rgb.shape[:2], 10.0))
    gt = np.random.default_rng(0).uniform(1.0, 90.0, size=(16, 32))
    gt[:8] = 0.0
    sample = SimpleNamespace(rgb=np.zeros((16, 32, 3)), sparse=None, gt=gt)
    (report,) = evaluate(model, [sample])
    want = compute_metrics(np.full((8, 32), 10.0), np.clip(gt[8:], 0.5, 80.0))
    assert report == want
    assert report.n_pixels == 256
