"""Depth-evaluation metrics: RMSE, relative errors, threshold accuracies.

ARD/SRD support two divisor conventions. The groundtruth divisor is the
default (it matches the wider depth-estimation literature); the prediction
divisor is available behind a flag for literal comparison runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from enum import Enum

import numpy as np

from .malloc import keep_freed_memory

THRESHOLDS = (1.25, 1.25 ** 2, 1.25 ** 3)


class Divisor(Enum):
    GROUNDTRUTH = "gt"
    PREDICTION = "pred"


@dataclass
class MetricsReport:
    rmse: float
    ard: float
    srd: float
    delta1: float
    delta2: float
    delta3: float
    n_pixels: int
    divisor_convention: str

    def as_dict(self):
        return asdict(self)


def compute_metrics(pred: np.ndarray, gt: np.ndarray,
                    mask: np.ndarray | None = None,
                    divisor: Divisor = Divisor.GROUNDTRUTH) -> MetricsReport:
    """Evaluate a predicted depth map against groundtruth over masked pixels."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred.shape:
        raise ValueError(f"mask shape {mask.shape} does not match {pred.shape}")
    if not mask.any():
        raise ValueError("evaluation mask selects no pixels")
    p = pred[mask]
    g = gt[mask]
    if (p <= 0).any() or (g <= 0).any():
        raise ValueError("masked depths must be strictly positive")

    err = p - g
    rmse = float(np.sqrt(np.mean(err * err)))
    div = g if divisor is Divisor.GROUNDTRUTH else p
    ard = float(np.mean(np.abs(err) / div))
    srd = float(np.mean(err * err / div))
    ratio = np.maximum(p / g, g / p)
    deltas = [float(np.mean(ratio < t)) for t in THRESHOLDS]
    return MetricsReport(rmse=rmse, ard=ard, srd=srd,
                         delta1=deltas[0], delta2=deltas[1], delta3=deltas[2],
                         n_pixels=int(mask.sum()),
                         divisor_convention=divisor.value)


def evaluate(model, samples,
             divisor: Divisor = Divisor.GROUNDTRUTH) -> list[MetricsReport]:
    """One report per sample: the model's depth against the groundtruth
    clipped to the model's [d_min, d_max], over the pixels whose stored
    groundtruth is positive (0 means no measurement).

    ``samples`` is consumed lazily, so a generator that loads each frame
    has it predicted and scored before the next one loads. Freed memory
    is kept in the process (``malloc.keep_freed_memory``), so each frame
    reuses the last one's buffers.
    """
    keep_freed_memory()
    cfg = model.config
    return [compute_metrics(model.predict_depth(s.rgb, s.sparse),
                            np.clip(s.gt, cfg.d_min, cfg.d_max), mask=s.gt > 0,
                            divisor=divisor)
            for s in samples]


def reference_metrics(pred, gt, mask=None,
                      divisor: Divisor = Divisor.GROUNDTRUTH) -> MetricsReport:
    """Scalar-loop reference implementation, kept independent of compute_metrics."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    sq = 0.0
    ab = 0.0
    sr = 0.0
    hits = [0, 0, 0]
    n = 0
    for idx in np.ndindex(pred.shape):
        if not mask[idx]:
            continue
        p = float(pred[idx])
        g = float(gt[idx])
        if p <= 0 or g <= 0:
            raise ValueError("masked depths must be strictly positive")
        e = p - g
        sq += e * e
        d = g if divisor is Divisor.GROUNDTRUTH else p
        ab += abs(e) / d
        sr += e * e / d
        ratio = max(p / g, g / p)
        for i, t in enumerate(THRESHOLDS):
            if ratio < t:
                hits[i] += 1
        n += 1
    if n == 0:
        raise ValueError("evaluation mask selects no pixels")
    return MetricsReport(rmse=(sq / n) ** 0.5, ard=ab / n, srd=sr / n,
                         delta1=hits[0] / n, delta2=hits[1] / n,
                         delta3=hits[2] / n, n_pixels=n,
                         divisor_convention=divisor.value)


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Per-image average of metric reports (each image weighted equally)."""
    if not reports:
        raise ValueError("no reports to aggregate")
    return MetricsReport(
        rmse=float(np.mean([r.rmse for r in reports])),
        ard=float(np.mean([r.ard for r in reports])),
        srd=float(np.mean([r.srd for r in reports])),
        delta1=float(np.mean([r.delta1 for r in reports])),
        delta2=float(np.mean([r.delta2 for r in reports])),
        delta3=float(np.mean([r.delta3 for r in reports])),
        n_pixels=int(sum(r.n_pixels for r in reports)),
        divisor_convention=reports[0].divisor_convention)


def write_reports(reports: dict[str, MetricsReport], jsonl_path, csv_path):
    """Emit one JSON-lines record per sample and a CSV summary."""
    with open(jsonl_path, "w", encoding="utf-8") as f:
        for sample_id, rep in reports.items():
            rec = {"sample_id": sample_id}
            rec.update(rep.as_dict())
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "rmse", "ard", "srd", "d1", "d2", "d3"])
        for sample_id, rep in reports.items():
            writer.writerow([sample_id, repr(rep.rmse), repr(rep.ard),
                             repr(rep.srd), repr(rep.delta1), repr(rep.delta2),
                             repr(rep.delta3)])
