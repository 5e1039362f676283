"""Correctness checks made apart from the program.

Each check returns a list of error strings; an empty list means the output
passed. The formulas here are written from the documented definitions
(file formats, metric definitions, the affinity system) and do not call
the package's own implementations of them.
"""

from __future__ import annotations

import json
import math

import numpy as np

GRAY = (0.299, 0.587, 0.114)
DELTA1 = 1.25


def read_depth_pgm(path):
    """16-bit binary PGM (P5, maxval 65535, big-endian) to meters (/256)."""
    with open(path, "rb") as f:
        raw = f.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5" or tokens[3] != b"65535":
        raise ValueError(f"{path}: not a 16-bit P5 PGM")
    w, h = int(tokens[1]), int(tokens[2])
    body = np.frombuffer(raw, dtype=">u2", count=w * h, offset=pos + 1)
    return body.reshape(h, w).astype(np.float64) / 256.0


def depth_metrics(pred, gt):
    """RMSE, ARD (groundtruth divisor) and delta1 over all pixels."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=np.float64).ravel()
    e = p - g
    rmse = math.sqrt(float(np.dot(e, e)) / e.size)
    ard = float(np.sum(np.abs(e) / g)) / e.size
    d1 = int(np.count_nonzero(np.maximum(p / g, g / p) < DELTA1)) / e.size
    return {"rmse": rmse, "ard": ard, "delta1": d1}


def _close(a, b, rtol=1e-9, atol=1e-12):
    return abs(a - b) <= atol + rtol * abs(b)


def check_eval(ids, depths, gts, per_sample, aggregate, d_min, d_max):
    """Predicted depths against the eval reports.

    ``depths`` are the frames the program predicted, in evaluation order;
    ``gts`` the groundtruth decoded here; ``per_sample`` the parsed lines
    of per_sample.jsonl and ``aggregate`` the parsed aggregate.json.
    """
    errors = []
    if len(depths) != len(ids) or len(per_sample) != len(ids):
        return [f"eval: {len(ids)} frames, {len(depths)} predictions, "
                f"{len(per_sample)} report lines"]
    mine = []
    for sid, depth, gt, rec in zip(ids, depths, gts, per_sample):
        if rec.get("sample_id") != sid:
            errors.append(f"eval: report line {rec.get('sample_id')!r} where "
                          f"{sid!r} was expected")
        if not np.all(np.isfinite(depth)) or depth.min() < d_min or depth.max() > d_max:
            errors.append(f"eval {sid}: depth outside [{d_min}, {d_max}]: "
                          f"{depth.min()}..{depth.max()}")
            continue
        m = depth_metrics(depth, np.clip(gt, d_min, d_max))
        mine.append(m)
        for key in ("rmse", "ard", "delta1"):
            if not _close(rec.get(key, math.nan), m[key]):
                errors.append(f"eval {sid}: {key} reported {rec.get(key)} "
                              f"recomputed {m[key]}")
    if mine and len(mine) == len(ids):
        for key in ("rmse", "ard", "delta1"):
            mean = sum(m[key] for m in mine) / len(mine)
            if not _close(aggregate.get(key, math.nan), mean):
                errors.append(f"eval aggregate: {key} reported "
                              f"{aggregate.get(key)} recomputed {mean}")
    if aggregate.get("skipped_samples") != 0:
        errors.append(f"eval aggregate: skipped_samples = "
                      f"{aggregate.get('skipped_samples')}")
    return errors


def check_batch(batch_depths, single_depths, rtol=1e-5):
    """A batch forward must give the frames' one-at-a-time depths."""
    errors = []
    for i, (b, s) in enumerate(zip(batch_depths, single_depths)):
        if b.shape != s.shape or not np.allclose(b, s, rtol=rtol, atol=0.0):
            diff = float(np.max(np.abs(b - s) / s)) if b.shape == s.shape else math.inf
            errors.append(f"eval: frame {i} predicted in a batch differs from "
                          f"the single-frame prediction (max rel {diff:.3g})")
    if len(batch_depths) != len(single_depths):
        errors.append("eval: batch and single predictions differ in count")
    return errors


def gray(rgb):
    rgb = np.asarray(rgb, dtype=np.float64)
    return GRAY[0] * rgb[..., 0] + GRAY[1] * rgb[..., 1] + GRAY[2] * rgb[..., 2]


def _neighbors(img):
    """(8, H, W) stack of the 8-connected neighbor values (NaN off-image)."""
    h, w = img.shape
    pad = np.full((h + 2, w + 2), np.nan)
    pad[1:-1, 1:-1] = img
    return np.stack([pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
                     for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                     if (dy, dx) != (0, 0)])


def affinity_residual(sparse, rgb, depth, sigma_min):
    """Relative residual ||f - Wf|| / ||W v|| over unmeasured pixels.

    W holds w_pq = exp(-(I_p - I_q)^2 / (2 sigma_p^2)) over in-image
    8-neighbors, normalized per pixel; sigma_p is the population standard
    deviation of the gray guide over p's in-image 3x3 window, floored at
    sigma_min; v is the measured raster with 0 elsewhere.
    """
    g = gray(rgb)
    nb = _neighbors(g)
    window = np.concatenate([nb, g[None]])
    inside = ~np.isnan(window)
    count = inside.sum(axis=0)
    mean = np.nansum(window, axis=0) / count
    var = np.maximum(np.nansum(window * window, axis=0) / count - mean * mean, 0.0)
    sigma = np.maximum(np.sqrt(var), sigma_min)
    wts = np.exp(-(g[None] - nb) ** 2 / (2.0 * sigma[None] ** 2))
    wts = np.where(np.isnan(nb), 0.0, wts)
    wts /= wts.sum(axis=0)
    unknown = sparse <= 0
    wf = np.sum(wts * np.nan_to_num(_neighbors(depth)), axis=0)
    wv = np.sum(wts * np.nan_to_num(_neighbors(np.where(unknown, 0.0, sparse))), axis=0)
    r = (depth - wf)[unknown]
    return float(np.linalg.norm(r) / max(np.linalg.norm(wv[unknown]), 1e-300))


def check_densify(sparse, rgb, result, tolerance, sigma_min):
    """Fidelity, the maximum principle, and, for a frame reported as
    converged, the recomputed residual. Non-convergence is not an error
    here; the caller counts it as a failed operation."""
    errors = []
    known = sparse > 0
    depth = result.depth
    if depth.shape != sparse.shape or not np.all(np.isfinite(depth)):
        return [f"densify: output shape {depth.shape} or non-finite values"]
    if not np.array_equal(depth[known], sparse[known]):
        errors.append("densify: measured pixels not returned exactly")
    lo, hi = sparse[known].min(), sparse[known].max()
    if depth.min() < lo - 1e-9 or depth.max() > hi + 1e-9:
        errors.append(f"densify: output {depth.min()}..{depth.max()} leaves the "
                      f"measured range {lo}..{hi}")
    if result.converged:
        res = affinity_residual(sparse, rgb, depth, sigma_min)
        if not res <= tolerance * (1.0 + 1e-6):
            errors.append(f"densify: reported converged, recomputed residual "
                          f"{res:.3g} > tolerance {tolerance:.3g}")
    return errors


def check_gradients(analytic, numeric, tol=1e-3):
    """``analytic``/``numeric``: {coordinate label: value}. Relative error
    |a - n| / (|a| + |n| + 1e-6), the gradcheck convention; a wrong
    gradient reads near 1."""
    errors = []
    for key, a in analytic.items():
        n = numeric[key]
        err = abs(a - n) / (abs(a) + abs(n) + 1e-6)
        if not err <= tol:
            errors.append(f"train: gradient of {key}: backward {a:.9g} vs "
                          f"central difference {n:.9g} (rel err {err:.3g})")
    return errors


def check_log(path, epochs):
    """Every record of a training log is present and its losses finite."""
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    errors = []
    if [r.get("epoch") for r in records] != list(range(1, epochs + 1)):
        errors.append(f"train: {path} has epochs {[r.get('epoch') for r in records]}")
    for r in records:
        values = [r.get("train_loss")] + [v for k, v in r.get("val", {}).items()
                                           if k in ("rmse", "ard", "delta1")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            errors.append(f"train: {path} epoch {r.get('epoch')} logged a "
                          f"non-finite value: {r}")
    return errors


def check_loss_decrease(before, after):
    if not (math.isfinite(before) and math.isfinite(after) and after < before):
        return [f"train: loss on the fixed batch went {before} -> {after}"]
    return []
