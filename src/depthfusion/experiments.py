"""Desk-scale reproduction experiments.

Each registered experiment runs end to end (generate data, train, evaluate),
checks its assertions, and writes a machine-readable report plus a text
summary. Timings are reported but never asserted.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

from . import data as D
from . import metrics as M
from .losses import PixelLossKind
from .model import FusionMode, ModelConfig, build_model, save_checkpoint
from .trainer import OptimState, TrainConfig, train, train_step, validate


def _write_report(report: dict, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    lines = [f"experiment: {report['name']}"]
    for a in report["assertions"]:
        lines.append(f"  [{'PASS' if a['passed'] else 'FAIL'}] {a['name']}: "
                     f"{a['detail']}")
    lines.append(f"  elapsed: {report['elapsed_seconds']:.1f}s")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(text)
    return text


def run_overfit4(out_dir, seed=0):
    """Drive the training loss down on 4 fixed samples: 500 Adam steps at a
    constant 1e-4, alternating two 2-sample batches (the default batch size),
    must cut the composite L1 loss by >= 90% and reach delta1 >= 0.95 in
    metric depth on those samples."""
    t0 = time.time()
    spec = D.SceneSpec(weather="day")
    samples = [D.generate_sample(spec, seed * 1000 + i) for i in range(4)]
    cfg = ModelConfig(seed=seed)
    model = build_model(cfg)
    tcfg = TrainConfig(epochs=1, batch_size=2, lr0=1e-4, augment=False)
    state = OptimState(lr=1e-4)
    losses = []
    for i in range(500):
        batch = samples[0:2] if i % 2 == 0 else samples[2:4]
        losses.append(train_step(model, batch, tcfg, state))
    # average adjacent steps so initial/final each cover all four samples
    initial = float(np.mean(losses[:2]))
    final = float(np.mean(losses[-2:]))

    delta1 = float(np.mean([r.delta1 for r in M.evaluate(model, samples)]))

    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "overfit4.ckpt"), model,
                    extra={"epoch": 1, "lr": state.lr, "adam_t": state.t})
    with open(os.path.join(out_dir, "log.jsonl"), "w", encoding="utf-8") as f:
        for i, v in enumerate(losses, start=1):
            f.write(json.dumps({"step": i, "loss": v}) + "\n")

    report = {
        "name": "overfit4",
        "seed": seed,
        "initial_loss": initial,
        "final_loss": final,
        "loss_ratio": final / initial,
        "delta1": delta1,
        "assertions": [
            {"name": "loss reduced by >= 90%", "passed": final <= 0.1 * initial,
             "detail": f"final/initial = {final / initial:.4f}"},
            {"name": "delta1 >= 0.95 on training samples",
             "passed": delta1 >= 0.95, "detail": f"delta1 = {delta1:.4f}"},
        ],
        "elapsed_seconds": time.time() - t0,
    }
    _write_report(report, out_dir)
    return report


# reduced resolution keeps two 10-epoch runs on one core in minutes while
# leaving the fog-vs-radar signal intact
FOG_SCENE = D.SceneSpec(width=64, height=32)


def run_fusion_vs_rgb_fog(out_dir, seed=0):
    """Train matched models on an all-fog split, with and without the sparse
    radar channel; the fused model must not lose on held-out RMSE."""
    t0 = time.time()
    os.makedirs(out_dir, exist_ok=True)
    train_dir = os.path.join(out_dir, "data", "train")
    val_dir = os.path.join(out_dir, "data", "val")
    if not (os.path.isdir(train_dir) and D.list_sample_ids(train_dir)):
        D.generate_dataset(train_dir, 192, {"fog": 1.0}, seed,
                           spec=replace(FOG_SCENE, weather="fog"))
        D.generate_dataset(val_dir, 64, {"fog": 1.0}, seed + 10_000,
                           spec=replace(FOG_SCENE, weather="fog"))

    tcfg = TrainConfig(epochs=10, batch_size=2, lr0=1e-4,
                       loss_kind=PixelLossKind.L1, augment=False,
                       shuffle_seed=seed)
    results = {}
    for mode in (FusionMode.CONCAT_TRUNCATE, FusionMode.RGB_ONLY):
        mcfg = ModelConfig(input_height=FOG_SCENE.height,
                           input_width=FOG_SCENE.width, base_channels=8,
                           fusion_mode=mode, seed=seed)
        model, _ = train(tcfg, mcfg, train_dir,
                         out_dir=os.path.join(out_dir, mode.value))
        results[mode.value] = validate(model, val_dir).as_dict()

    rmse_fusion = results["concat"]["rmse"]
    rmse_rgb = results["rgb"]["rmse"]
    margin = (rmse_rgb - rmse_fusion) / rmse_rgb
    report = {
        "name": "fusion-vs-rgb-fog",
        "seed": seed,
        "val_metrics": results,
        "rmse_fusion": rmse_fusion,
        "rmse_rgb": rmse_rgb,
        "margin": margin,
        "assertions": [
            {"name": "RMSE(fusion) <= RMSE(rgb) on held-out fog",
             "passed": rmse_fusion <= rmse_rgb,
             "detail": f"fusion {rmse_fusion:.4f} vs rgb {rmse_rgb:.4f} "
                       f"(margin {margin:.2%})"},
        ],
        "elapsed_seconds": time.time() - t0,
    }
    _write_report(report, out_dir)
    return report


EXPERIMENTS = {
    "overfit4": run_overfit4,
    "fusion-vs-rgb-fog": run_fusion_vs_rgb_fog,
}


def run_experiment(name, out_dir, seed=0):
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"registered: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](out_dir, seed=seed)

