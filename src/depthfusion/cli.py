"""Command-line surface: dataset generation, training, prediction,
evaluation, point-cloud projection, densification, gradient checks and the
registered experiments.

Exit codes: 0 success, 1 validation error (a missing or unreadable input
included), 2 runtime failure. Errors go to stderr as one JSON object per
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import data as D
from . import experiments as E
from . import geometry as G
from . import metrics as M
from .densify import DensifyConfig, densify
from .gradcheck import run_suite
from .losses import LossWeights, PixelLossKind
from .model import FusionMode, ModelConfig, load_checkpoint
from .trainer import TrainConfig, train

# fixed, documented colormap for depth visualizations (non-metric): near =
# warm, far = cold, linear in normalized depth
_VIS_STOPS = np.array([[1.0, 0.2, 0.1], [1.0, 0.9, 0.2],
                       [0.2, 0.9, 0.4], [0.15, 0.3, 1.0]])


class ValidationError(ValueError):
    pass


def _fail(stream_code, message):
    sys.stderr.write(json.dumps({"error": message, "code": stream_code}) + "\n")
    return stream_code


def depth_colormap(depth, d_min, d_max):
    t = np.clip((depth - d_min) / max(d_max - d_min, 1e-9), 0.0, 1.0)
    x = t * (len(_VIS_STOPS) - 1)
    i = np.clip(x.astype(int), 0, len(_VIS_STOPS) - 2)
    f = (x - i)[..., None]
    return _VIS_STOPS[i] * (1 - f) + _VIS_STOPS[i + 1] * f


def _parse_weather_mix(text):
    """{name: fraction} from ``name:fraction,...``; a fraction is a finite
    number >= 0 and a name appears once."""
    mix = {}
    for part in text.split(","):
        name, sep, frac = part.partition(":")
        name = name.strip()
        try:
            value = float(frac)
        except ValueError:
            value = math.nan
        if not sep or not 0 <= value < math.inf:
            raise ValidationError(f"--weather-mix: bad entry {part!r}; expected "
                                  "name:fraction, a finite fraction >= 0")
        if name in mix:
            raise ValidationError(f"--weather-mix: {name!r} is repeated in entry {part!r}")
        mix[name] = value
    return mix


# every key a train config file may set, by the dataclass whose field of
# that name it sets (model_seed sets ModelConfig.seed), with how its value
# is read
_TRAIN_KEYS = {
    TrainConfig: {"epochs": int, "batch_size": int, "lr0": float,
                  "lr_decay_factor": float, "lr_decay_every": int,
                  "loss_kind": PixelLossKind, "augment": bool,
                  "shuffle_seed": int, "augment_seed": int},
    LossWeights: {"w_ssim": float, "w_edge": float, "w_pixel": float},
    ModelConfig: {"input_height": int, "input_width": int,
                  "base_channels": int, "encoder_stages": int,
                  "fusion_mode": FusionMode, "leaky_alpha": float,
                  "d_min": float, "d_max": float, "model_seed": int},
}
# each train flag, with the config keys it overrides
_TRAIN_FLAGS = {"epochs": ("epochs",), "batch_size": ("batch_size",),
                "lr0": ("lr0",), "loss": ("loss_kind",),
                "fusion": ("fusion_mode",), "width": ("input_width",),
                "height": ("input_height",),
                "seed": ("shuffle_seed", "model_seed")}


def _given(args, names):
    """{name: value} of the flags among ``names`` that were given."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args):
    mix = _parse_weather_mix(args.weather_mix)
    spec = D.SceneSpec(**_given(args, ("width", "height", "radar_returns")))
    ids = D.generate_dataset(args.out, args.count, mix, args.seed, spec=spec)
    print(f"wrote {len(ids)} samples to {args.out}")
    return 0


def _train_configs(args):
    """TrainConfig and ModelConfig from the ``--config`` file's keys and the
    flags, a flag over the key it overrides, and the ModelConfig fields
    that were set. Only the keys that are set are passed, so every other
    field keeps its dataclass default."""
    schema = {k: kind for keys in _TRAIN_KEYS.values() for k, kind in keys.items()}
    values = (G.read_key_values(args.config, schema, required=False)
              if args.config else {})
    for flag, value in _given(args, _TRAIN_FLAGS).items():
        values.update(dict.fromkeys(_TRAIN_FLAGS[flag], value))

    def given(cls):
        return {{"model_seed": "seed"}.get(k, k): values[k]
                for k in _TRAIN_KEYS[cls] if k in values}

    model_values = given(ModelConfig)
    try:
        return (TrainConfig(**given(TrainConfig),
                            loss_weights=LossWeights(**given(LossWeights))),
                ModelConfig(**model_values), tuple(model_values))
    except ValueError as exc:
        if args.config is None:
            raise
        raise ValidationError(f"{args.config}: bad config: {exc}") from None


def cmd_train(args):
    tcfg, mcfg, model_keys = _train_configs(args)
    model, log = train(tcfg, mcfg, args.train_dir, val_dir=args.val_dir,
                       out_dir=args.out, resume=args.resume,
                       log_fn=lambda rec: print(json.dumps(rec, sort_keys=True)),
                       model_keys=model_keys)
    print(f"finished {len(log)} epochs; checkpoints in {args.out}")
    return 0


def cmd_predict(args):
    model = load_checkpoint(args.checkpoint)[0]  # the Adam moments are freed at once
    rgb = D.load_ppm(args.rgb)
    M.check_size(model, args.rgb, rgb)
    sparse = D.load_depth_pgm(args.sparse) if args.sparse else None
    mode = model.config.fusion_mode
    if mode is FusionMode.RGB_ONLY and sparse is not None:
        sys.stderr.write(json.dumps(
            {"warning": "checkpoint is RGB-only; sparse input ignored"}) + "\n")
        sparse = None
    if mode is not FusionMode.RGB_ONLY and sparse is None:
        raise ValidationError(
            f"checkpoint fusion mode {mode.value!r} requires --sparse")
    if sparse is not None:
        M.check_size(model, args.sparse, sparse)
    depth = model.predict_depth(rgb, sparse)
    D.save_depth_pgm(depth, args.out)
    if args.vis:
        D.save_ppm(depth_colormap(depth, model.config.d_min,
                                  model.config.d_max), args.vis)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)[0]  # the Adam moments are freed at once
    divisor = (M.Divisor.GROUNDTRUTH if args.ard_divisor == "gt"
               else M.Divisor.PREDICTION)
    ids, missing, frames = M.split_frames(model, args.split_dir)
    if not ids + missing:
        raise ValidationError(f"split directory {args.split_dir} is empty")
    for sample_id in missing:
        sys.stderr.write(json.dumps(
            {"warning": f"sample {sample_id} has no groundtruth; skipped"}) + "\n")
    reports = dict(zip(ids, M.evaluate(model, frames, divisor)))
    if not reports:
        raise ValidationError("no evaluable samples in split")
    agg = M.mean_report(list(reports.values()))
    os.makedirs(args.out, exist_ok=True)
    M.write_reports(reports, os.path.join(args.out, "per_sample.jsonl"),
                    os.path.join(args.out, "summary.csv"))
    summary = agg.as_dict()
    summary["skipped_samples"] = len(missing)
    with open(os.path.join(args.out, "aggregate.json"), "w",
              encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_project(args):
    cloud = G.load_cloud_csv(args.cloud)
    intr, pose = G.load_calibration(args.calibration)
    sparse = G.project_points(cloud, pose, intr)
    D.save_depth_pgm(sparse, args.out)
    print(f"projected {len(cloud)} points -> {int((sparse > 0).sum())} pixels")
    return 0


def cmd_densify(args):
    sparse = D.load_depth_pgm(args.sparse)
    guide = D.load_ppm(args.guide)
    cfg = DensifyConfig(**_given(args, ("tolerance", "max_iterations")))
    result = densify(sparse, guide, cfg)
    D.save_depth_pgm(result.depth, args.out)
    status = "converged" if result.converged else "NOT converged"
    print(f"{status} after {result.iterations} iterations "
          f"(residual {result.residual:.2e})")
    return 0 if result.converged else 2


def cmd_gradcheck(args):
    records = run_suite(n_seeds=args.seeds)
    failed = [r for r in records if not r["passed"]]
    for r in records:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['op']:24s} "
              f"max_rel_err={r['max_relative_error']:.3e}")
    print(f"{len(records) - len(failed)}/{len(records)} ops passed")
    return 0 if not failed else 2


def cmd_repro(args):
    report = E.run_experiment(args.name, args.out, seed=args.seed)
    ok = all(a["passed"] for a in report["assertions"])
    print(open(os.path.join(args.out, "report.txt"), encoding="utf-8").read(),
          end="")
    return 0 if ok else 2


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="depthfusion",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--weather-mix", default="day:1.0")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--width", type=int)
    g.add_argument("--height", type=int)
    g.add_argument("--radar-returns", type=int)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--train-dir", required=True)
    t.add_argument("--val-dir")
    t.add_argument("--out", default="runs/run")
    t.add_argument("--config", help="key=value config file; flags override")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr0", type=float)
    t.add_argument("--loss", choices=[k.value for k in PixelLossKind])
    t.add_argument("--fusion", choices=[m.value for m in FusionMode])
    t.add_argument("--width", type=int)
    t.add_argument("--height", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.set_defaults(fn=cmd_train)

    pr = sub.add_parser("predict", help="predict depth for one image")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--rgb", required=True)
    pr.add_argument("--sparse")
    pr.add_argument("--out", required=True)
    pr.add_argument("--vis", help="optional color-mapped PPM (non-metric)")
    pr.set_defaults(fn=cmd_predict)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split-dir", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--ard-divisor", choices=["gt", "pred"], default="gt")
    ev.set_defaults(fn=cmd_eval)

    pj = sub.add_parser("project", help="rasterize a point cloud to sparse depth")
    pj.add_argument("--cloud", required=True)
    pj.add_argument("--calibration", required=True)
    pj.add_argument("--out", required=True)
    pj.set_defaults(fn=cmd_project)

    dn = sub.add_parser("densify", help="fill a sparse raster guided by RGB")
    dn.add_argument("--sparse", required=True)
    dn.add_argument("--guide", required=True)
    dn.add_argument("--out", required=True)
    dn.add_argument("--tolerance", type=float)
    dn.add_argument("--max-iterations", type=int)
    dn.set_defaults(fn=cmd_densify)

    gc = sub.add_parser("gradcheck", help="finite-difference check of all ops")
    gc.add_argument("--seeds", type=int, default=10)
    gc.set_defaults(fn=cmd_gradcheck)

    rp = sub.add_parser("repro", help="run a registered experiment")
    rp.add_argument("name", choices=sorted(E.EXPERIMENTS))
    rp.add_argument("--out", required=True)
    rp.add_argument("--seed", type=int, default=0)
    rp.set_defaults(fn=cmd_repro)
    return p


# the arguments that name input files and input directories
_INPUT_FILES = ("checkpoint", "rgb", "sparse", "guide", "cloud", "calibration",
                "config", "resume")
_INPUT_DIRS = ("train_dir", "val_dir", "split_dir")


def _check_inputs(args):
    """A missing or unreadable input is a ValidationError naming its path."""
    for name in _INPUT_FILES + _INPUT_DIRS:
        path = getattr(args, name, None)
        if path is None:
            continue
        try:
            if name in _INPUT_DIRS:
                os.listdir(path)
            else:
                open(path, "rb").close()
        except OSError as exc:
            raise ValidationError(f"{path}: cannot read: {exc.strerror}") from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_inputs(args)
        return args.fn(args)
    except (ValidationError, ValueError) as exc:
        return _fail(1, str(exc))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        return _fail(2, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
