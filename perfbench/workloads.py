"""The three workloads: set-up, a timed closed loop, and output checks.

Each workload is one caller that waits for every result before it issues
the next operation. Set-up runs ``SETUPS`` times and the median counts;
the timed phase repeats whole rounds of the same operations until the
requested seconds have passed; the checks run after timing stops.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from tracing import PER_LAYER, Patcher, Tracer, program_module

WEATHER_MIX = {w: 1.0 for w in ("day", "night", "fog", "rain", "cloudy")}
SETUPS = 3
VAL_SEED_OFFSET = 7919
# densify inputs do not depend on --seed: every frame fails today (the
# solver stops at max_iterations), and the failed share must not vary by seed
DENSIFY_POOL = ((101, "day"), (102, "fog"))
FIXED_BATCH_STEPS = 3
GRAD_WEIGHTS = ("head.bias", "head.kernel", "fuse.kernel", "enc1.conv.kernel",
                "dec1.conv1.kernel")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sizes:
    height: int = 96
    width: int = 160
    base_channels: int = 16
    train_samples: int = 8
    val_samples: int = 2
    epochs: int = 2
    eval_frames: int = 8
    batch_check_frames: int = 4
    densify_frames: int = 2
    grad_coords: int = 5


FULL = Sizes()
# every code path of FULL at a size that runs in seconds (self-test only)
TINY = Sizes(height=16, width=32, base_channels=4, train_samples=4,
             val_samples=1, epochs=1, eval_frames=2, batch_check_frames=2,
             densify_frames=1, grad_coords=2)


class Run:
    """One workload run: instrumentation, phase, operation timings."""

    def __init__(self, trace: bool):
        self.patcher = Patcher()
        self.tracer = Tracer() if trace else None
        if self.tracer:
            self.tracer.install(self.patcher)
        self.timing = False
        self.op_times = []
        self.items = 0
        self.failed = 0
        self.setup_times = []
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0
        self.densify_results = []

    def phase(self, name):
        if self.tracer:
            self.tracer.phase = name

    def setup(self, make, work):
        """Run ``make(dir)`` SETUPS times into fresh directories; keep the last."""
        self.phase("setup")
        result = None
        for i in range(SETUPS):
            t = time.perf_counter()
            result = make(os.path.join(work, f"setup{i}"))
            self.setup_times.append(time.perf_counter() - t)
        return result

    def timed(self, seconds, one_round):
        """Repeat whole rounds until ``seconds`` of rounds have run.

        Garbage left by one round is collected before the next, off the
        clock, so that when Python's cycle collector runs does not depend
        on how many rounds fit in the run: the program leaves im2col
        buffers in reference cycles (see README.md), and without this the
        eval peak memory grew from 745 MB at 19 rounds to 1129 MB at 26."""
        gc.collect()
        self.phase("timed")
        self.timing = True
        while True:
            t0 = time.perf_counter()
            one_round()
            self.elapsed += time.perf_counter() - t0
            if self.elapsed >= seconds:
                break
            gc.collect()
        self.timing = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.phase("check")
        self.patcher.restore()

    def record(self, seconds, items=1):
        if self.timing:
            self.op_times.append(seconds)
            self.items += items


def scene(sizes):
    return program_module("data").SceneSpec(width=sizes.width, height=sizes.height)


def model_config(sizes, seed):
    return program_module("model").ModelConfig(
        input_height=sizes.height, input_width=sizes.width,
        base_channels=sizes.base_channels, fusion_mode="concat", seed=seed)


@contextlib.contextmanager
def no_grad(model):
    """Forward passes that build no backward graph (frees buffers at once)."""
    for p in model.params.values():
        p.requires_grad = False
    try:
        yield
    finally:
        for p in model.params.values():
            p.requires_grad = True


def batch_loss(model, samples, tcfg):
    TR = program_module("trainer")
    losses = program_module("losses")
    rgb, sparse, target = TR.batch_to_tensors(samples, model)
    return losses.loss_total(model.predict(rgb, sparse), target,
                             tcfg.loss_weights, tcfg.loss_kind)


# ---------------------------------------------------------------------------
# train


def run_train(run, seed, seconds, sizes, work):
    D = program_module("data")
    TR = program_module("trainer")
    MD = program_module("model")
    mcfg = model_config(sizes, seed)
    tcfg = TR.TrainConfig(epochs=sizes.epochs, batch_size=2, augment=True,
                          shuffle_seed=seed, augment_seed=seed + 1)

    def timed_step(fn):
        def step(model, samples, *args, **kwargs):
            t = time.perf_counter()
            out = fn(model, samples, *args, **kwargs)
            run.record(time.perf_counter() - t, len(samples))
            return out
        return step

    run.patcher.wrap(TR, "train_step", timed_step)

    def setup(d):
        train_dir = os.path.join(d, "train")
        val_dir = os.path.join(d, "val")
        D.generate_dataset(train_dir, sizes.train_samples, WEATHER_MIX, seed,
                           spec=scene(sizes))
        D.generate_dataset(val_dir, sizes.val_samples, WEATHER_MIX,
                           seed + VAL_SEED_OFFSET, spec=scene(sizes))
        batch = [D.load_sample(train_dir, i) for i in D.list_sample_ids(train_dir)[:2]]
        TR.train_step(MD.build_model(mcfg), batch, tcfg, TR.OptimState())
        return train_dir, val_dir

    train_dir, val_dir = run.setup(setup, work)
    outs = []

    def one_round():
        outs.append(os.path.join(work, f"round{len(outs)}"))
        TR.train(tcfg, mcfg, train_dir, val_dir=val_dir, out_dir=outs[-1])

    run.timed(seconds, one_round)

    errors = []
    for out in outs:
        errors += checks.check_log(os.path.join(out, "log.jsonl"), sizes.epochs)
    # the timed rounds' 8 augmented steps over mixed weathers need not
    # lower the loss on any one batch (they raised it on seeds 9 and 10),
    # so the fixed batch is trained on directly
    fixed = [D.load_sample(train_dir, i) for i in D.list_sample_ids(train_dir)[:2]]
    model = MD.build_model(mcfg)
    state = TR.OptimState(lr=tcfg.lr0)
    before = [TR.train_step(model, fixed, tcfg, state) for _ in range(FIXED_BATCH_STEPS)]
    with no_grad(model):
        after = batch_loss(model, fixed, tcfg).item()
    errors += checks.check_loss_decrease(before[0], after)
    errors += checks.check_gradients(*gradients(mcfg, fixed[:1], tcfg, seed,
                                                sizes.grad_coords))
    return errors


def gradients(mcfg, samples, tcfg, seed, n_coords, step=1e-7):
    """Backward-pass and central-difference gradients of loss_total at a
    few weight coordinates of a float64 copy of the model.

    The network has millions of leaky-ReLU and |x| kinks; a step of 1e-6
    crosses some of them (relative error 1.6e-3 seen on seed 2), 1e-7
    does not on seeds 1-10, where float64 rounding stays under 2e-4."""
    MD = program_module("model")
    T = program_module("tensor")
    model = MD.Model(mcfg, dtype=np.float64)
    rng = np.random.default_rng([seed, 1])
    coords = []
    for name in GRAD_WEIGHTS[:n_coords]:
        shape = model.params[name].shape
        coords.append((name, tuple(int(rng.integers(0, s)) for s in shape)))
    T.backward(batch_loss(model, samples, tcfg))
    analytic = {f"{n}{list(i)}": float(model.params[n].grad[i]) for n, i in coords}
    numeric = {}
    with no_grad(model):
        for name, idx in coords:
            data = model.params[name].data
            orig = data[idx]
            data[idx] = orig + step
            hi = batch_loss(model, samples, tcfg).item()
            data[idx] = orig - step
            lo = batch_loss(model, samples, tcfg).item()
            data[idx] = orig
            numeric[f"{name}{list(idx)}"] = (hi - lo) / (2.0 * step)
    return analytic, numeric


# ---------------------------------------------------------------------------
# eval


def save_trained_checkpoint(path, mcfg, seed):
    """A checkpoint laid out as the trainer writes it (weights, state and
    Adam moments) after one Adam step on random gradients. No forward or
    backward pass runs, so the eval workload's peak memory is its own."""
    TR = program_module("trainer")
    MD = program_module("model")
    model = MD.build_model(mcfg)
    rng = np.random.default_rng([seed, 2])
    state = TR.OptimState()
    grads = {k: rng.normal(0.0, 1e-3, p.shape).astype(np.float32)
             for k, p in model.params.items()}
    TR.adam_step(model.params, grads, state)
    moments = {f"adam.{kind}.{k}": v for kind, table in (("m", state.m), ("v", state.v))
               for k, v in table.items()}
    MD.save_checkpoint(path, model, extra={"epoch": 1, "lr": state.lr,
                                           "adam_t": state.t}, moments=moments)


def run_eval(run, seed, seconds, sizes, work):
    D = program_module("data")
    MD = program_module("model")
    cli = program_module("cli")
    mcfg = model_config(sizes, seed)
    frame = {"start": None}
    predicted = []

    def frame_start(fn):
        def load(*args, **kwargs):
            if run.timing and frame["start"] is None:
                frame["start"] = time.perf_counter()
            return fn(*args, **kwargs)
        return load

    def frame_scored(fn):
        def score(*args, **kwargs):
            out = fn(*args, **kwargs)
            if frame["start"] is not None:
                run.record(time.perf_counter() - frame["start"])
                frame["start"] = None
            return out
        return score

    def capture(fn):
        def predict_depth(model, *args, **kwargs):
            depth = fn(model, *args, **kwargs)
            predicted.append(depth)
            return depth
        return predict_depth

    run.patcher.wrap(D, "load_sample", frame_start)
    run.patcher.wrap(program_module("metrics"), "compute_metrics", frame_scored)
    run.patcher.wrap(MD, "Model.predict_depth", capture)

    def eval_once(ckpt, split, out):
        predicted.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eval", "--checkpoint", ckpt, "--split-dir", split,
                           "--out", out])
        if rc != 0:
            raise RuntimeError(f"depthfusion eval exited with {rc}")

    def setup(d):
        split = os.path.join(d, "split")
        D.generate_dataset(split, sizes.eval_frames, WEATHER_MIX, seed,
                           spec=scene(sizes))
        ckpt = os.path.join(d, "model.ckpt")
        save_trained_checkpoint(ckpt, mcfg, seed)
        eval_once(ckpt, split, os.path.join(d, "warmup"))
        return ckpt, split

    ckpt, split = run.setup(setup, work)
    out = os.path.join(work, "eval")
    run.timed(seconds, lambda: eval_once(ckpt, split, out))

    ids = sorted(f[:-len("_meta.txt")] for f in os.listdir(split)
                 if f.endswith("_meta.txt"))
    gts = [checks.read_depth_pgm(os.path.join(split, f"{i}_gt.pgm")) for i in ids]
    with open(os.path.join(out, "per_sample.jsonl"), encoding="utf-8") as f:
        per_sample = [json.loads(line) for line in f if line.strip()]
    with open(os.path.join(out, "aggregate.json"), encoding="utf-8") as f:
        aggregate = json.load(f)
    errors = checks.check_eval(ids, predicted, gts, per_sample, aggregate,
                               mcfg.d_min, mcfg.d_max)

    model, _, _ = MD.load_checkpoint(ckpt)
    frames = [D.load_sample(split, i) for i in ids[:sizes.batch_check_frames]]
    batch = model.predict_depth(np.stack([f.rgb.transpose(2, 0, 1) for f in frames]),
                                np.stack([f.sparse[None] for f in frames]))
    errors += checks.check_batch(list(batch), predicted[:len(frames)])
    return errors


# ---------------------------------------------------------------------------
# densify


def run_densify(run, seed, seconds, sizes, work):
    D = program_module("data")
    DZ = program_module("densify")
    pool = DENSIFY_POOL[:sizes.densify_frames]

    def setup(d):
        frames = [D.generate_sample(replace(scene(sizes), weather=w), s)
                  for s, w in pool]
        DZ.densify(frames[0].sparse, frames[0].rgb, DZ.DensifyConfig(max_iterations=5))
        return frames

    frames = run.setup(setup, work)
    done = []

    def one_round():
        for f in frames:
            t = time.perf_counter()
            result = DZ.densify(f.sparse, f.rgb, DZ.DensifyConfig())
            run.record(time.perf_counter() - t)
            done.append((f, result))

    run.timed(seconds, one_round)
    run.densify_results = [r for _, r in done]

    cfg = DZ.DensifyConfig()
    errors = []
    for f, result in done:
        errors += checks.check_densify(f.sparse, f.rgb, result, cfg.tolerance,
                                       cfg.sigma_min)
        run.failed += not result.converged
    return errors


WORKLOADS = {"train": run_train, "eval": run_eval, "densify": run_densify}


def run_workload(name, seed, seconds, trace, work, sizes=FULL):
    """Returns (result dict for the last output line, errors, tracer)."""
    run = Run(trace)
    try:
        errors = WORKLOADS[name](run, seed, seconds, sizes, work)
    finally:
        run.patcher.restore()
    ops = len(run.op_times)
    if trace:
        values = run.tracer.summarize(ops, SETUPS, run.densify_results)
        values["trace.op_s_p50"] = statistics.median(run.op_times)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(run.setup_times),
            "items_per_s": run.items / run.elapsed,
            "op_s_p50": statistics.median(run.op_times),
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": not errors, "attempted": ops, "failed": run.failed,
              "metrics": metrics}
    return result, errors, run.tracer
