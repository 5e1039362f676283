"""Adam training loop with stepped learning-rate decay, per-epoch validation
in metric depth, checkpointing and JSON-lines logging.

Everything is reproducible under fixed seeds: the batch order derives from
(seed, epoch), augmentation from (seed, epoch, batch), so resuming from a
checkpoint continues the exact trajectory of an uninterrupted run.

A train step is data-parallel across the cores of one machine: each
sample's forward, loss and backward run on their own thread with BLAS held
at one thread, and the per-sample gradients are averaged in sample order
(the scheme of Li et al., "PyTorch Distributed: Experiences on
Accelerating Data Parallel Training", VLDB 2020). So the trained weights
do not depend on the BLAS thread count or on the number of cores.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blas
from . import data as D
from . import metrics as M
from . import tensor as T
from .losses import LossWeights, PixelLossKind, berhu_threshold, loss_total
from .malloc import keep_freed_memory
from .model import (FusionMode, Model, ModelConfig, build_model,
                    encode_sparse, load_checkpoint, save_checkpoint)
from .tensor import Tensor


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class TrainingAborted(RuntimeError):
    """NaN gradients or loss; the last good checkpoint is retained."""


@dataclass
class OptimState:
    lr: float = 1e-4
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 2
    lr0: float = 1e-4
    lr_decay_factor: float = 0.2
    lr_decay_every: int = 7
    loss_kind: PixelLossKind = PixelLossKind.L1
    loss_weights: LossWeights = field(default_factory=LossWeights)
    augment: bool = True
    shuffle_seed: int = 0
    augment_seed: int = 1

    def __post_init__(self):
        if isinstance(self.loss_kind, str):
            self.loss_kind = PixelLossKind(self.loss_kind)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("lr0", "lr_decay_factor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.lr_decay_every < 1:
            raise ValueError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-constant decay: lr0 * factor^floor((epoch-1)/every), epoch 1-based."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    return cfg.lr0 * cfg.lr_decay_factor ** ((epoch - 1) // cfg.lr_decay_every)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: OptimState):
    """Bias-corrected Adam update, in place on the weight tensors."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingAborted(f"non-finite gradient for weight {name!r}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = g.astype(np.float32, copy=False)
        for table in (state.m, state.v):
            if name not in table:
                table[name] = np.zeros_like(p.data, dtype=np.float32)
        m, v = state.m[name], state.v[name]
        # m += (1 - b1)(g - m); v += (1 - b2)(g^2 - v); then
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), in place through one
        # scratch array; g belongs to the caller and is only read
        s = np.subtract(g, m)
        s *= 1.0 - b1
        m += s
        np.multiply(g, g, out=s)
        s -= v
        s *= 1.0 - b2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPSILON
        step = m / bc1
        step *= state.lr
        step /= s
        p.data -= step.astype(p.dtype, copy=False)


def batch_to_tensors(samples, model: Model):
    """Stack samples into network inputs and the reciprocal-depth target."""
    codec = model.config.codec()
    rgb = np.stack([s.rgb.transpose(2, 0, 1) for s in samples]).astype(model.dtype)
    target = np.stack([codec.encode(s.gt)[None] for s in samples]).astype(model.dtype)
    sparse = None
    if model.config.fusion_mode is not FusionMode.RGB_ONLY:
        sparse = np.stack([encode_sparse(s.sparse, codec)[None]
                           for s in samples]).astype(model.dtype)
    return (Tensor(rgb), None if sparse is None else Tensor(sparse),
            Tensor(target))


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _per_sample(n_samples: int):
    """Yields ``run(fn)``, which returns ``[fn(0), ..., fn(n_samples - 1)]``.

    With an OpenBLAS whose thread count can be set, BLAS runs on one thread
    inside the block and the calls are spread over up to
    min(n_samples, usable cores) worker threads; the caller's BLAS thread
    count is restored on the way out, after every worker has finished.
    BLAS stays at one thread with a single worker too, so that a GEMM's
    sums, and so the weights, do not depend on the number of cores.
    Without that control the calls run serially and BLAS is left alone:
    two workers on two-thread BLAS were slower than one batch graph.
    The first call also keeps freed memory in the process
    (``malloc.keep_freed_memory``), for this and every later step.
    """
    keep_freed_memory()
    control = blas.threads()
    if control is None:
        yield lambda fn: list(map(fn, range(n_samples)))
        return
    get, put = control
    before = get()
    put(1)
    try:
        with ThreadPoolExecutor(min(n_samples, _usable_cores())) as pool:
            yield lambda fn: list(pool.map(fn, range(n_samples)))
    finally:
        put(before)


def _replica(model: Model) -> Model:
    """``model`` with fresh leaf tensors over the same weight arrays, so a
    graph built on it keeps its gradients apart from other replicas'."""
    replica = copy.copy(model)
    replica.params = {name: Tensor(p.data, requires_grad=True)
                      for name, p in model.params.items()}
    return replica


def train_step(model: Model, samples, cfg: TrainConfig, state: OptimState) -> float:
    """One Adam step on the mean loss over ``samples``; returns that loss.

    Each sample builds its own graph over its own leaves (fork), the graphs
    run on worker threads (``_per_sample``), and their gradients are summed
    in sample order and scaled by 1/B (join). The SSIM, edge and pixel
    terms are means over equal-sized samples, so the mean of the
    per-sample losses is the batch loss; the Berhu threshold is taken over
    the whole batch between the forwards and the losses.
    """
    rgb, sparse, target = batch_to_tensors(samples, model)
    b = len(samples)
    replicas = [_replica(model) for _ in range(b)]
    targets = [Tensor(target.data[k:k + 1]) for k in range(b)]

    def forward(k):
        return replicas[k].predict(
            Tensor(rgb.data[k:k + 1]),
            None if sparse is None else Tensor(sparse.data[k:k + 1]))

    def loss_and_backward(k):
        loss = loss_total(preds[k], targets[k], cfg.loss_weights,
                          cfg.loss_kind, berhu_c=berhu_c)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingAborted("non-finite training loss")
        T.backward(loss)
        return value

    with _per_sample(b) as run:
        preds = run(forward)
        berhu_c = None
        if cfg.loss_kind is PixelLossKind.BERHU:
            berhu_c = max(berhu_threshold(p.data - t.data)
                          for p, t in zip(preds, targets))
        values = run(loss_and_backward)
    # np.add sums out of place: backward's leaf gradients may share memory
    grads = {name: functools.reduce(np.add, [r.params[name].grad for r in replicas])
             * (1.0 / b) for name in model.params}
    adam_step(model.params, grads, state)
    return sum(values) / b


def validate(model: Model, val_dir) -> M.MetricsReport:
    """Mean metrics over every sample of ``val_dir``."""
    samples = (D.load_sample(val_dir, i) for i in D.list_sample_ids(val_dir))
    return M.mean_report(M.evaluate(model, samples))


def _moments_as_tensors(state: OptimState):
    named = {}
    for name, arr in state.m.items():
        named[f"adam.m.{name}"] = arr
    for name, arr in state.v.items():
        named[f"adam.v.{name}"] = arr
    return named


def _restore_moments(moments: dict, state: OptimState):
    """Moves the float32 moments ``load_checkpoint`` read into ``state``."""
    for name, arr in moments.items():
        if name.startswith("adam.m."):
            state.m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            state.v[name[len("adam.v."):]] = arr


def _resume_state(path, extra):
    """(epoch, adam_t) from a resume checkpoint's state, each an int >= 0."""
    values = []
    for key in ("epoch", "adam_t"):
        value = extra.get(key)
        if type(value) is not int or value < 0:
            got = "it is missing" if key not in extra else f"got {value!r}"
            raise ValueError(f"{path}: state.{key} must be an integer >= 0; {got}")
        values.append(value)
    return values


def _check_resumed_config(path, config: ModelConfig, model_cfg: ModelConfig,
                          model_keys):
    """Each field in ``model_keys`` must be the same in ``model_cfg`` as in
    the config of the checkpoint at ``path``."""
    for key in model_keys:
        have, want = getattr(config, key), getattr(model_cfg, key)
        if have != want:
            have, want = (getattr(v, "value", v) for v in (have, want))  # enums by value
            raise ValueError(f"{path}: the checkpoint has config.{key}={have!r}, "
                             f"but {key}={want!r} was set")


def train(train_cfg: TrainConfig, model_cfg: ModelConfig, train_dir,
          val_dir=None, out_dir="runs/run", resume=None, log_fn=None,
          model_keys=()):
    """Full training run; returns (model, per-epoch log records).

    Writes ``log.jsonl`` and one checkpoint per epoch under ``out_dir``.
    ``resume`` names a checkpoint written by this function; the model then
    comes from it, and each ``ModelConfig`` field named in ``model_keys``
    (the settings the caller set) must equal the checkpoint's.
    """
    n_samples = len(D.list_sample_ids(train_dir))
    if not n_samples:
        raise ValueError(f"training directory {train_dir} is empty")
    if n_samples < train_cfg.batch_size:
        # batches are full or dropped, so there would be nothing to train on
        raise ValueError(f"training directory {train_dir} holds {n_samples} "
                         f"samples, fewer than batch_size={train_cfg.batch_size}")
    if val_dir is not None and not D.list_sample_ids(val_dir):
        raise ValueError(f"validation directory {val_dir} is empty")
    start_epoch = 1
    state = OptimState()
    if resume is not None:
        model, extra, moments = load_checkpoint(resume)
        _check_resumed_config(resume, model.config, model_cfg, model_keys)
        epoch, state.t = _resume_state(resume, extra)
        if train_cfg.epochs < epoch:
            raise ValueError(f"{resume}: the checkpoint has state.epoch={epoch}, "
                             f"past the requested epochs={train_cfg.epochs}")
        start_epoch = epoch + 1
        if epoch:  # last.ckpt's lr, should the epoch loop below not run
            state.lr = lr_schedule(epoch, train_cfg)
        _restore_moments(moments, state)
    else:
        model = build_model(model_cfg)
    os.makedirs(out_dir, exist_ok=True)
    log = []

    log_path = os.path.join(out_dir, "log.jsonl")
    mode = "a" if resume is not None else "w"
    with open(log_path, mode, encoding="utf-8") as log_file:
        for epoch in range(start_epoch, train_cfg.epochs + 1):
            state.lr = lr_schedule(epoch, train_cfg)
            losses = []
            batches = D.batch_iterator(train_dir, train_cfg.batch_size,
                                       seed=train_cfg.shuffle_seed, epoch=epoch)
            for b_idx, samples in enumerate(batches):
                if train_cfg.augment:
                    rng = np.random.default_rng(
                        [train_cfg.augment_seed, epoch, b_idx])
                    samples = [D.augment(s, rng) for s in samples]
                # on TrainingAborted the previous epoch checkpoint remains
                # on disk as the last good state
                losses.append(train_step(model, samples, train_cfg, state))
            record = {"epoch": epoch, "lr": state.lr,
                      "train_loss": float(np.mean(losses))}
            if val_dir is not None:
                record["val"] = validate(model, val_dir).as_dict()
            log.append(record)
            log_file.write(json.dumps(record, sort_keys=True) + "\n")
            log_file.flush()
            save_checkpoint(
                os.path.join(out_dir, f"epoch_{epoch:03d}.ckpt"), model,
                extra={"epoch": epoch, "lr": state.lr, "adam_t": state.t},
                moments=_moments_as_tensors(state))
            if log_fn:
                log_fn(record)
    save_checkpoint(os.path.join(out_dir, "last.ckpt"), model,
                    extra={"epoch": train_cfg.epochs, "lr": state.lr,
                           "adam_t": state.t},
                    moments=_moments_as_tensors(state))
    return model, log
