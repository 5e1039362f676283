import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from depthfusion import blas
from depthfusion import data as D
from depthfusion import tensor as T
from depthfusion import trainer
from depthfusion.losses import LossWeights, PixelLossKind, loss_total
from depthfusion.malloc import keep_freed_memory
from depthfusion.model import FusionMode, Model, ModelConfig, build_model
from depthfusion.tensor import Tensor
from depthfusion.trainer import (OptimState, TrainConfig, TrainingAborted,
                                 adam_step, batch_to_tensors, lr_schedule,
                                 train, train_step)

SMALL = ModelConfig(input_height=32, input_width=32, base_channels=4,
                    encoder_stages=2, fusion_mode=FusionMode.CONCAT_TRUNCATE)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    D.generate_dataset(directory, 4, {"day": 1.0}, seed=0,
                       spec=D.SceneSpec(width=32, height=32))
    return directory


def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_schedule(1, cfg) == 1e-4
    assert lr_schedule(7, cfg) == 1e-4
    assert lr_schedule(8, cfg) == pytest.approx(2e-5, rel=1e-12)
    assert lr_schedule(14, cfg) == pytest.approx(2e-5, rel=1e-12)
    assert lr_schedule(15, cfg) == pytest.approx(4e-6, rel=1e-12)
    with pytest.raises(ValueError):
        lr_schedule(0, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for name in ("lr0", "lr_decay_factor"):
        for value in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
    with pytest.raises(ValueError, match="lr_decay_every"):
        TrainConfig(lr_decay_every=0)


def test_adam_first_step_is_signed_lr():
    w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    params = {"w": w}
    state = OptimState(lr=1e-3)
    adam_step(params, {"w": np.array([2.0, -0.5, 1e-3], dtype=np.float32)},
              state)
    # first bias-corrected step is ~ -lr * sign(g)
    np.testing.assert_allclose(w.data, [-1e-3, 1e-3, -1e-3], rtol=1e-4)
    assert state.t == 1


def test_adam_zero_gradient_is_noop():
    w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    state = OptimState()
    adam_step({"w": w}, {"w": np.zeros(2, dtype=np.float32)}, state)
    np.testing.assert_array_equal(w.data, [1.0, 1.0])


def test_adam_rejects_nonfinite_gradient():
    w = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    with pytest.raises(TrainingAborted):
        adam_step({"w": w}, {"w": np.array([np.nan], dtype=np.float32)},
                  OptimState())


def test_train_step_reduces_loss_on_repetition(dataset):
    model = build_model(SMALL)
    cfg = TrainConfig(epochs=1, augment=False)
    samples = [D.load_sample(dataset, i) for i in D.list_sample_ids(dataset)][:2]
    state = OptimState(lr=1e-3)
    first = train_step(model, samples, cfg, state)
    for _ in range(30):
        last = train_step(model, samples, cfg, state)
    assert last < first


def test_train_writes_log_and_checkpoints(dataset, tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2, augment=False)
    out = tmp_path / "run"
    model, log = train(cfg, SMALL, dataset, val_dir=dataset, out_dir=out)
    assert len(log) == 2
    assert (out / "epoch_001.ckpt").exists()
    assert (out / "epoch_002.ckpt").exists()
    assert (out / "last.ckpt").exists()
    lines = [json.loads(l) for l in (out / "log.jsonl").read_text().splitlines()]
    assert [l["epoch"] for l in lines] == [1, 2]
    assert all("val" in l and "train_loss" in l for l in lines)
    assert lines[0]["lr"] == 1e-4


def test_training_is_deterministic(dataset, tmp_path):
    cfg = TrainConfig(epochs=1, batch_size=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    train(cfg, SMALL, dataset, out_dir=out_a)
    train(cfg, SMALL, dataset, out_dir=out_b)
    assert (out_a / "last.ckpt").read_bytes() == (out_b / "last.ckpt").read_bytes()
    assert (out_a / "log.jsonl").read_text() == (out_b / "log.jsonl").read_text()


def test_resume_matches_uninterrupted_run(dataset, tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2)
    full = tmp_path / "full"
    train(cfg, SMALL, dataset, out_dir=full)

    split = tmp_path / "split"
    train(TrainConfig(epochs=1, batch_size=2), SMALL, dataset, out_dir=split)
    train(cfg, SMALL, dataset, out_dir=split,
          resume=split / "epoch_001.ckpt")
    assert (full / "last.ckpt").read_bytes() == (split / "last.ckpt").read_bytes()
    assert (full / "epoch_002.ckpt").read_bytes() == \
        (split / "epoch_002.ckpt").read_bytes()


def test_resume_at_the_checkpoint_epoch_keeps_its_lr(dataset, tmp_path):
    # resumed at its own epoch the run trains nothing, and last.ckpt must
    # carry the schedule's lr, not OptimState's default of 1e-4
    cfg = TrainConfig(epochs=2, batch_size=2, lr0=3e-4)
    full, again = tmp_path / "full", tmp_path / "again"
    train(cfg, SMALL, dataset, out_dir=full)
    train(cfg, SMALL, dataset, out_dir=again, resume=full / "epoch_002.ckpt")
    assert (again / "last.ckpt").read_bytes() == (full / "last.ckpt").read_bytes()


def test_train_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError):
        train(TrainConfig(epochs=1), SMALL, tmp_path)


def test_train_rejects_empty_validation_directory(dataset, tmp_path):
    empty = tmp_path / "val"
    empty.mkdir()
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=f"validation directory {empty} is empty"):
        train(TrainConfig(epochs=1), SMALL, dataset, val_dir=empty, out_dir=out)
    assert not out.exists()


def test_train_rejects_fewer_samples_than_batch(tmp_path):
    data = tmp_path / "one"
    D.generate_dataset(data, 1, {"day": 1.0}, seed=0,
                       spec=D.SceneSpec(width=32, height=32))
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="fewer than batch_size=2"):
        train(TrainConfig(epochs=1, batch_size=2), SMALL, data, out_dir=out)
    assert not out.exists() or not any(out.iterdir())


def test_adam_steps_are_byte_identical_to_the_textbook_form():
    rng = np.random.default_rng(8)
    shapes = {"k": (4, 3, 3, 3), "b": (4,)}
    w0 = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
    grads = [{n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
             for _ in range(3)]
    params = {n: Tensor(w.copy(), requires_grad=True) for n, w in w0.items()}
    state = OptimState(lr=1e-3)
    ref = {n: w.copy() for n, w in w0.items()}
    m = {n: np.zeros_like(w) for n, w in w0.items()}
    v = {n: np.zeros_like(w) for n, w in w0.items()}
    for step, g in enumerate(grads, start=1):
        adam_step(params, g, state)
        for n in shapes:
            m[n] += (1.0 - 0.9) * (g[n] - m[n])
            v[n] += (1.0 - 0.999) * (g[n] * g[n] - v[n])
            mhat = m[n] / (1.0 - 0.9 ** step)
            vhat = v[n] / (1.0 - 0.999 ** step)
            ref[n] -= (1e-3 * mhat / (np.sqrt(vhat) + 1e-8)).astype(np.float32)
    for n in shapes:
        assert params[n].data.tobytes() == ref[n].tobytes()
        assert state.m[n].tobytes() == m[n].tobytes()
        assert state.v[n].tobytes() == v[n].tobytes()
        assert not np.array_equal(params[n].data, w0[n])


@pytest.mark.parametrize("name", ["beta1", "beta2", "epsilon"])
def test_adam_constants_cannot_be_set(name):
    with pytest.raises(TypeError, match=name):
        OptimState(**{name: 0.5})


needs_blas_control = pytest.mark.skipif(
    blas.threads() is None,
    reason="no OpenBLAS thread-count control found in this process")


def _samples(dataset, n=2):
    return [D.load_sample(dataset, i) for i in D.list_sample_ids(dataset)][:n]


@pytest.mark.parametrize("kind", list(PixelLossKind))
def test_per_sample_step_matches_whole_batch_graph(dataset, monkeypatch, kind):
    samples = _samples(dataset, 3)
    cfg = TrainConfig(loss_kind=kind, loss_weights=LossWeights(1.0, 0.5, 2.0))
    model = Model(SMALL, dtype=np.float64)
    rgb, sparse, target = batch_to_tensors(samples, model)
    batch = loss_total(model.predict(rgb, sparse), target, cfg.loss_weights, kind)
    T.backward(batch)
    seen = {}
    monkeypatch.setattr(trainer, "adam_step",
                        lambda params, grads, state: seen.update(grads))
    value = train_step(model, samples, cfg, OptimState())
    assert value == pytest.approx(batch.item(), rel=1e-12, abs=0)
    assert seen.keys() == model.params.keys()
    for name, p in model.params.items():
        assert seen[name].dtype == np.float64
        err = np.abs(seen[name] - p.grad).max()
        assert err <= 1e-12 * np.abs(p.grad).max(), name


@needs_blas_control
def test_weights_do_not_depend_on_worker_count(dataset, monkeypatch):
    # four workers, more than this machine's cores, switching threads often
    samples = _samples(dataset, 4)
    weights = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cores in (1, 4):
            monkeypatch.setattr(trainer, "_usable_cores", lambda: cores)
            model = build_model(SMALL)
            state = OptimState(lr=1e-3)
            for _ in range(3):
                train_step(model, samples, TrainConfig(batch_size=4), state)
            weights.append(b"".join(p.data.tobytes() for p in model.params.values()))
    finally:
        sys.setswitchinterval(interval)
    assert weights[0] == weights[1]


@needs_blas_control
def test_blas_threads_are_one_inside_the_step_and_restored(dataset, monkeypatch):
    get, put = blas.threads()
    original = get()
    inside = []

    def loss_spy(*args, **kwargs):
        inside.append(get())
        return loss_total(*args, **kwargs)

    monkeypatch.setattr(trainer, "loss_total", loss_spy)
    monkeypatch.setattr(trainer, "_usable_cores", lambda: 2)
    samples = _samples(dataset)
    try:
        put(2)
        train_step(build_model(SMALL), samples, TrainConfig(), OptimState())
        assert inside == [1, 1]
        assert get() == 2
        model = build_model(SMALL)
        model.params["head.bias"].data[:] = np.nan
        with pytest.raises(TrainingAborted, match="non-finite training loss"):
            train_step(model, samples, TrainConfig(), OptimState())
        assert get() == 2
    finally:
        put(original)


TRAIN_SCRIPT = """
import sys
from depthfusion.model import FusionMode, ModelConfig
from depthfusion.trainer import TrainConfig, train
train(TrainConfig(epochs=1, batch_size=2),
      ModelConfig(input_height=32, input_width=32, base_channels=4,
                  encoder_stages=2, fusion_mode=FusionMode.CONCAT_TRUNCATE),
      sys.argv[1], out_dir=sys.argv[2])
"""


def _run_at_blas_threads(threads, script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script, *map(str, args)],
                   env=env, check=True, timeout=300)


@needs_blas_control
def test_checkpoints_do_not_depend_on_blas_thread_count(dataset, tmp_path):
    ckpts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _run_at_blas_threads(threads, TRAIN_SCRIPT, dataset, out)
        ckpts.append((out / "last.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]


VALIDATED_SCRIPT = """
import sys
from depthfusion.model import FusionMode, ModelConfig
from depthfusion.trainer import TrainConfig, train
train(TrainConfig(epochs=1, batch_size=2),
      ModelConfig(input_height=64, input_width=96, base_channels=8,
                  encoder_stages=2, fusion_mode=FusionMode.CONCAT_TRUNCATE),
      sys.argv[1], val_dir=sys.argv[2], out_dir=sys.argv[3])
"""


@needs_blas_control
def test_validation_log_does_not_depend_on_blas_thread_count(tmp_path):
    # validation runs predict_depth with the caller's BLAS threads; at this
    # size its GEMMs are large enough for OpenBLAS to split over two threads
    spec = D.SceneSpec(width=96, height=64)
    D.generate_dataset(tmp_path / "train", 2, {"day": 1.0}, seed=3, spec=spec)
    D.generate_dataset(tmp_path / "val", 2, {"fog": 1.0}, seed=4, spec=spec)
    logs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _run_at_blas_threads(threads, VALIDATED_SCRIPT, tmp_path / "train",
                             tmp_path / "val", out)
        logs.append((out / "log.jsonl").read_bytes())
    assert b'"val"' in logs[0]
    assert logs[0] == logs[1]


REUSE_SCRIPT = """
import pathlib, resource, sys
import numpy as np
from depthfusion import data as D, trainer
from depthfusion.model import ModelConfig, build_model
spec = D.SceneSpec(width=64, height=32)
samples = [D.generate_sample(spec, seed) for seed in range(2)]
model = build_model(ModelConfig(input_height=32, input_width=64, base_channels=4,
                                encoder_stages=2))
trainer.train_step(model, samples, trainer.TrainConfig(), trainer.OptimState())

def free_on_worker(k):
    block = np.ones(16 << 20, dtype=np.uint8)
    del block

with trainer._per_sample(1) as run:
    run(free_on_worker)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
block = np.ones(16 << 20, dtype=np.uint8)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
pathlib.Path(sys.argv[1]).write_text(str(faults))
"""


@needs_blas_control
def test_threads_reuse_each_others_freed_memory(tmp_path):
    # after a train step every thread allocates from one malloc arena, so a
    # block a worker freed serves the calling thread without faulting in
    # fresh pages; with an arena per thread it took hundreds of faults. A
    # fresh process, so that no earlier thread holds an arena of its own
    if not keep_freed_memory():
        pytest.skip("no mallopt in this process")
    out = tmp_path / "faults.txt"
    _run_at_blas_threads("2", REUSE_SCRIPT, out)
    faults = int(out.read_text())
    assert faults < 64, faults


def test_warm_train_steps_keep_freed_memory():
    # glibc's default thresholds hand a step's freed multi-MB buffers back to
    # the kernel, and the next step faults them in again: over 20k minor
    # faults per 96x160 batch-2 step. Kept, the heap still grows now and
    # then over the first steps, by up to about 2.7k faults in one step, so
    # the bound is on three steps together
    if not keep_freed_memory():
        pytest.skip("no mallopt in this process")
    samples = [D.generate_sample(D.SceneSpec(), seed) for seed in range(2)]
    model = build_model(ModelConfig(fusion_mode=FusionMode.CONCAT_TRUNCATE))
    cfg, state = TrainConfig(), OptimState()
    for _ in range(3):
        train_step(model, samples, cfg, state)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_step(model, samples, cfg, state)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sum(faults) < 3 * 2000, faults
