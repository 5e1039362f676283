"""End-to-end acceptance criteria, one test per criterion.

Each test prints exactly one `[criterion N] PASS/FAIL` line (visible with
`pytest -s` or in captured output). The two training experiments and the
reproducibility rerun dominate the runtime.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from depthfusion import data as D
from depthfusion import geometry as G
from depthfusion.densify import DensifyConfig, build_weights, densify, rgb_to_gray
from depthfusion.experiments import run_experiment
from depthfusion.gradcheck import check, run_suite
from depthfusion.losses import berhu, loss_total
from depthfusion.metrics import Divisor, compute_metrics, reference_metrics
from depthfusion.model import (FusionMode, ModelConfig, build_model,
                               load_checkpoint, save_checkpoint)
from depthfusion.tensor import Tensor
from depthfusion.trainer import TrainConfig, lr_schedule


def report(n, passed, detail):
    line = f"[criterion {n}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


# -- experiments run once per session, twice for the reproducibility check --

def _run_twice(name, root):
    """Both runs of an experiment at once, in two fresh processes: a fog
    run is Python-bound and leaves a core idle, and even the BLAS-bound
    overfit4 pair finished sooner than two runs in a row."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = [pool.submit(run_experiment, name, root / f"run{i}", seed=0)
                for i in range(2)]
        return [run.result() for run in runs], root


@pytest.fixture(scope="session")
def overfit_runs(tmp_path_factory):
    return _run_twice("overfit4", tmp_path_factory.mktemp("overfit4"))


@pytest.fixture(scope="session")
def fusion_runs(tmp_path_factory):
    return _run_twice("fusion-vs-rgb-fog", tmp_path_factory.mktemp("fog"))


def test_criterion_01_gradient_suite():
    records = run_suite(n_seeds=10, tol=1e-4)
    worst_op = max(records, key=lambda r: r["max_relative_error"])
    ops_ok = all(r["passed"] for r in records)

    cfg = ModelConfig(input_height=8, input_width=8, base_channels=2,
                      encoder_stages=1, fusion_mode=FusionMode.CONCAT_TRUNCATE)
    model = build_model(cfg, dtype=np.float64)
    rng = np.random.default_rng(0)
    rgb = Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 8, 8)), requires_grad=True)
    sparse = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 8, 8)), requires_grad=True)
    gt = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 8, 8)))
    e2e_ok, e2e_err = check(
        lambda *ts: loss_total(model.predict(rgb, sparse), gt, ssim_window=3),
        list(model.params.values()) + [rgb, sparse], tol=1e-3)
    report(1, ops_ok and e2e_ok,
           f"{len(records)} ops <= 1e-4 over 10 seeds (worst "
           f"{worst_op['op']} {worst_op['max_relative_error']:.2e}); "
           f"end-to-end {e2e_err:.2e} <= 1e-3")


def test_criterion_02_metric_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        gt = rng.uniform(0.5, 80.0, size=(h, w))
        pred = rng.uniform(0.5, 80.0, size=(h, w))
        for div in Divisor:
            fast = compute_metrics(pred, gt, divisor=div).as_dict()
            slow = reference_metrics(pred, gt, divisor=div).as_dict()
            worst = max(worst, max(abs(fast[k] - slow[k])
                                   for k in ("rmse", "ard", "srd",
                                             "delta1", "delta2", "delta3")))
    gt = np.array([[2.0, 4.0]])
    pred = np.array([[1.0, 5.0]])
    r_gt = compute_metrics(pred, gt, divisor=Divisor.GROUNDTRUTH)
    r_pr = compute_metrics(pred, gt, divisor=Divisor.PREDICTION)
    hand = (r_gt.rmse == 1.0 and r_gt.ard == 0.375
            and r_pr.ard == 0.6 and r_gt.delta1 == 0.0)
    report(2, worst <= 1e-12 and hand,
           f"scalar-loop agreement {worst:.1e} <= 1e-12 on 100 pairs; "
           f"hand example exact")


def test_criterion_03_loss_identities():
    rng = np.random.default_rng(2)
    gt = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 9, 9)))
    zero_at_gt = loss_total(gt, gt).item() < 1e-12
    positive_off_gt = loss_total(Tensor(gt.data + 0.03), gt).item() > 0

    c, eps = 1.0, 1e-9
    f = lambda x: berhu(Tensor(np.array([x])), c).data[0]
    continuous = abs(f(c - eps) - f(c + eps)) < 1e-8
    slope = (f(c + eps) - f(c - eps)) / (2 * eps)
    differentiable = abs(slope - 1.0) < 1e-6
    branches = f(0.5) == 0.5 and f(2.0) == 2.5
    report(3, zero_at_gt and positive_off_gt and continuous
           and differentiable and branches,
           "loss_total zero iff pred == gt; Berhu continuous and "
           "once-differentiable at |x|=c; branch examples 0.5->0.5, 2->2.5 exact")


def test_criterion_04_densify():
    rng = np.random.default_rng(3)
    cfg = DensifyConfig()
    tight = DensifyConfig(tolerance=1e-9, max_iterations=50000)

    fidelity = maxprin = True
    for _ in range(50):
        h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        sparse = np.zeros((h, w))
        idx = rng.choice(h * w, size=int(rng.integers(2, 6)), replace=False)
        vals = rng.uniform(1.0, 60.0, size=len(idx))
        sparse.flat[idx] = vals
        out = densify(sparse, rng.uniform(0, 1, size=(h, w)), cfg).depth
        fidelity &= bool(np.array_equal(out[sparse > 0], sparse[sparse > 0]))
        maxprin &= bool(out.min() >= vals.min() - 1e-9
                        and out.max() <= vals.max() + 1e-9)

    worst_direct = 0.0
    for _ in range(5):
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        sparse = np.zeros((h, w))
        sparse.flat[rng.choice(h * w, size=3, replace=False)] = \
            rng.uniform(1.0, 20.0, size=3)
        guide = rng.uniform(0, 1, size=(h, w))
        got = densify(sparse, guide, tight).depth
        oracle = _dense_direct_solve(sparse, guide, tight)
        worst_direct = max(worst_direct, float(np.abs(got - oracle).max()))

    const = densify(_center_seed(3, 3, 7.0), np.full((3, 3), 0.5), cfg).depth
    const_ok = np.allclose(const, 7.0, atol=1e-5)
    report(4, fidelity and maxprin and worst_direct <= 1e-5 and const_ok,
           f"fidelity exact, max principle on 50 instances, direct-solve "
           f"agreement {worst_direct:.1e} <= 1e-5, constant-guide exact")


def _center_seed(h, w, value):
    sparse = np.zeros((h, w))
    sparse[h // 2, w // 2] = value
    return sparse


def _dense_direct_solve(sparse, guide, config):
    from depthfusion.densify import OFFSETS
    w = build_weights(rgb_to_gray(guide), config)
    h, wd = sparse.shape
    a = np.eye(h * wd)
    b = np.zeros(h * wd)
    for y in range(h):
        for x in range(wd):
            p = y * wd + x
            if sparse[y, x] > 0:
                b[p] = sparse[y, x]
                continue
            for k, (dy, dx) in enumerate(OFFSETS):
                qy, qx = y + dy, x + dx
                if 0 <= qy < h and 0 <= qx < wd:
                    a[p, qy * wd + qx] -= w[k, y, x]
    return np.linalg.solve(a, b).reshape(h, wd)


def test_criterion_05_geometry_round_trip():
    intr = G.CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0,
                              width=64, height=48)
    rng = np.random.default_rng(4)
    exact = True
    for _ in range(50):
        sparse = np.zeros((48, 64))
        n = int(rng.integers(5, 40))
        sparse[rng.integers(0, 48, n), rng.integers(0, 64, n)] = \
            rng.uniform(1.0, 60.0, n)
        again = G.project_points(G.backproject(sparse, intr),
                                 G.RigidPose.identity(), intr)
        exact &= bool(np.array_equal(again, sparse))
    collide = G.PointCloud(np.array([[0.0, 0.0, 9.0], [0.0, 0.0, 2.0],
                                     [0.0, 0.0, 5.0]]))
    zbuf = G.project_points(collide, G.RigidPose.identity(), intr)[24, 32] == 2.0
    report(5, exact and zbuf,
           "backproject->project identity exact on 50 rasters; "
           "z-buffer keeps minimum depth")


def test_criterion_06_overfit4(overfit_runs):
    (rep, _), _ = overfit_runs
    ok = all(a["passed"] for a in rep["assertions"])
    report(6, ok, f"loss ratio {rep['loss_ratio']:.4f} <= 0.1, "
                  f"delta1 {rep['delta1']:.4f} >= 0.95 "
                  f"({rep['elapsed_seconds']:.0f}s)")


def test_criterion_07_fusion_advantage(fusion_runs):
    (rep, _), _ = fusion_runs
    ok = all(a["passed"] for a in rep["assertions"])
    report(7, ok, f"held-out fog RMSE fusion {rep['rmse_fusion']:.4f} vs "
                  f"rgb-only {rep['rmse_rgb']:.4f} "
                  f"(margin {rep['margin']:.2%}, >= 0 required) "
                  f"({rep['elapsed_seconds']:.0f}s)")


def test_criterion_08_lr_schedule():
    cfg = TrainConfig()
    ok = (lr_schedule(1, cfg) == 1e-4
          and lr_schedule(8, cfg) == pytest.approx(2e-5, rel=1e-12)
          and lr_schedule(15, cfg) == pytest.approx(4e-6, rel=1e-12))
    report(8, ok, "lr(1)=1e-4, lr(8)=2e-5, lr(15)=4e-6 exactly")


def test_criterion_09_reproducibility(overfit_runs, fusion_runs):
    _, oroot = overfit_runs
    _, froot = fusion_runs
    same = True
    pairs = [(oroot / "run0" / n, oroot / "run1" / n)
             for n in ("log.jsonl", "overfit4.ckpt")]
    pairs += [(froot / "run0" / m / n, froot / "run1" / m / n)
              for m in ("concat", "rgb") for n in ("log.jsonl", "last.ckpt")]
    for a, b in pairs:
        same &= a.read_bytes() == b.read_bytes()
    report(9, same, "reruns of experiments 6-7 are bitwise identical "
                    "(logs and checkpoints)")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    ok = True
    for i in range(100):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        rgb = rng.integers(0, 256, size=(h, w, 3)) / 255.0
        D.save_ppm(rgb, tmp_path / "x.ppm")
        ok &= bool(np.array_equal(D.load_ppm(tmp_path / "x.ppm"), rgb))

        depth = rng.integers(0, 80 * 256, size=(h, w)) / 256.0
        D.save_depth_pgm(depth, tmp_path / "x.pgm")
        ok &= bool(np.array_equal(D.load_depth_pgm(tmp_path / "x.pgm"), depth))

        pts = rng.uniform(-50, 50, size=(int(rng.integers(1, 20)), 3))
        G.save_cloud_csv(G.PointCloud(pts), tmp_path / "x.csv")
        ok &= bool(np.array_equal(G.load_cloud_csv(tmp_path / "x.csv").points,
                                  pts))
    model = build_model(ModelConfig(input_height=16, input_width=16,
                                    base_channels=2, encoder_stages=2,
                                    fusion_mode=FusionMode.CONCAT_TRUNCATE))
    for i in range(10):
        for p in model.params.values():
            p.data[:] = rng.normal(size=p.data.shape).astype(np.float32)
        save_checkpoint(tmp_path / "x.ckpt", model)
        back, _, _ = load_checkpoint(tmp_path / "x.ckpt")
        save_checkpoint(tmp_path / "y.ckpt", back)
        ok &= (tmp_path / "x.ckpt").read_bytes() == \
            (tmp_path / "y.ckpt").read_bytes()
    report(10, ok, "PPM/PGM/CSV/checkpoint save->load lossless on random "
                   "instances (checkpoints byte-stable)")
