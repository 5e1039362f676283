"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, traced and untraced, checks that the
metric names and units match BENCHMARK.json, shows that each correctness
check rejects a deliberately corrupted output, and that run.py fails
without printing a result where there are no program sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run

run.pin_blas_threads()
run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, program_module  # noqa: E402

WORK = os.path.join(run.HERE, "work", "selftest")


def expect(errors, should_fail, what):
    if bool(errors) != should_fail:
        raise AssertionError(f"{what}: expected {'errors' if should_fail else 'none'}, "
                             f"got {errors}")
    print(f"ok  {what}")


def test_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    print("ok  BENCHMARK.json names and units match the code")


def test_workloads():
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            work = os.path.join(WORK, f"{name}-{int(trace)}")
            os.makedirs(work)
            result, errors, _ = workloads.run_workload(name, 3, 0.0, trace, work,
                                                       sizes=workloads.TINY)
            expected = PER_LAYER if trace else workloads.END_TO_END
            assert set(result["metrics"]) == set(expected), name
            assert result["attempted"] >= 1 and result["correct"], (result, errors)
            assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
            print(f"ok  {name} runs at tiny size, trace={int(trace)}: "
                  f"{result['attempted']} ops, {result['failed']} failed")


def test_eval_checks():
    M = program_module("metrics")
    rng = np.random.default_rng(0)
    ids = ["000000", "000001"]
    gts = [rng.uniform(0.5, 80.0, (8, 12)) for _ in ids]
    depths = [g * rng.uniform(0.7, 1.3, g.shape) for g in gts]
    depths = [np.clip(d, 0.5, 80.0) for d in depths]
    reports = [M.compute_metrics(d, g) for d, g in zip(depths, gts)]
    per_sample = [dict(r.as_dict(), sample_id=i) for i, r in zip(ids, reports)]
    aggregate = dict(M.mean_report(reports).as_dict(), skipped_samples=0)

    def run_check(ps=per_sample, agg=aggregate, ds=depths):
        return checks.check_eval(ids, ds, gts, ps, agg, 0.5, 80.0)

    expect(run_check(), False, "eval: the program's own metrics pass")
    bad = [dict(per_sample[0], rmse=per_sample[0]["rmse"] * (1 + 1e-6)), per_sample[1]]
    expect(run_check(ps=bad), True, "eval: a corrupted per-sample RMSE is rejected")
    bad = [per_sample[0], dict(per_sample[1], delta1=per_sample[1]["delta1"] + 0.01)]
    expect(run_check(ps=bad), True, "eval: a corrupted per-sample delta1 is rejected")
    expect(run_check(agg=dict(aggregate, ard=aggregate["ard"] * 1.001)), True,
           "eval: a corrupted aggregate ARD is rejected")
    out_of_range = [depths[0].copy(), depths[1]]
    out_of_range[0][0, 0] = 80.5
    expect(run_check(ds=out_of_range), True, "eval: a depth above d_max is rejected")
    expect(checks.check_batch(depths, [d.copy() for d in depths]), False,
           "eval: equal batch and single depths pass")
    expect(checks.check_batch(depths, [depths[0], depths[1] * (1 + 1e-3)]), True,
           "eval: a batch/single mismatch is rejected")

    path = os.path.join(WORK, "gt.pgm")
    program_module("data").save_depth_pgm(gts[0], path)
    decoded = checks.read_depth_pgm(path)
    assert np.array_equal(decoded, program_module("data").load_depth_pgm(path))
    print("ok  eval: groundtruth PGM decoding agrees with the program's reader")


def test_densify_checks():
    D = program_module("data")
    DZ = program_module("densify")
    frame = D.generate_sample(workloads.scene(workloads.TINY), 101)
    cfg = DZ.DensifyConfig()
    result = DZ.densify(frame.sparse, frame.rgb, cfg)
    assert result.converged, "tiny frame should converge under the defaults"

    def run_check(r):
        return checks.check_densify(frame.sparse, frame.rgb, r, cfg.tolerance,
                                    cfg.sigma_min)

    expect(run_check(result), False, "densify: a converged frame passes")
    known = np.argwhere(frame.sparse > 0)
    unknown = np.argwhere(frame.sparse == 0)
    bad = result.depth.copy()
    bad[tuple(known[0])] += 0.01
    expect(run_check(replace(result, depth=bad)), True,
           "densify: a changed measured pixel is rejected")
    bad = result.depth.copy()
    bad[tuple(unknown[0])] = frame.sparse.max() + 1.0
    expect(run_check(replace(result, depth=bad, converged=False)), True,
           "densify: a value above the measured range is rejected")
    bad = result.depth.copy()
    bad[tuple(unknown[0])] = 0.5 * (bad[tuple(unknown[0])] + frame.sparse[frame.sparse > 0].min())
    expect(run_check(replace(result, depth=bad)), True,
           "densify: a converged claim with a large residual is rejected")
    stopped = DZ.densify(frame.sparse, frame.rgb, DZ.DensifyConfig(max_iterations=3))
    expect(run_check(stopped), False,
           "densify: an unconverged frame is no check error (it counts as failed)")


def test_train_checks():
    expect(checks.check_gradients({"w": 0.25}, {"w": 0.25 + 1e-9}), False,
           "train: matching gradients pass")
    expect(checks.check_gradients({"w": 0.25}, {"w": 0.25 * 1.01}), True,
           "train: a 1% gradient error is rejected")
    expect(checks.check_loss_decrease(1.0, 0.9), False, "train: a lower loss passes")
    expect(checks.check_loss_decrease(1.0, 1.0), True, "train: an unchanged loss is rejected")
    path = os.path.join(WORK, "log.jsonl")
    good = [{"epoch": 1, "lr": 1e-4, "train_loss": 0.5}]
    for records, fail, what in (
            (good, False, "a finite log passes"),
            ([{"epoch": 1, "lr": 1e-4, "train_loss": float("nan")}], True,
             "a NaN training loss is rejected"),
            ([], True, "a missing epoch is rejected")):
        with open(path, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        expect(checks.check_log(path, 1), fail, f"train: {what}")


def test_no_sources():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok  without program sources run.py exits {proc.returncode} "
          "and prints no result")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        test_benchmark_json()
        test_train_checks()
        test_eval_checks()
        test_densify_checks()
        test_no_sources()
        test_workloads()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
