"""Benchmark of depthfusion: one workload, one seed, one run.

    python3 perfbench/run.py --workload train|eval|densify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. With ``--trace 0`` the last output line holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run. The line before it records the machine. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "densify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads(workload=None):
    """One BLAS thread per usable core; must run before numpy is imported.

    densify gets one: its only BLAS call is a vector norm per iteration, a
    second thread gives no speed-up and spins after every call, and with
    it one process's time for 1500 iterations on a 2-vCPU VM varied
    between 1.6 s and 2.4 s (1.8 s to 2.2 s with one thread). Returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(1 if workload == "densify" else nproc)
    return nproc


def import_program():
    if not os.path.isfile(os.path.join(SRC, "depthfusion", "__init__.py")):
        sys.exit(f"perfbench: no depthfusion sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, SRC)
    import depthfusion
    if not os.path.abspath(depthfusion.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported depthfusion from {depthfusion.__file__}, "
                 f"not from {SRC}")


def blas_thread_count():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_thread_count(),
            "blas_env": {v: os.environ[v] for v in BLAS_ENV}}


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_blas_threads(args.workload)
    import_program()
    sys.path.insert(0, HERE)
    import workloads

    work_root = os.path.join(HERE, "work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, errors, tracer = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine(nproc)
    if tracer is not None:
        tracer.write(os.path.join(work_root, f"trace-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "machine": info})
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"machine": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
