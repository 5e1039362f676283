"""The benchmark in ``perfbench/`` still runs on the program.

It reaches into the package by name (the functions it times and traces)
and checks the outputs apart from the program, so a renamed hook, an eval
loop that loads frames ahead of scoring them, or an output its checks
reject fails here rather than only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402

# operations in one round of each workload at TINY sizes: two train steps,
# two eval frames, one densify frame
ROUND_OPS = {"train": 2, "eval": 2, "densify": 1}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_round_correctly(tmp_path, name, trace):
    result, errors, _ = workloads.run_workload(name, 3, 0.0, trace, tmp_path,
                                               sizes=workloads.TINY)
    assert errors == [] and result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == ROUND_OPS[name]
