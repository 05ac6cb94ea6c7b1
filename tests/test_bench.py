"""Each benchmark workload, traced, run by ``bench/run.py`` in a subprocess.

``bench/tracing.py`` wraps functions of the program and calls
``order_dimension`` with keyword options, so a change to those breaks the
traced run.  ``bench/run.py`` exits 0 even when invocations fail, so the
count is read from the JSON result on its last stdout line.  Each run
writes its spans to the gitignored ``.bench_work/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    WORKLOADS = [workload["name"] for workload in json.load(handle)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_has_no_failed_invocation(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0, run.stderr
    assert result["attempted"] > 0
