"""The benchmark harness runs against the current source: one traced round of
each workload in a fresh interpreter must pass its oracle checks.

``perfbench/worker.py`` reaches into the package by name (``q_radius(g, tol)``,
``extremal_q(..., jobs=1)``, ``SpectralResult.iterations`` and ``.method``,
``spectral._solve_cached.cache_info``), so a rename that breaks it fails here
on every Python the test suite runs on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["q-scan-n7", "turan-sweep"])
def test_traced_benchmark_round_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", workload, "1", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["attempted"] > 0 and last["failed"] == 0, last
    assert last["errors"] == [], last["errors"]
    assert last["layers"] is not None
    if workload == "q-scan-n7":
        # the tracer replaces spectral.q_radius and search.is_free after
        # import; a scan that captured either one earlier would hide its
        # calls here while every oracle check still passed
        want = {"spectral.solves": 22, "spectral.cache_hits": 24, "subgraph.is_free.calls": 892}
        assert {k: last["layers"][k] for k in want} == want
