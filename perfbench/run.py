"""End-to-end benchmark of qturan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter (worker.py),
until S seconds have passed. Prints a header line, then as the last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (medians over rounds); with
``--trace 1`` the run makes one untraced and one traced round and reports the
per-layer metrics of the traced one, plus the tracing overhead. Every input is
exhaustive or closed-form, so ``--seed`` changes nothing; it is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("q-scan-n7", "turan-sweep")
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 2.0


class RoundFailed(RuntimeError):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(workload: str, trace: bool, setup_only: bool, deadline: float) -> dict:
    """One fresh worker interpreter; returns its result with ``setup_s``, the
    time from launch to its ready line (interpreter start, import, warm-up)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(int(trace)), str(int(setup_only))]
    t0 = time.perf_counter()
    # its own process group, so a timeout also stops anything it started
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        timer = threading.Timer(max(0.0, deadline - t0), _kill_group, (proc.pid,))
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                _kill_group(proc.pid)
                proc.wait()
    if code != 0 or not ready.startswith('{"ready"') or (not setup_only and not rest):
        raise RoundFailed(f"worker {' '.join(cmd[1:])} exited with {code}")
    result = json.loads(rest[-1]) if rest else {}
    result["setup_s"] = setup_s
    return result


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def header(args) -> dict:
    """The record fields: what ran, on which commit, backend and machine."""
    import numpy

    sys.path.insert(0, str(ROOT / "src"))
    from qturan import KERNEL_BACKEND as backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "backend": backend,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(args, head: dict) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        rounds = [launch(args.workload, t, False, deadline) for t in (False, True)]
        plain, traced = rounds
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        setups = []
    else:
        rounds, longest = [], 0.0
        while not rounds or time.perf_counter() - start < args.seconds:
            if time.perf_counter() + longest > deadline:
                break
            t0 = time.perf_counter()
            rounds.append(launch(args.workload, False, False, deadline))
            longest = max(longest, time.perf_counter() - t0)
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            setups.append(launch(args.workload, False, True, deadline)["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
        }
    for r in rounds:
        for err in r["errors"]:
            print(f"# check failed: {err}", flush=True)
    result = {
        "correct": not any(r["errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"header": head, "rounds": rounds, "setup_samples_s": setups, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qturan" / "__init__.py").is_file():
        print(f"perfbench: no qturan source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    head = header(args)
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in head.items()), flush=True)
    try:
        result = run(args, head)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
