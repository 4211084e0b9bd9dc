"""Scale-memory benchmark: peak RSS per simulated request.

ROADMAP's "10M requests in bounded memory" item, made measurable. Each
case runs in a fresh subprocess at two trace sizes and reports
``ru_maxrss``; the slope between the sizes is the memory a run keeps
per request, with the interpreter's fixed cost cancelled out. Three
cases share one setup (``ClosureStepCost``, mean prompt 32, mean
generation 16, ``max_batch=8``, ``detail="summary"``):

* ``trace`` — the synthesized trace alone;
* ``serving`` — the trace through :func:`simulate_serving`;
* ``fleet`` — the trace through an 8-replica power-of-two
  :func:`simulate_fleet`.

Writes ``BENCH_scale.json`` at the repo root and fails when any case's
bytes per request rise more than 10% above the committed file. Peak RSS
does not depend on machine speed, so no normalization is needed.

Opt-in: skipped unless ``BENCH_SPEED=1`` (the 400k-request fleet case
peaks near 0.65 GB). Run from the repo root::

    BENCH_SPEED=1 PYTHONPATH=src python -m pytest benchmarks/test_scale_memory.py -q

One case at one size: ``PYTHONPATH=src python -m
benchmarks.test_scale_memory serving 100000`` prints its peak RSS in KiB.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_scale.json"

SIZES = (100_000, 400_000)
CASES = ("trace", "serving", "fleet")
MEAN_PROMPT, MEAN_GEN = 32, 16
MAX_BATCH = 8
REPLICAS = 8
# Arrivals per second per server: about 70% of a server's throughput at
# these step costs, so queues stay bounded and memory tracks requests.
RATE_PER_SERVER = 150.0
SEED = 0
# CI gate: fail when a case keeps this much more per request than the
# committed baseline.
REGRESSION_CEILING = 1.10


def _peak_rss_kib(case: str, n: int) -> int:
    """Build and run one case at ``n`` requests in this process; return
    its peak RSS in KiB (Linux ``ru_maxrss`` units)."""
    from repro.engine import (ClosureStepCost, simulate_serving,
                              synthesize_trace)
    from repro.fleet import simulate_fleet

    servers = REPLICAS if case == "fleet" else 1
    trace = synthesize_trace(num_requests=n,
                             arrival_rate=RATE_PER_SERVER * servers,
                             mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN,
                             seed=SEED)
    costs = ClosureStepCost(lambda b, p: 1e-3 + 1e-5 * p,
                            lambda b: 1e-3 + 1e-4 * b)
    report = None
    if case == "serving":
        report = simulate_serving(trace, costs=costs, max_batch=MAX_BATCH,
                                  detail="summary")
    elif case == "fleet":
        report = simulate_fleet(trace, num_replicas=REPLICAS, costs=costs,
                                max_batch=MAX_BATCH, routing="power_of_two",
                                detail="summary")
    if report is not None:
        assert len(report.finish_times) == n
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _measure(case: str, n: int) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_scale_memory", case, str(n)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])})
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(os.environ.get("BENCH_SPEED") != "1",
                    reason="heavy memory benchmark; set BENCH_SPEED=1 to run")
def test_scale_memory_writes_benchmark_record():
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)
    lo, hi = SIZES
    cases = {}
    for case in CASES:
        rss = {n: _measure(case, n) for n in SIZES}
        cases[case] = {
            "peak_rss_mb": {str(n): round(rss[n] / 1024, 1) for n in SIZES},
            "bytes_per_request": round((rss[hi] - rss[lo]) * 1024
                                       / (hi - lo)),
        }
    record = {
        "benchmark": "scale_memory",
        "config": {
            "sizes": list(SIZES), "mean_prompt": MEAN_PROMPT,
            "mean_gen": MEAN_GEN, "max_batch": MAX_BATCH,
            "replicas": REPLICAS, "routing": "power_of_two",
            "rate_per_server": RATE_PER_SERVER, "detail": "summary",
            "costs": "ClosureStepCost(1e-3 + 1e-5*p, 1e-3 + 1e-4*b)",
            "seed": SEED,
        },
        "cases": cases,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if baseline is not None and baseline["config"] == record["config"]:
        for case, got in cases.items():
            want = baseline["cases"][case]["bytes_per_request"]
            assert got["bytes_per_request"] <= REGRESSION_CEILING * want, (
                f"{case}: {got['bytes_per_request']} B per request vs a "
                f"committed {want} B (ceiling x{REGRESSION_CEILING})")


if __name__ == "__main__":
    print(_peak_rss_kib(sys.argv[1], int(sys.argv[2])))
