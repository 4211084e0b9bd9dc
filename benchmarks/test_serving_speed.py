"""Serving-speed benchmark: simulated requests per wall-second.

ROADMAP's "price a million-request day in seconds" item, made
measurable: one large dense trace through the event-compressed
:func:`~repro.engine.serving_sim.simulate_serving` and (a slice of the
same workload through) the per-step oracle
``tests.serving_oracle.simulate_serving_reference``, reporting
*simulated requests per wall-second* for both and writing
``BENCH_serving_speed.json`` at the repo root — the perf-trajectory
artifact CI's ``bench-speed`` job regenerates, uploads, and gates
against the committed baseline (>30% regression fails).

Opt-in: the whole module is skipped unless ``BENCH_SPEED=1`` (it runs
~100k simulated requests, far heavier than the figure-shape smoke
benchmarks). Knobs, all environment variables:

* ``BENCH_SPEED_REQUESTS`` — fast-path trace size (default 100000);
* ``BENCH_SPEED_REF_REQUESTS`` — per-step reference slice size
  (default 2000; the reference is ~30x slower per request, a full-size
  leg would dominate CI);
* ``BENCH_SPEED_FULL_REF=1`` — baseline-regeneration mode: also run
  the reference over the *full* trace and assert the >= 25x speedup
  acceptance bar. This is how the committed baseline was produced.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from tests.serving_oracle import simulate_serving_reference

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy speed benchmark; set BENCH_SPEED=1 to run",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving_speed.json"

NUM_REQUESTS = int(os.environ.get("BENCH_SPEED_REQUESTS", "100000"))
REF_REQUESTS = int(os.environ.get("BENCH_SPEED_REF_REQUESTS", "2000"))
FULL_REF = os.environ.get("BENCH_SPEED_FULL_REF") == "1"

# A long-generation latency-SLA deployment: small batch, true-KV dense
# pricing, arrivals dense enough that the server stays saturated.
MODEL, TP = "gpt-13b", 4
MEAN_PROMPT, MEAN_GEN = 128, 1024
MAX_BATCH = 4
ARRIVAL_RATE = 1000.0
SEED = 33

# CI gate: fail when fast-path throughput falls below this fraction of
# the committed baseline after normalizing out machine speed.
REGRESSION_FLOOR = 0.70
SPEEDUP_BAR = 25.0


def _costs():
    return DenseStepCost(
        DenseLatencyModel(DENSE_ZOO[MODEL], dgx_a100_cluster(1), tp=TP))


def _trace(n):
    return synthesize_trace(num_requests=n, arrival_rate=ARRIVAL_RATE,
                            mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN,
                            seed=SEED)


def _requests_per_s(simulate, n, repeats=3):
    """Best-of-``repeats`` wall-clock (fresh cost model each run, so
    cache warm-up is included). Best-of damps scheduler-noise / CPU
    frequency dips that would otherwise make the regression gate flaky;
    a real slowdown degrades every run alike."""
    trace = _trace(n)
    best, report = 0.0, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = simulate(trace, costs=_costs(), max_batch=MAX_BATCH)
        elapsed = time.perf_counter() - t0
        best = max(best, n / elapsed)
        assert len(report.finish_times) == n  # every request finished
    return best, report


def test_serving_speed_writes_benchmark_record():
    """Measure both paths, write BENCH_serving_speed.json, gate vs the
    committed baseline (and, in full-ref mode, the 25x acceptance bar)."""
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)

    # Equivalence spot-check first: a speed number for a wrong simulator
    # is worthless. (The exhaustive bit-for-bit matrix lives in
    # tests/test_serving_fastpath.py.)
    small = _trace(300)
    assert (simulate_serving(small, costs=_costs(), max_batch=MAX_BATCH,
                             detail="full")
            == simulate_serving_reference(small, costs=_costs(),
                                          max_batch=MAX_BATCH))

    fast_requests_per_s, fast_report = _requests_per_s(
        simulate_serving, NUM_REQUESTS)
    ref_requests_per_s, _ = _requests_per_s(
        simulate_serving_reference, REF_REQUESTS)

    record = {
        "benchmark": "serving_speed",
        "config": {
            "model": MODEL, "tp": TP,
            "num_requests": NUM_REQUESTS,
            "ref_requests": REF_REQUESTS,
            "mean_prompt": MEAN_PROMPT, "mean_gen": MEAN_GEN,
            "max_batch": MAX_BATCH, "arrival_rate": ARRIVAL_RATE,
            "seed": SEED,
        },
        "fast_requests_per_s": round(fast_requests_per_s, 1),
        "ref_requests_per_s": round(ref_requests_per_s, 1),
        "speedup_estimate_x": round(
            fast_requests_per_s / ref_requests_per_s, 1),
        "simulated": {
            "makespan_s": fast_report.makespan,
            "total_tokens": fast_report.total_tokens,
        },
        "full_ref": None,
    }

    if FULL_REF:
        # One run: the per-step reference over 100k requests takes
        # minutes, and its Python-loop timing is far less noisy.
        full_ref_requests_per_s, _ = _requests_per_s(
            simulate_serving_reference, NUM_REQUESTS, repeats=1)
        speedup = fast_requests_per_s / full_ref_requests_per_s
        record["full_ref"] = {
            "ref_requests_per_s": round(full_ref_requests_per_s, 1),
            "speedup_x": round(speedup, 1),
        }
        assert speedup >= SPEEDUP_BAR, (
            f"event compression delivers {speedup:.1f}x over the per-step "
            f"reference on {NUM_REQUESTS} requests; the bar is "
            f"{SPEEDUP_BAR}x")

    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if baseline is not None and baseline["config"] == record["config"]:
        # Normalize machine speed through the reference leg: both paths
        # slow down together on a slower runner, so the gate tracks the
        # *ratio*, not absolute wall-clock.
        machine = ref_requests_per_s / baseline["ref_requests_per_s"]
        floor = REGRESSION_FLOOR * baseline["fast_requests_per_s"] * machine
        assert fast_requests_per_s >= floor, (
            f"serving speed regressed: {fast_requests_per_s:.0f} "
            f"requests/s vs a machine-normalized floor of {floor:.0f} "
            f"(baseline {baseline['fast_requests_per_s']:.0f}, "
            f"machine factor {machine:.2f})")
