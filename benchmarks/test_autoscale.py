"""Autoscale benchmark: closed loop vs every equal-cost fixed fleet.

The acceptance bar for ``repro.autoscale``: on a ≥100k-request diurnal
trace (full-amplitude day/night cycle, mean rate equal to the fixed
fleets' sizing basis), the autoscaled fleet must beat **every**
fixed-size fleet of no greater average GPU cost on P99 time-to-first
token. The run writes ``BENCH_autoscale.json`` at the repo root — the
artifact CI's ``bench-speed`` job regenerates, uploads, and gates: the
equal-cost sweep must hold, and (the whole pipeline being
deterministic) the recorded P99 must not drift above the committed
baseline's by more than 5%.

Opt-in: skipped unless ``BENCH_SPEED=1`` (the sweep simulates ~500k
requests across the autoscaled run plus the fixed-fleet ladder).
``BENCH_AUTOSCALE_REQUESTS`` overrides the trace size.
"""

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.autoscale import AutoscaleConfig
from repro.engine import ClosureStepCost, synthesize_trace
from repro.fleet import simulate_fleet

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy autoscale benchmark; set BENCH_SPEED=1 to run",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_autoscale.json"

NUM_REQUESTS = int(os.environ.get("BENCH_AUTOSCALE_REQUESTS", "100000"))

# Deployment sizing: one replica sustains ~12-14 requests/s of this
# workload at max_batch=4, so the mean rate needs ~2.5 replicas and the
# diurnal peak (2x the mean at amplitude 1.0) ~5 — inside the budget,
# out of reach of any equal-cost fixed fleet.
ARRIVAL_RATE = 30.0
MEAN_PROMPT, MEAN_GEN = 32, 16
MAX_BATCH = 4
SEED = 33

COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)

AUTOSCALE = AutoscaleConfig(
    min_replicas=1, max_replicas=6, ttft_slo_s=0.3,
    epoch_s=2.0, sustain_epochs=3, slow_replica_ratio=0.25,
    scale_out_cooldown_s=4.0, mean_prompt=MEAN_PROMPT,
)

# Regression gate: determinism makes the simulated P99 a constant for a
# fixed config; the small headroom only absorbs numeric-library drift.
P99_DRIFT_CEILING = 1.05


def test_autoscaler_beats_equal_cost_fixed_fleets():
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)

    trace = synthesize_trace(
        num_requests=NUM_REQUESTS, arrival_rate=ARRIVAL_RATE,
        mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN,
        arrival_shape="diurnal", diurnal_amplitude=1.0, seed=SEED)

    t0 = time.perf_counter()
    auto = simulate_fleet(
        trace, num_replicas=1, max_batch=MAX_BATCH, costs=COSTS,
        routing="least_outstanding", autoscaler=AUTOSCALE)
    wall_auto = time.perf_counter() - t0
    assert auto.num_completed == NUM_REQUESTS
    p99_auto = auto.ttft_percentile(trace, 99)

    # Every fixed fleet the autoscaled run's average GPU spend could
    # have bought instead (k=ceil would cost strictly more).
    budget = math.floor(auto.avg_replicas)
    assert budget >= 2, "the loop never grew; the comparison is vacuous"
    ladder = []
    for k in range(1, budget + 1):
        fixed = simulate_fleet(trace, num_replicas=k, max_batch=MAX_BATCH,
                               costs=COSTS, routing="least_outstanding")
        ladder.append({
            "replicas": k,
            "ttft_p99_s": round(fixed.ttft_percentile(trace, 99), 4),
        })

    record = {
        "benchmark": "autoscale",
        "config": {
            "num_requests": NUM_REQUESTS,
            "arrival_rate": ARRIVAL_RATE,
            "arrival_shape": "diurnal",
            "diurnal_amplitude": 1.0,
            "mean_prompt": MEAN_PROMPT, "mean_gen": MEAN_GEN,
            "max_batch": MAX_BATCH, "seed": SEED,
            "autoscale": {
                "min_replicas": AUTOSCALE.min_replicas,
                "max_replicas": AUTOSCALE.max_replicas,
                "ttft_slo_s": AUTOSCALE.ttft_slo_s,
                "epoch_s": AUTOSCALE.epoch_s,
                "sustain_epochs": AUTOSCALE.sustain_epochs,
                "slow_replica_ratio": AUTOSCALE.slow_replica_ratio,
                "scale_out_cooldown_s": AUTOSCALE.scale_out_cooldown_s,
            },
        },
        "autoscaled": {
            "ttft_p99_s": round(p99_auto, 4),
            "avg_replicas": round(auto.avg_replicas, 3),
            "pool_size": auto.num_replicas,
            "num_actions": len(auto.autoscale_log),
            "makespan_s": round(auto.makespan, 1),
        },
        "fixed_fleets": ladder,
        "wall_seconds_autoscaled": round(wall_auto, 1),
        "sim_requests_per_wall_s": round(NUM_REQUESTS / wall_auto, 1),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    # The acceptance sweep itself: strictly better than every rung.
    for rung in ladder:
        assert p99_auto < rung["ttft_p99_s"], (
            f"fixed fleet of {rung['replicas']} "
            f"(cost <= avg {auto.avg_replicas:.2f}) beat the autoscaler: "
            f"{rung['ttft_p99_s']:.3f}s <= {p99_auto:.3f}s P99 TTFT")

    if baseline is not None and baseline["config"] == record["config"]:
        ceiling = P99_DRIFT_CEILING * baseline["autoscaled"]["ttft_p99_s"]
        assert p99_auto <= ceiling, (
            f"autoscaled P99 TTFT regressed: {p99_auto:.3f}s vs committed "
            f"{baseline['autoscaled']['ttft_p99_s']:.3f}s (+5% ceiling "
            f"{ceiling:.3f}s)")
