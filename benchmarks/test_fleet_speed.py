"""Fleet-speed benchmark: simulated requests per wall-second vs replicas.

The fleet event loop's scaling curve, made measurable: one short-request
dense workload (prompt 128, generation 32, gpt-13b TP=4, batch 8,
power-of-two routing) offered at 60% of the pool's capacity through
:func:`~repro.fleet.sim.simulate_fleet` at 1, 4, 16 and 64 replicas.
For each pool size it reports simulated requests per wall-second
(best of two) and two stretch lengths per ``decode_run_cost`` call,
counted by a wrapping :class:`~repro.engine.costs.StepCostModel`: the
steps each call priced, and the steps the replicas committed (their
schedulers' decode iterations). An arrival cuts only the stretch of the
replica it is routed to, so each replica's stretches stay as long as a
lone server's at the same per-replica load while the pool, and with it
the fleet-wide arrival rate, grows.

It writes ``BENCH_fleet_speed.json`` at the repo root. CI's
``bench-speed`` job regenerates and uploads it. It fails when the
largest pool's per-request rate falls below ``LARGEST_VS_ONE_FLOOR`` of
one replica's (a ratio, so machine speed cancels), or on a >30%
regression at any pool size after normalizing machine speed through a
reference leg that runs neither the fleet event loop nor the replica
stepper: the per-step serving oracle
``tests.serving_oracle.simulate_serving_reference`` on a fixed slice of
the one-replica trace. A per-step fleet run
(``_max_run_steps=1``) on a small 4-replica slice must equal the
compressed run first: a speed number for a wrong simulator is
worthless.

Opt-in: skipped unless ``BENCH_SPEED=1``.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    StepCostModel,
    synthesize_trace,
)
from repro.fleet import PowerOfTwoChoices, simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from tests.serving_oracle import simulate_serving_reference

pytestmark = pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy speed benchmark; set BENCH_SPEED=1 to run",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet_speed.json"

NUM_REQUESTS = 20000
REF_REQUESTS = 2000    # per-step oracle slice, one replica
CHECK_REQUESTS = 300   # per-step fleet slice for the equality check
CHECK_REPLICAS = 4

MODEL, TP = "gpt-13b", 4
MEAN_PROMPT, MEAN_GEN = 128, 32
MAX_BATCH = 8
# Requests per second one replica sustains on this workload; arrivals
# come at LOAD of the pool's capacity.
REPLICA_CAPACITY = 27.3
LOAD = 0.6
REPLICAS = (1, 4, 16, 64)
SEED = 33
REPEATS = 2

# CI gate: fail when any pool size's rate falls below this fraction of
# the committed baseline after normalizing out machine speed.
REGRESSION_FLOOR = 0.70
# CI gate: the largest pool must keep at least this share of one
# replica's simulated requests per wall-second.
LARGEST_VS_ONE_FLOOR = 0.5


class CountingCosts(StepCostModel):
    """Forwards to a step-cost model, counting decode pricing calls and
    the decode steps they cover."""

    def __init__(self, inner: StepCostModel) -> None:
        self.inner = inner
        self.run_calls = 0
        self.steps = 0

    def prompt_cost(self, state, request):
        return self.inner.prompt_cost(state, request)

    def decode_cost(self, state):
        self.run_calls += 1
        self.steps += 1
        return self.inner.decode_cost(state)

    def decode_run_cost(self, state, steps):
        self.run_calls += 1
        self.steps += steps
        return self.inner.decode_run_cost(state, steps)


def _costs():
    return DenseStepCost(DenseLatencyModel(
        DENSE_ZOO[MODEL], dgx_a100_cluster(1), tp=TP))


def _trace(n, replicas):
    return synthesize_trace(
        num_requests=n, arrival_rate=LOAD * REPLICA_CAPACITY * replicas,
        mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN, seed=SEED)


def _fleet(trace, replicas, costs, **kwargs):
    return simulate_fleet(
        trace, num_replicas=replicas, costs=costs, max_batch=MAX_BATCH,
        routing=PowerOfTwoChoices(seed=SEED), detail="summary", **kwargs)


def _measure_curve(n):
    """Best-of-REPEATS requests per wall-second per pool size (a fresh
    cost model each run, so memo warm-up is included), with the counting
    cost model and report of each pool size's last run. Each repeat
    sweeps every pool size in turn, so a drift in machine speed on a
    shared host hits the whole curve rather than skewing one end of it
    against the other."""
    traces = {replicas: _trace(n, replicas) for replicas in REPLICAS}
    best = dict.fromkeys(REPLICAS, 0.0)
    last = {}
    for _ in range(REPEATS):
        for replicas in REPLICAS:
            costs = CountingCosts(_costs())
            t0 = time.perf_counter()
            report = _fleet(traces[replicas], replicas, costs)
            best[replicas] = max(best[replicas],
                                 n / (time.perf_counter() - t0))
            assert report.num_completed == n  # every request finished
            last[replicas] = costs, report
    return best, last


def _reference_rate():
    """Best-of-REPEATS requests per wall-second of the per-step serving
    oracle on the one-replica trace's first REF_REQUESTS requests."""
    trace = _trace(REF_REQUESTS, 1)
    best = 0.0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = simulate_serving_reference(trace, costs=_costs(),
                                            max_batch=MAX_BATCH)
        best = max(best, REF_REQUESTS / (time.perf_counter() - t0))
        assert len(report.finish_times) == REF_REQUESTS
    return best


def test_fleet_speed_writes_benchmark_record():
    """Check the compressed fleet against per-step stepping, measure the
    curve and the reference leg, write BENCH_fleet_speed.json, gate each
    pool size vs the committed baseline."""
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)

    # Equivalence spot-check first. (The exhaustive bit-for-bit matrix
    # lives in tests/test_serving_fastpath.py.)
    small = _trace(CHECK_REQUESTS, CHECK_REPLICAS)
    assert (_fleet(small, CHECK_REPLICAS, _costs())
            == _fleet(small, CHECK_REPLICAS, _costs(), _max_run_steps=1))

    ref_requests_per_s = _reference_rate()
    curve = []
    rates, last = _measure_curve(NUM_REQUESTS)
    for replicas in REPLICAS:
        rate, (costs, report) = rates[replicas], last[replicas]
        calls = max(1, costs.run_calls)
        committed = sum(s.step for s in report.schedulers)
        curve.append({
            "replicas": replicas,
            "requests_per_s": round(rate, 1),
            "priced_steps_per_run": round(costs.steps / calls, 2),
            "committed_steps_per_run": round(committed / calls, 2),
            "simulated": {"makespan_s": report.makespan,
                          "total_tokens": report.total_tokens},
        })

    record = {
        "benchmark": "fleet_speed",
        "config": {
            "model": MODEL, "tp": TP,
            "num_requests": NUM_REQUESTS,
            "ref": "per-step serving oracle, one replica",
            "ref_requests": REF_REQUESTS,
            "mean_prompt": MEAN_PROMPT, "mean_gen": MEAN_GEN,
            "max_batch": MAX_BATCH, "routing": "power_of_two",
            "load": LOAD, "replica_capacity_rps": REPLICA_CAPACITY,
            "replicas": list(REPLICAS), "seed": SEED,
        },
        "ref_requests_per_s": round(ref_requests_per_s, 1),
        "curve": curve,
        # Per-request rate of the largest pool relative to one replica.
        "largest_vs_one_replica": round(
            curve[-1]["requests_per_s"] / curve[0]["requests_per_s"], 3),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert record["largest_vs_one_replica"] >= LARGEST_VS_ONE_FLOOR, (
        f"{REPLICAS[-1]} replicas run at {record['largest_vs_one_replica']}"
        f"x one replica's per-request rate, below the "
        f"{LARGEST_VS_ONE_FLOOR}x floor")

    if baseline is not None and baseline["config"] == record["config"]:
        # Normalize machine speed through the reference leg: it runs
        # neither the fleet loop nor the replica stepper, so slowing
        # those lowers the curve but not the floor.
        machine = ref_requests_per_s / baseline["ref_requests_per_s"]
        for got, want in zip(curve, baseline["curve"]):
            # Modeled outputs are deterministic: any drift is a bug.
            assert got["simulated"] == want["simulated"], got["replicas"]
            floor = REGRESSION_FLOOR * want["requests_per_s"] * machine
            assert got["requests_per_s"] >= floor, (
                f"fleet speed at {got['replicas']} replicas regressed: "
                f"{got['requests_per_s']:.0f} requests/s vs a "
                f"machine-normalized floor of {floor:.0f} (baseline "
                f"{want['requests_per_s']:.0f}, machine factor "
                f"{machine:.2f})")
