"""Scenario-zoo benchmark: chat prefix sharing vs the stripped ablation.

The acceptance bar for ``repro.scenarios`` + copy-on-write prefix
sharing: on a chat workload priced with the real ``DenseStepCost``
model (gpt-13b on one DGX-A100, TP=4), the sharing-on run must beat the
ablation on **both** P99 time-to-first-token and peak KV blocks at
equal simulated hardware. The ablation leg is
``strip_prefix_sharing(trace)`` — the same trace with the declared
prefixes zeroed, run under the same session-cache parking policy — so
the comparison isolates the *reuse*: every follow-up turn pays full
prefill and allocates fresh blocks while the parked parent context is
still held. (The ``prefix_sharing=False`` free-at-retire baseline is
*not* the leg: it retains nothing between turns, so its peak is lower
by construction and it answers a different question.)

The run writes ``BENCH_scenarios.json`` at the repo root — the artifact
CI's ``bench-speed`` job regenerates, uploads, and gates: the two wins
must hold, and (the whole pipeline being deterministic) the recorded
P99 must not drift above the committed baseline's by more than 5%.

The heavy leg is opt-in: skipped unless ``BENCH_SPEED=1``. The smoke
test below it always runs (CI's ``benchmarks-smoke`` job picks it up
via ``-k "... or scenarios"``). ``BENCH_SCENARIOS_REQUESTS`` overrides
the trace size.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import (
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving,
)
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from repro.scenarios import chat_scenario, strip_prefix_sharing

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

NUM_REQUESTS = int(os.environ.get("BENCH_SCENARIOS_REQUESTS", "2000"))

# Workload: long prompts relative to generation, so follow-up turns
# carry substantial reusable context — the regime chat serving lives in.
NUM_SESSIONS = 64
SESSION_RATE = 8.0
MEAN_PROMPT, MEAN_GEN = 128, 32
MAX_BATCH = 8
SEED = 33

# Regression gate: determinism makes the simulated P99 a constant for a
# fixed config; the small headroom only absorbs numeric-library drift.
P99_DRIFT_CEILING = 1.05


def _dense_costs() -> DenseStepCost:
    return DenseStepCost(
        DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))


@pytest.mark.skipif(
    os.environ.get("BENCH_SPEED") != "1",
    reason="heavy scenarios benchmark; set BENCH_SPEED=1 to run",
)
def test_chat_prefix_sharing_beats_stripped_ablation():
    baseline = (json.loads(RESULT_PATH.read_text())
                if RESULT_PATH.exists() else None)

    trace = chat_scenario(
        num_sessions=NUM_SESSIONS, session_rate=SESSION_RATE,
        mean_prompt=MEAN_PROMPT, mean_gen=MEAN_GEN,
        num_requests=NUM_REQUESTS, seed=SEED)

    t0 = time.perf_counter()
    on = simulate_serving(trace, costs=_dense_costs(), max_batch=MAX_BATCH)
    wall_on = time.perf_counter() - t0
    off = simulate_serving(strip_prefix_sharing(trace),
                           costs=_dense_costs(), max_batch=MAX_BATCH)
    assert len(on.finish_times) == NUM_REQUESTS == len(off.finish_times)

    p99_on = on.ttft_percentile(trace, 99)
    p99_off = off.ttft_percentile(trace, 99)

    record = {
        "benchmark": "scenarios_chat_prefix_sharing",
        "config": {
            "num_requests": NUM_REQUESTS,
            "num_sessions": NUM_SESSIONS,
            "session_rate": SESSION_RATE,
            "mean_prompt": MEAN_PROMPT, "mean_gen": MEAN_GEN,
            "max_batch": MAX_BATCH, "seed": SEED,
            "model": "gpt-13b", "hardware": "dgx_a100_cluster(1)",
            "tp": 4,
        },
        "sharing_on": {
            "ttft_p99_s": round(p99_on, 4),
            "peak_kv_blocks": on.peak_kv_blocks,
            "kv_blocks_allocated": on.kv_blocks_allocated,
            "prefix_hits": on.prefix_hits,
            "prefix_hit_tokens": on.prefix_hit_tokens,
            "kv_dedup_ratio": round(on.kv_dedup_ratio, 4),
            "makespan_s": round(on.makespan, 1),
        },
        "sharing_stripped": {
            "ttft_p99_s": round(p99_off, 4),
            "peak_kv_blocks": off.peak_kv_blocks,
            "kv_blocks_allocated": off.kv_blocks_allocated,
            "makespan_s": round(off.makespan, 1),
        },
        "wall_seconds_sharing_on": round(wall_on, 1),
        "sim_requests_per_wall_s": round(NUM_REQUESTS / wall_on, 1),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    # The acceptance sweep itself: both wins at equal hardware.
    assert on.prefix_hits > 0, "no turn ever hit a parked prefix"
    assert p99_on < p99_off, (
        f"prefix sharing lost on P99 TTFT: {p99_on:.4f}s vs "
        f"{p99_off:.4f}s stripped")
    assert on.peak_kv_blocks < off.peak_kv_blocks, (
        f"prefix sharing lost on peak KV blocks: {on.peak_kv_blocks} vs "
        f"{off.peak_kv_blocks} stripped")

    if baseline is not None and baseline["config"] == record["config"]:
        ceiling = P99_DRIFT_CEILING * baseline["sharing_on"]["ttft_p99_s"]
        assert p99_on <= ceiling, (
            f"sharing-on P99 TTFT regressed: {p99_on:.4f}s vs committed "
            f"{baseline['sharing_on']['ttft_p99_s']:.4f}s (+5% ceiling "
            f"{ceiling:.4f}s)")


def test_scenarios_smoke():
    """Always-on slice of the same pipeline: a small chat trace shows
    hits and dedup with sharing on, and none with the prefixes
    stripped."""
    trace = chat_scenario(num_sessions=8, session_rate=4.0,
                          mean_prompt=64, mean_gen=16,
                          num_requests=64, seed=5)
    costs = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                            step_time=lambda b: 0.01 + 0.001 * b)
    on = simulate_serving(trace, max_batch=4, costs=costs)
    off = simulate_serving(strip_prefix_sharing(trace), max_batch=4,
                           costs=costs)
    assert len(on.finish_times) == 64 == len(off.finish_times)
    assert on.prefix_hits > 0 and off.prefix_hits == 0
    assert on.kv_dedup_ratio > 0 == off.kv_dedup_ratio
    assert on.peak_kv_blocks < off.peak_kv_blocks
