"""MoE trace-serving benchmark: a Table II deployment behind the
serving and fleet stack via the step-cost interface.

Before the pricing refactor only dense models could be served; these
benchmarks time an MoE deployment end to end — the shared scheduler,
the fleet router with a mid-trace crash, and the deployment tuner — all
priced by :class:`~repro.engine.costs.MoEStepCost` at the live batch's
true KV lengths.
"""

import math

import numpy as np

from repro.engine import (
    MoELatencyModel,
    MoEStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.fleet import (
    FaultPlan,
    ReplicaFault,
    simulate_fleet,
    tune_fleet_deployment,
)
from repro.hardware import dgx_a100_cluster
from repro.model import MOE_PARALLELISM, MOE_ZOO, MoEParallelism

CLUSTER = dgx_a100_cluster(16)  # 128 GPUs: one full EP-128 deployment
CONFIG = MOE_ZOO["1.3b-moe-128"]
TRACE = synthesize_trace(num_requests=150, arrival_rate=60.0,
                         mean_prompt=96, mean_gen=12, seed=21)


def _costs():
    model = MoELatencyModel(CONFIG, CLUSTER, MOE_PARALLELISM[CONFIG.name],
                            optimized=True)
    return MoEStepCost(model)


def test_moe_serving_trace(benchmark):
    """One MoE replica serves the full trace through the shared
    scheduler; throughput beats the sequential (batch-1) floor."""
    costs = _costs()

    def serve():
        return simulate_serving(TRACE, costs=costs, max_batch=16)

    rep = benchmark.pedantic(serve, rounds=3, iterations=1, warmup_rounds=1)
    assert len(rep.finish_times) == len(TRACE.requests)
    assert rep.total_tokens == sum(r.gen_tokens for r in TRACE.requests)
    assert math.isfinite(rep.makespan) and rep.makespan > 0
    sequential = simulate_serving(TRACE, costs=costs, max_batch=1)
    assert rep.tokens_per_second > sequential.tokens_per_second
    benchmark.extra_info["tok_s"] = round(rep.tokens_per_second, 1)
    benchmark.extra_info["batching_speedup"] = round(
        rep.tokens_per_second / sequential.tokens_per_second, 2)


def test_moe_fleet_failover(benchmark):
    """Three MoE replicas behind least-outstanding routing survive a
    mid-trace crash with 100% completion."""
    costs = _costs()
    plan = FaultPlan((ReplicaFault(replica=1, time=TRACE.duration / 2),))

    def serve():
        return simulate_fleet(TRACE, num_replicas=3, costs=costs,
                              max_batch=16, routing="least_outstanding",
                              fault_plan=plan)

    faulted = benchmark.pedantic(serve, rounds=3, iterations=1,
                                 warmup_rounds=1)
    healthy = simulate_fleet(TRACE, num_replicas=3, costs=costs,
                             max_batch=16, routing="least_outstanding")
    assert faulted.num_completed == len(TRACE.requests)
    assert np.isfinite(faulted.makespan)
    assert faulted.request_counts[1] < healthy.request_counts[1]
    benchmark.extra_info["requeued"] = len(faulted.retried)
    benchmark.extra_info["ttft_p99_degradation"] = round(
        faulted.ttft_percentile(TRACE, 99)
        / healthy.ttft_percentile(TRACE, 99), 2)


def test_moe_serving_tuner(benchmark):
    """The deployment tuner searches Table II-shaped MP x EP deployments
    for an MoE model and returns a feasible winner."""
    trace = synthesize_trace(num_requests=40, arrival_rate=25.0,
                             mean_prompt=96, mean_gen=12, seed=22)

    def tune():
        return tune_fleet_deployment(CONFIG, CLUSTER, trace,
                                     gpu_budget=CLUSTER.num_gpus)

    best = benchmark.pedantic(tune, rounds=3, iterations=1, warmup_rounds=1)
    assert best.num_gpus <= CLUSTER.num_gpus
    assert CONFIG.heads % best.tp == 0
    assert best.tokens_per_second > 0
    # The winner's numbers must reproduce outside the search loop.
    per_replica = best.num_gpus // best.replicas
    par = MoEParallelism(mp_degree=best.tp, ep_degree=per_replica,
                         expert_slicing=1, num_gpus=per_replica)
    model = MoELatencyModel(CONFIG, CLUSTER, par, optimized=True)
    rep = simulate_fleet(trace, num_replicas=best.replicas,
                         costs=MoEStepCost(model), max_batch=best.max_batch,
                         routing=best.routing)
    assert rep.tokens_per_second == best.tokens_per_second
    assert rep.ttft_percentile(trace, 99) == best.ttft_p99
    benchmark.extra_info["winner_mp"] = best.tp
    benchmark.extra_info["winner_gpus"] = best.num_gpus
    benchmark.extra_info["winner_max_batch"] = best.max_batch
    benchmark.extra_info["winner_tok_s"] = round(best.tokens_per_second, 1)
