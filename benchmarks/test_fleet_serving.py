"""Fleet-serving benchmark: one trace across a replica fleet, with and
without a mid-trace crash.

Times the analytical fleet simulator at production trace sizes and
asserts the qualitative failover shape: the crashed run still completes
everything, survivors absorb the dead replica's load, and the tail
degrades without the makespan diverging.
"""

import numpy as np

from repro.engine import DenseLatencyModel, DenseStepCost, synthesize_trace
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO

TRACE = synthesize_trace(num_requests=200, arrival_rate=80.0,
                         mean_prompt=128, mean_gen=16, seed=13)


def _costs():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=2)
    return DenseStepCost(model)


def test_fleet_scales_out_a_serving_trace(benchmark):
    """4 replicas behind least-outstanding routing: near-linear scale-out
    on an arrival-bound trace."""
    costs = _costs()

    def serve():
        return (
            simulate_fleet(TRACE, num_replicas=1, costs=costs, max_batch=8,
                           routing="least_outstanding"),
            simulate_fleet(TRACE, num_replicas=4, costs=costs, max_batch=8,
                           routing="least_outstanding"),
        )

    solo, fleet = benchmark.pedantic(serve, rounds=3, iterations=1,
                                     warmup_rounds=1)
    assert fleet.num_completed == len(TRACE.requests)
    assert fleet.makespan < solo.makespan
    speedup = solo.makespan / fleet.makespan
    assert speedup > 1.5  # scale-out must actually buy wall-clock
    benchmark.extra_info["makespan_speedup_4x"] = round(speedup, 2)
    benchmark.extra_info["fleet_tok_s"] = round(fleet.tokens_per_second, 1)


def test_fleet_survives_replica_crash(benchmark):
    """Kill 1 of 4 replicas mid-trace: 100% completion via requeue, load
    shifts to the survivors, the P99 tail pays for it."""
    costs = _costs()
    t_crash = TRACE.duration / 2
    plan = FaultPlan((ReplicaFault(replica=1, time=t_crash),))

    def serve():
        return simulate_fleet(TRACE, num_replicas=4, costs=costs, max_batch=8,
                              routing="least_outstanding", fault_plan=plan)

    faulted = benchmark.pedantic(serve, rounds=3, iterations=1,
                                 warmup_rounds=1)
    healthy = simulate_fleet(TRACE, num_replicas=4, costs=costs, max_batch=8,
                             routing="least_outstanding")
    assert faulted.num_completed == len(TRACE.requests)
    assert np.isfinite(faulted.makespan)
    assert faulted.retried
    assert faulted.request_counts[1] < healthy.request_counts[1]
    h99 = healthy.ttft_percentile(TRACE, 99)
    f99 = faulted.ttft_percentile(TRACE, 99)
    assert f99 > h99
    benchmark.extra_info["requeued"] = len(faulted.retried)
    benchmark.extra_info["tokens_discarded"] = faulted.tokens_discarded
    benchmark.extra_info["ttft_p99_degradation"] = round(f99 / h99, 2)
