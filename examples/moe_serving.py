"""MoE (and ZeRO) trace serving through the step-cost interface.

The serving stack — shared scheduler, fleet router, tuners — makes
lifecycle decisions; a :class:`~repro.engine.costs.StepCostModel` turns
them into seconds. This example plugs the paper's other two pillars
into the same stack that ``serving_and_tuning.py`` drives with a dense
model:

* :class:`~repro.engine.MoEStepCost` wraps a Table II MoE deployment
  (MP x EP, Sec. V) — one replica serves a trace, then a 3-replica
  fleet survives a mid-trace crash, then the deployment tuner searches
  replicas x MP x EP x max_batch;
* :class:`~repro.engine.ZeroStepCost` wraps the ZeRO-Inference streamed
  engine (Sec. VI) — same trace, GPU-budget hardware, throughput over
  latency.

Run:  python examples/moe_serving.py
"""

from repro.engine import (
    MoELatencyModel,
    MoEStepCost,
    ZeroStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.fleet import (
    FaultPlan,
    ReplicaFault,
    simulate_fleet,
    tune_fleet_deployment,
)
from repro.hardware import dgx2_v100, dgx_a100_cluster
from repro.model import MOE_PARALLELISM, MOE_ZOO, get_model
from repro.zero import ZeroInferenceEngine

CONFIG = MOE_ZOO["1.3b-moe-128"]
CLUSTER = dgx_a100_cluster(16)  # 128 GPUs: one EP-128 deployment


def moe_serving_demo() -> None:
    print("=== MoE replica serving a trace (Table II deployment) ===")
    par = MOE_PARALLELISM[CONFIG.name]
    costs = MoEStepCost(MoELatencyModel(CONFIG, CLUSTER, par, optimized=True))
    trace = synthesize_trace(num_requests=100, arrival_rate=40.0,
                             mean_prompt=96, mean_gen=12, seed=17)
    rep = simulate_serving(trace, costs=costs, max_batch=16)
    print(f"  {CONFIG.name} on mp={par.mp_degree} x ep={par.ep_degree} "
          f"({par.num_gpus} GPUs): {rep.tokens_per_second:7.0f} tok/s, "
          f"TTFT p99 {rep.ttft_percentile(trace, 99) * 1e3:6.1f} ms")


def moe_fleet_demo() -> None:
    print("\n=== 3 MoE replicas, one crash mid-trace ===")
    par = MOE_PARALLELISM[CONFIG.name]
    costs = MoEStepCost(MoELatencyModel(CONFIG, CLUSTER, par, optimized=True))
    trace = synthesize_trace(num_requests=120, arrival_rate=60.0,
                             mean_prompt=96, mean_gen=12, seed=18)
    plan = FaultPlan((ReplicaFault(replica=1, time=trace.duration / 2),))
    rep = simulate_fleet(trace, num_replicas=3, costs=costs, max_batch=16,
                         routing="least_outstanding", fault_plan=plan)
    assert rep.num_completed == len(trace.requests)
    print(f"  {rep.num_completed}/{len(trace.requests)} done after the "
          f"crash, per-replica counts {rep.request_counts}, "
          f"{len(rep.retried)} requeued, "
          f"{rep.tokens_discarded} tokens discarded")


def moe_tuning_demo() -> None:
    print("\n=== deployment tuner over MP x EP deployments ===")
    trace = synthesize_trace(num_requests=40, arrival_rate=25.0,
                             mean_prompt=96, mean_gen=12, seed=19)
    best = tune_fleet_deployment(CONFIG, CLUSTER, trace,
                                 gpu_budget=CLUSTER.num_gpus)
    print(f"  best: {best.replicas} x mp={best.tp} ({best.num_gpus} GPUs), "
          f"max_batch={best.max_batch} -> "
          f"{best.tokens_per_second:.0f} tok/s "
          f"(TTFT p99 {best.ttft_p99 * 1e3:.0f} ms)")


def zero_serving_demo() -> None:
    print("\n=== ZeRO-Inference serving the same trace shape ===")
    engine = ZeroInferenceEngine(get_model("gpt-neox-20b"), dgx2_v100(1))
    costs = ZeroStepCost(engine)
    trace = synthesize_trace(num_requests=12, arrival_rate=0.02,
                             mean_prompt=96, mean_gen=4, seed=20)
    rep = simulate_serving(trace, costs=costs, max_batch=8)
    print(f"  gpt-neox-20b streamed from {engine.placement}: "
          f"{rep.tokens_per_second:5.2f} tok/s — every step re-fetches "
          "the weights, so batch (not latency) is the lever (Sec. VI).")


if __name__ == "__main__":
    moe_serving_demo()
    moe_fleet_demo()
    moe_tuning_demo()
    zero_serving_demo()
