"""Fleet serving: a 4-replica fleet surviving a mid-trace crash.

The layer above one server (``repro.fleet``): a router spreads a trace
over N replicas — each the same scheduler-backed continuous-batching
server as in ``serving_and_tuning.py`` — and a scripted
:class:`~repro.fleet.FaultPlan` kills one of them halfway through. The
dead replica's queued and in-flight requests requeue to the survivors
and restart from scratch, so the fleet still completes 100% of the
trace; the cost shows up as discarded tokens and a fatter tail.

Demonstrated here:

* :func:`~repro.fleet.simulate_fleet` — healthy vs faulted run, load
  shift, multi-lane chrome-trace export;
* :func:`~repro.fleet.functional.run_fleet_functional` — the same placements on
  real model replicas through a crash and a recovery, with every
  completed output (retries included, and those finished by the
  replica's pre-crash incarnation) identical to solo ``model.generate``;
* :func:`~repro.fleet.tune_fleet_deployment` — splitting a GPU budget
  between tensor-parallel scale-up and replica scale-out under a P99
  TTFT SLA.

Run:  python examples/fleet_serving.py
"""

import json
import tempfile

import numpy as np

from repro.engine import (
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    synthesize_trace,
)
from repro.fleet import (
    FaultPlan,
    ReplicaFault,
    simulate_fleet,
    tune_fleet_deployment,
)
from repro.fleet.functional import run_fleet_functional, synthesize_prompts
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, ModelConfig
from repro.model.dense import DenseTransformer

NUM_REPLICAS = 4


def crash_demo() -> None:
    print("=== 4-replica fleet, one crash mid-trace (analytical) ===")
    cluster = dgx_a100_cluster(1)
    lat = DenseLatencyModel(DENSE_ZOO["gpt-13b"], cluster, tp=2)
    costs = DenseStepCost(lat)  # true-KV pricing (repro.engine.costs)
    trace = synthesize_trace(num_requests=120, arrival_rate=80.0,
                             mean_prompt=128, mean_gen=16, seed=9)
    t_crash = trace.duration / 2
    plan = FaultPlan((ReplicaFault(replica=2, time=t_crash),))

    healthy = simulate_fleet(trace, num_replicas=NUM_REPLICAS, costs=costs,
                             max_batch=8, routing="least_outstanding")
    faulted = simulate_fleet(trace, num_replicas=NUM_REPLICAS, costs=costs,
                             max_batch=8, routing="least_outstanding",
                             fault_plan=plan)

    for name, rep in (("healthy", healthy), ("crashed", faulted)):
        print(f"  {name:8s}: {rep.num_completed}/{len(trace.requests)} done, "
              f"per-replica counts {rep.request_counts}, "
              f"{rep.tokens_per_second:6.0f} tok/s, "
              f"TTFT p99 {rep.ttft_percentile(trace, 99) * 1e3:6.1f} ms")
    print(f"  replica 2 died at t={t_crash:.2f}s: {len(faulted.retried)} "
          f"requests requeued to survivors, "
          f"{faulted.tokens_discarded} generated tokens discarded")
    assert faulted.num_completed == len(trace.requests)  # nothing lost

    events = faulted.timeline.to_chrome_trace()
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump({"traceEvents": events}, f)
        print(f"  fleet timeline (replica lanes + router) -> {f.name}")
    # The exported trace tells the report's story: a server lane per
    # replica, one router instant per placement, and the crash instant
    # on replica 2 naming every request it requeued.
    lanes = {e["args"]["lane"] for e in events}
    assert {f"replica{i}/server" for i in range(NUM_REPLICAS)} <= lanes
    routed = [e for e in events if e["args"]["lane"] == "router"]
    assert len(routed) == len(faulted.routing)
    assert all(e["ph"] == "i" for e in routed)
    requeued = sum(d.retry for d in faulted.routing)
    crashes = [(e["args"]["lane"], e["name"]) for e in events
               if e["ph"] == "i" and e["name"].startswith("crash")]
    assert crashes == [("replica2/server", f"crash ({requeued} requeued)")]


def functional_demo() -> None:
    print("\n=== same control plane on real model replicas ===")
    cfg = ModelConfig(name="fleet-demo", hidden=48, layers=3, heads=6,
                      vocab=101, max_seq=64)
    model = DenseTransformer(cfg, seed=3)
    trace = synthesize_trace(num_requests=24, arrival_rate=60.0,
                             mean_prompt=5, mean_gen=5, seed=4)
    # Replica 0 dies mid-trace and reboots with a fresh scheduler; what
    # it finished before dying lives in its past incarnation's session.
    plan = FaultPlan((
        ReplicaFault(replica=0, time=trace.duration / 2),
        ReplicaFault(replica=0, time=trace.duration * 3 / 4,
                     kind="recover"),
    ))
    prompts = synthesize_prompts(trace, vocab=cfg.vocab, seed=1)
    res = run_fleet_functional(
        model, trace, num_replicas=3,
        costs=ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                              step_time=lambda b: 0.01 + 0.001 * b),
        max_batch=4, routing="least_outstanding", fault_plan=plan,
        prompts=prompts)
    for r in trace.requests:  # retries included: no dead token leaks
        solo = model.generate(prompts[r.request_id][None, :],
                              r.gen_tokens)[0]
        assert np.array_equal(res.outputs[r.request_id], solo)
    final = set(res.sessions[0].scheduler.retirement_order)
    from_past = {rid for session in res.past_sessions[0]
                 for rid in session.scheduler.retirement_order} - final
    assert from_past and from_past <= set(res.outputs)
    print(f"  {res.report.num_completed} requests served on real replicas "
          f"({len(res.report.retried)} retried after the crash, "
          f"{len(from_past)} read from replica 0's pre-crash incarnation); "
          "every output identical to solo model.generate.")


def tuning_demo() -> None:
    print("\n=== fleet tuning: GPT-13B, 8-GPU budget, 0.5 s TTFT SLA ===")
    cluster = dgx_a100_cluster(1)
    trace = synthesize_trace(num_requests=60, arrival_rate=20.0,
                             mean_prompt=128, mean_gen=16, seed=7)
    best = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], cluster, trace,
                                 gpu_budget=8, ttft_sla=0.5)
    print(f"  best: {best.replicas} replica(s) x tp={best.tp} "
          f"(= {best.num_gpus} GPUs), max_batch={best.max_batch} -> "
          f"{best.tokens_per_second:.0f} tok/s, "
          f"TTFT p99 {best.ttft_p99 * 1e3:.0f} ms")
    print("  scale-up vs scale-out decided by replay, not rules of thumb.")


if __name__ == "__main__":
    crash_demo()
    functional_demo()
    tuning_demo()
