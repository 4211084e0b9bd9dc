"""MoE expert placement walkthrough: uniform -> replicated -> +prefetch.

The paper's trillion-parameter MoE serving results assume tokens spread
evenly over experts. Under a realistic Zipf-skewed gate distribution,
the expert-parallel rank that owns the hottest expert becomes the
dispatch straggler. This example walks the same skewed serving trace
through three expert placements at equal GPU count:

1. **uniform** — the paper's baseline, one contiguous expert range per
   rank, priced with the skew's straggler ratio;
2. **replicated** — the hottest experts replicated across ranks
   (load-balanced bin packing over predicted loads), funded by demoting
   the coldest experts to a streamed tier fetched on demand;
3. **replicated + prefetch** — a gate-history predictor prefetches the
   likely-hot streamed experts, so most fetches overlap with compute.

The run asserts what the walkthrough shows: replication lowers the
straggler ratio, and each step lowers P99 TTFT (replicated+prefetch <
replicated < uniform); it exits nonzero otherwise.

Run:  PYTHONPATH=src python examples/moe_prefetch.py
"""

from repro.engine.costs import MoEStepCost
from repro.engine.moe import MoELatencyModel
from repro.engine.serving_sim import simulate_serving, synthesize_trace
from repro.hardware import dgx_a100_cluster
from repro.model import MOE_PARALLELISM, MOE_ZOO
from repro.moe_placement import (
    GateHistoryPredictor,
    SkewedDispatchSpec,
    calibrated_dispatch,
    plan_placement,
    simulate_expert_stream,
    synthesize_gate_stream,
    uniform_placement,
    zipf_expert_probs,
)

MODEL = "24b-moe-128"
EXPERT_SKEW = 1.2
SEED = 41


def main() -> None:
    config = MOE_ZOO[MODEL]
    par = MOE_PARALLELISM[MODEL]
    cluster = dgx_a100_cluster(par.num_gpus // 8)
    model = MoELatencyModel(config, cluster, par)
    num_experts = config.moe.num_experts

    print(f"=== {MODEL}: {par.num_gpus} GPUs, MP {par.mp_degree} x "
          f"EP {par.ep_degree}, Zipf skew {EXPERT_SKEW} ===")

    # -- the skew, and what the predictor makes of it -----------------------
    probs = zipf_expert_probs(num_experts, EXPERT_SKEW, seed=SEED)
    stream = synthesize_gate_stream(64, 32 * config.moe.top_k, probs,
                                    seed=SEED)
    predictor = GateHistoryPredictor(num_experts)
    for row in stream[:16]:
        predictor.update(row)
    hot = predictor.hot_experts(4)
    print(f"  top-4 gate mass {probs[hot].sum():.0%} "
          f"(uniform would be {4 / num_experts:.0%}); "
          f"predictor's hot set after 16 steps: {hot.tolist()}")

    # -- three placements ---------------------------------------------------
    uniform = SkewedDispatchSpec(
        probs=probs,
        placement=uniform_placement(num_experts, par.ep_degree),
        top_k=config.moe.top_k,
    )
    plan = plan_placement(probs, par.ep_degree, replication=4, num_hot=8)
    replicated = SkewedDispatchSpec(
        probs=probs, placement=plan.placement, top_k=config.moe.top_k,
        streamed=plan.streamed, prefetch_hit_rate=0.0,
        expert_fetch_time=model.expert_fetch_time(),
    )
    prefetched = calibrated_dispatch(
        probs, plan, stream, top_k=config.moe.top_k,
        expert_fetch_time=model.expert_fetch_time(),
    )
    report = simulate_expert_stream(stream, plan.streamed)
    print(f"  replication 4 on the {plan.num_hot} hottest experts demotes "
          f"{len(plan.streamed)} cold experts to the streamed tier")
    uniform_ratio, replicated_ratio = (uniform.load_ratio(32),
                                       replicated.load_ratio(32))
    print(f"  straggler ratio at batch 32: uniform "
          f"{uniform_ratio:.1f}x vs replicated "
          f"{replicated_ratio:.1f}x; prefetch hit rate "
          f"{report.hit_rate:.0%}")
    assert replicated_ratio < uniform_ratio, (replicated_ratio, uniform_ratio)

    # -- end to end through the serving simulator ---------------------------
    trace = synthesize_trace(num_requests=2000, arrival_rate=4.2,
                             mean_prompt=128, mean_gen=256,
                             expert_skew=EXPERT_SKEW, seed=SEED)
    print(f"\n  serving {len(trace.requests)} requests at 4.2 req/s:")
    p99 = {}
    for name, spec in (("uniform", uniform), ("replicated", replicated),
                       ("replicated+prefetch", prefetched)):
        rep = simulate_serving(trace, costs=MoEStepCost(model, skew=spec),
                               max_batch=32)
        p99[name] = rep.ttft_percentile(trace, 99)
        print(f"  {name:20s} P99 TTFT {p99[name]:8.2f} s"
              f"   {rep.tokens_per_second:7.1f} tok/s")
    assert (p99["replicated+prefetch"] < p99["replicated"]
            < p99["uniform"]), p99


if __name__ == "__main__":
    main()
