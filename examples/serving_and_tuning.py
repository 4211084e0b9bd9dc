"""Serving sessions and deployment tuning — the production framing.

Sec. I frames inference as meeting a latency SLA while maximizing
throughput, over requests that arrive and finish independently. This
example demonstrates the two extension features built on that framing:

* :class:`~repro.engine.generation.GenerationSession` — continuous batching over a
  real (tiny) model: one shared :class:`~repro.engine.Scheduler` admits
  requests into bounded slots (pluggable policy), every decode step is
  ONE batched forward over paged KV blocks, and every output is
  identical to running that prompt alone;
* :func:`~repro.engine.simulate_serving` — the analytical backend
  replaying the *same* scheduler priced by the latency model, with a
  chrome-trace exportable timeline;
* :func:`~repro.engine.tune_dense_deployment` /
  :func:`~repro.fleet.tune_fleet_deployment` — search deployments for
  the best SLA-compliant throughput, steady-state or trace-level. The
  trace-level winner is priced by the model the simulator runs, so it
  reproduces exactly under :func:`~repro.fleet.simulate_fleet`.

Run:  python examples/serving_and_tuning.py
"""

import json
import tempfile

import numpy as np

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving,
    synthesize_trace,
    tune_dense_deployment,
)
from repro.engine.generation import GenerationSession
from repro.fleet import simulate_fleet, tune_fleet_deployment
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, ModelConfig
from repro.model.dense import DenseTransformer


def serving_demo() -> None:
    print("=== continuous-batching serving session (functional) ===")
    cfg = ModelConfig(name="serve-demo", hidden=48, layers=3, heads=6,
                      vocab=101, max_seq=64)
    model = DenseTransformer(cfg, seed=3)
    session = GenerationSession(model, max_concurrency=3)

    rng = np.random.default_rng(0)
    rids = []
    for want in (3, 6, 2, 5, 4):
        prompt = rng.integers(0, cfg.vocab, size=4)
        rids.append(session.submit(prompt, max_new_tokens=want))

    # Step manually so the continuous-batching dynamics are visible.
    while session.num_active or session.num_waiting:
        finished = session.step()
        state = (f"step {session.steps_run:2d}: active={session.num_active} "
                 f"waiting={session.num_waiting}")
        if finished:
            state += f"  finished={finished}"
        print("  " + state)

    for rid in rids:
        req = session.result(rid)
        assert np.array_equal(  # isolation: same as running alone
            req.output_ids,
            model.generate(req.prompt[None, :], len(req.generated))[0],
        )
    print(f"  {len(rids)} requests, {session.tokens_generated} tokens in "
          f"{session.forward_calls} forwards (vs {session.tokens_generated} "
          "for a per-request loop), all outputs identical to solo runs.")
    print(f"  admission order: {session.scheduler.admission_order}, "
          f"kv blocks now in use: {session.kv_blocks_in_use}")

    # Same workload under the shortest-prompt policy: the scheduler, not
    # the execution engine, decides who runs.
    sp = GenerationSession(model, max_concurrency=1,
                           policy="shortest_prompt")
    rng = np.random.default_rng(0)
    for want, plen in ((2, 6), (2, 1), (2, 3)):
        sp.submit(rng.integers(0, cfg.vocab, size=plen), max_new_tokens=want)
    sp.run()
    print(f"  shortest-prompt admission order: "
          f"{sp.scheduler.admission_order} (submitted 0, 1, 2)")


def analytical_serving_demo() -> None:
    print("\n=== analytical replay: the same scheduler, priced ===")
    cluster = dgx_a100_cluster(1)
    lat = DenseLatencyModel(DENSE_ZOO["gpt-13b"], cluster, tp=4)
    # True-KV pricing: each decode step costs what the live batch's
    # actual context lengths imply (see repro.engine.costs).
    trace = synthesize_trace(num_requests=80, arrival_rate=25.0,
                             mean_prompt=128, mean_gen=16, seed=5)
    rep = simulate_serving(trace, costs=DenseStepCost(lat), max_batch=16)
    print(f"  {len(trace.requests)} requests -> "
          f"{rep.tokens_per_second:7.0f} tok/s, "
          f"TTFT p50 {rep.ttft_percentile(trace, 50) * 1e3:6.1f} ms, "
          f"p99 {rep.ttft_percentile(trace, 99) * 1e3:6.1f} ms")
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump({"traceEvents": rep.timeline.to_chrome_trace()}, f)
        print(f"  scheduler timeline -> {f.name} "
              "(load in ui.perfetto.dev)")

    best = tune_fleet_deployment(DENSE_ZOO["gpt-13b"], cluster, trace,
                                 gpu_budget=8, ttft_sla=1.0)
    print(f"  best under 1 s P99-TTFT SLA: {best.replicas} x tp={best.tp} "
          f"max_batch={best.max_batch} -> {best.tokens_per_second:.0f} tok/s "
          f"(p99 TTFT {best.ttft_p99 * 1e3:.0f} ms)")
    assert best.ttft_p99 <= 1.0 and best.num_gpus <= 8
    # The winner reproduces outside the search, bit for bit.
    again = simulate_fleet(
        trace, num_replicas=best.replicas,
        costs=DenseStepCost(DenseLatencyModel(DENSE_ZOO["gpt-13b"], cluster,
                                              tp=best.tp)),
        max_batch=best.max_batch, routing=best.routing)
    assert again.tokens_per_second == best.tokens_per_second
    assert again.ttft_percentile(trace, 99) == best.ttft_p99
    print("  re-simulated winner: identical tok/s and p99 TTFT.")


def tuning_demo() -> None:
    print("\n=== deployment tuning: GPT-13B on 2 DGX-A100 nodes ===")
    cluster = dgx_a100_cluster(2)
    cfg = DENSE_ZOO["gpt-13b"]
    print(f"  {'SLA':>8s} {'TP':>3s} {'PP':>3s} {'batch':>6s} "
          f"{'token ms':>9s} {'tok/s':>8s}")
    prev = 0.0
    for sla_ms in (12, 20, 40, None):
        r = tune_dense_deployment(
            cfg, cluster, prompt_len=128, gen_tokens=8,
            latency_sla=None if sla_ms is None else sla_ms * 1e-3,
            max_gpus=8, hybrid_factors=(1,),
        )
        label = "none" if sla_ms is None else f"{sla_ms} ms"
        print(f"  {label:>8s} {r.tp:3d} {r.pp:3d} {r.batch:6d} "
              f"{r.token_latency * 1e3:9.2f} {r.tokens_per_second:8.0f}")
        assert sla_ms is None or r.token_latency <= sla_ms * 1e-3
        assert r.num_gpus <= 8 and r.tokens_per_second >= prev
        prev = r.tokens_per_second
    print("  tighter SLAs force smaller batches; throughput is the price.")


if __name__ == "__main__":
    serving_demo()
    analytical_serving_demo()
    tuning_demo()
