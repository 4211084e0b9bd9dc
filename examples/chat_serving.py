"""Chat serving with copy-on-write prefix sharing.

A multi-turn chat workload re-sends the whole conversation every turn,
so most prompt tokens are ones the server already processed. This
example builds a chat trace with the scenario zoo, serves it with and
without prefix sharing at equal simulated hardware (gpt-13b on one
DGX-A100, TP=4), and shows what the shared-prefix KV reuse buys:

1. **analytical**: `simulate_serving` prices prefix-hit prompts as
   suffix-only prefill and runs the block ledger — vs the
   `strip_prefix_sharing` ablation (same trace, same session-cache
   parking, prefixes zeroed);
2. **functional**: a real `GenerationSession` forks parked paged-KV
   caches copy-on-write and must report the *same* reuse counters.

The script asserts what it shows: sharing beats the ablation on P99
TTFT and on KV blocks allocated, and every functional output equals
solo `model.generate`. A clean exit is an end-to-end check of the KV
ledger.

Run:  python examples/chat_serving.py
"""

import numpy as np

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving,
)
from repro.engine.generation import GenerationSession
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, ModelConfig
from repro.model.dense import DenseTransformer
from repro.scenarios import chat_scenario, strip_prefix_sharing


def analytical_demo() -> None:
    print("=== chat trace: 64 sessions, ~4 turns each, gpt-13b TP=4 ===")
    trace = chat_scenario(num_sessions=64, session_rate=8.0,
                          mean_prompt=128, mean_gen=32,
                          num_requests=2000, seed=33)
    turns = sum(1 for r in trace.requests if r.turn_index > 0)
    print(f"  {len(trace.requests)} requests, {turns} follow-up turns "
          f"({turns / len(trace.requests):.0%} carry a reusable prefix)")

    costs = DenseStepCost(
        DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4))
    on = simulate_serving(trace, costs=costs, max_batch=8)
    off = simulate_serving(strip_prefix_sharing(trace), costs=costs,
                           max_batch=8)

    print("\n  metric                     sharing on    stripped ablation")
    rows = [
        ("P99 TTFT (s)", f"{on.ttft_percentile(trace, 99):.3f}",
         f"{off.ttft_percentile(trace, 99):.3f}"),
        ("makespan (s)", f"{on.makespan:.1f}", f"{off.makespan:.1f}"),
        ("prefix hits", on.prefix_hits, off.prefix_hits),
        ("prefix hit tokens", on.prefix_hit_tokens, off.prefix_hit_tokens),
        ("KV blocks allocated", on.kv_blocks_allocated,
         off.kv_blocks_allocated),
        ("peak KV blocks", on.peak_kv_blocks, off.peak_kv_blocks),
        ("KV dedup ratio", f"{on.kv_dedup_ratio:.1%}",
         f"{off.kv_dedup_ratio:.1%}"),
    ]
    for name, a, b in rows:
        print(f"  {name:24s} {a!s:>12}    {b!s:>12}")
    assert on.ttft_percentile(trace, 99) < off.ttft_percentile(trace, 99)
    assert on.kv_blocks_allocated < off.kv_blocks_allocated


def functional_demo() -> None:
    """The same mechanism with real forwards: parked caches are forked
    copy-on-write and every output still equals solo generation."""
    print("\n=== functional: real session, COW forks, exact outputs ===")
    cfg = ModelConfig(name="chat-demo", hidden=32, layers=2, heads=4,
                      vocab=101, max_seq=128)
    model = DenseTransformer(cfg, seed=7)
    trace = chat_scenario(num_sessions=3, session_rate=1.0,
                          mean_prompt=12, mean_gen=4,
                          num_requests=10, seed=11)

    session = GenerationSession(model, seed=0, max_concurrency=4,
                                kv_block_size=4, prefix_sharing=True)
    rng = np.random.default_rng(0)
    step = 0
    pending = sorted(trace.requests, key=lambda r: r.arrival)
    while pending or session.num_waiting or session.num_active:
        while pending and pending[0].arrival <= step * 0.05:
            r = pending.pop(0)
            session.submit(rng.integers(0, cfg.vocab, size=r.prompt_len),
                           max_new_tokens=r.gen_tokens,
                           request_id=r.request_id, session=r.session,
                           tenant=r.tenant,
                           shared_prefix_len=r.shared_prefix_len)
        session.step()
        step += 1
    done = {r.request_id: session.result(r.request_id)
            for r in trace.requests}

    reused = sum(1 for g in done.values() if g.prefix_reused > 0)
    exact = all(
        np.array_equal(
            g.output_ids,
            model.generate(np.asarray(g.prompt)[None, :],
                           len(g.output_ids) - len(g.prompt))[0])
        for g in done.values())
    print(f"  {len(done)} requests served, {reused} adopted a parked prefix")
    print(f"  prefix hits {session.prefix_hits}, "
          f"hit tokens {session.prefix_hit_tokens}, "
          f"blocks saved {session.kv_blocks_saved}")
    print(f"  every output equals solo model.generate: {exact}")
    assert exact


if __name__ == "__main__":
    analytical_demo()
    functional_demo()
