"""Serving-runtime benchmark: one trace through both scheduler backends.

The functional path (``GenerationSession`` + ``RaggedDecoder``) serves
the trace with real forwards and must beat the old per-request decode
loop on forward count; the analytical path (``simulate_serving``)
replays the same scheduler decisions under the latency model and
reports the numbers an operator quotes: sustained tokens/sec and
P50/P99 time-to-first-token.
"""

import numpy as np

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.engine.generation import GenerationSession
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO, ModelConfig
from repro.model.dense import DenseTransformer

CFG = ModelConfig(name="bench-serving", hidden=32, layers=2, heads=4,
                  vocab=53, max_seq=64)

TRACE = synthesize_trace(num_requests=12, arrival_rate=100.0,
                         mean_prompt=5, mean_gen=6, seed=21)


def _prompts(model):
    rng = np.random.default_rng(17)
    return [rng.integers(0, model.config.vocab, size=r.prompt_len)
            for r in TRACE.requests]


def test_batched_decode_beats_per_request_loop(benchmark):
    """The whole live batch decodes in one forward: total forwards must
    come in well under the per-request loop's one-forward-per-token."""
    model = DenseTransformer(CFG, seed=7)
    prompts = _prompts(model)

    def serve():
        session = GenerationSession(model, max_concurrency=8)
        for r, p in zip(TRACE.requests, prompts):
            session.submit(p, max_new_tokens=r.gen_tokens)
        session.run()
        return session

    session = benchmark.pedantic(serve, rounds=3, iterations=1,
                                 warmup_rounds=1)
    # The old loop issued one forward per generated token per request.
    per_request_forwards = sum(r.gen_tokens for r in TRACE.requests)
    assert session.forward_calls < per_request_forwards
    assert session.tokens_generated == TRACE.total_gen_tokens
    benchmark.extra_info["forward_calls"] = session.forward_calls
    benchmark.extra_info["per_request_forwards"] = per_request_forwards
    benchmark.extra_info["speedup_forwards"] = round(
        per_request_forwards / session.forward_calls, 2)

    # Batched outputs stay exact vs each prompt run alone.
    done = {rid: req for rid, req in session._finished.items()}
    for (rid, req), p, r in zip(sorted(done.items()), prompts,
                                TRACE.requests):
        np.testing.assert_array_equal(
            req.output_ids, model.generate(p[None, :], r.gen_tokens)[0])


def test_analytical_replay_reports_sla_numbers(benchmark):
    """Replay a production-sized trace under the dense latency model and
    report throughput plus TTFT percentiles."""
    trace = synthesize_trace(num_requests=64, arrival_rate=20.0,
                             mean_prompt=128, mean_gen=16, seed=3)
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    costs = DenseStepCost(model)

    rep = benchmark.pedantic(
        lambda: simulate_serving(trace, costs=costs, max_batch=16),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    p50 = rep.ttft_percentile(trace, 50)
    p99 = rep.ttft_percentile(trace, 99)
    assert rep.tokens_per_second > 0
    assert 0 < p50 <= p99
    assert rep.total_tokens == trace.total_gen_tokens
    benchmark.extra_info["tokens_per_second"] = round(rep.tokens_per_second, 1)
    benchmark.extra_info["ttft_p50_ms"] = round(p50 * 1e3, 2)
    benchmark.extra_info["ttft_p99_ms"] = round(p99 * 1e3, 2)
