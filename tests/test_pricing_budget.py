"""Pricing-call budget of a prefix-sharing serving run.

Prompt passes share the decode passes' store: one cost array per pass
shape ``(batch, tokens_per_seq)``. A prompt miss prices its own pass
with one scalar ``step_time`` call and then fills the rest of its
shape's array with one vector call, so a later turn with the same
suffix length over another cached prefix prices nothing; a decode miss
fills its shape's array the same way. This gate holds:

* the run's scalar ``step_time`` calls to the committed count, one per
  prompt miss;
* its vector span calls to the committed count;
* its outputs to those of an uncached pricer that calls ``step_time``
  for every pass, bit for bit (a store keyed on too little would hand
  one shape's costs to another and move them).
"""

import numpy as np

from repro.engine import (
    DenseLatencyModel,
    DenseStepCost,
    StepCostModel,
    simulate_serving,
)
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from repro.scenarios import chat_scenario


class _CountingLatency:
    """Forwards to a latency model, counting its two pricing calls."""

    def __init__(self, inner):
        self.inner = inner
        self.step_calls = 0
        self.span_calls = 0

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.step_calls += 1
        return self.inner.step_time(batch, tokens_per_seq, kv_len)

    def decode_pass_times(self, batch, kv_lens, tokens_per_seq=1):
        self.span_calls += 1
        return self.inner.decode_pass_times(batch, kv_lens, tokens_per_seq)


class _ScalarCost(StepCostModel):
    """Prices every pass with one ``step_time`` call and keeps nothing,
    a decode run one step at a time."""

    def __init__(self, model):
        self.model = model

    def prompt_cost(self, state, request):
        plen = request.prompt_len
        suffix = plen - getattr(request, "shared_prefix_len", 0)
        cost = sum(self.model.step_time(1, suffix, plen))
        if state.batch:
            cost += sum(self.model.step_time(state.batch, 1, state.mean_kv))
        return cost

    def decode_run_cost(self, state, steps):
        return np.array([
            sum(self.model.step_time(state.batch, 1,
                                     state.advanced(i).mean_kv))
            for i in range(steps)], np.float64)


# Committed figures for the run below. Before prompt passes shared the
# store, it made 321 scalar ``step_time`` calls, one per distinct prompt
# pass, and 144 vector span calls, all decode. While a decode miss priced
# only its own unpriced spans, it made 204 vector calls.
_STEP_CALLS = 96
_SPAN_CALLS = 74


def _chat_run(costs):
    """gpt-13b at TP=4, batch 8, 400 chat turns with prefix sharing."""
    trace = chat_scenario(num_sessions=60, session_rate=1.0, mean_prompt=128,
                          mean_gen=16, num_requests=400, seed=11)
    return simulate_serving(trace, costs=costs, max_batch=8,
                            prefix_sharing=True, detail="summary")


def test_prefix_sharing_run_prices_each_prompt_miss_once():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    counted = _CountingLatency(model)
    got = _chat_run(DenseStepCost(counted))
    want = _chat_run(_ScalarCost(model))
    assert counted.step_calls <= _STEP_CALLS, (
        f"{counted.step_calls} scalar step_time calls, budget {_STEP_CALLS}")
    assert counted.span_calls <= _SPAN_CALLS, (
        f"{counted.span_calls} vector span calls, budget {_SPAN_CALLS}")
    for name in ("finish_times", "first_token_times"):
        assert ([v.hex() for v in getattr(got, name).values()]
                == [v.hex() for v in getattr(want, name).values()]), name
