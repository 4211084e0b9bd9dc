"""Tests for the step-cost pricing interface (engine/costs.py).

Covers the adapter contract every model family must satisfy (finite,
strictly positive costs, monotone non-decreasing in batch size and KV
length), the pass-price guard, and the guarantee the event-compressed
simulators rest on: vectorized run pricing equals the per-step scalar
loop bit-for-bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BatchState,
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    PromptShape,
    StepCostModel,
    ZeroStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.hardware import dgx2_v100, dgx_a100_cluster
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO, get_model
from repro.zero import ZeroInferenceEngine


@pytest.fixture(scope="module")
def dense_cost():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    return DenseStepCost(model)


@pytest.fixture(scope="module")
def moe_cost():
    cluster = dgx_a100_cluster(16)  # 128 GPUs
    cfg = MOE_ZOO["1.3b-moe-128"]
    model = MoELatencyModel(cfg, cluster, MOE_PARALLELISM[cfg.name],
                            optimized=True)
    return MoEStepCost(model)


@pytest.fixture(scope="module")
def zero_cost():
    engine = ZeroInferenceEngine(get_model("gpt-neox-20b"), dgx2_v100(1))
    return ZeroStepCost(engine)


class TestBatchState:
    def test_empty_state_is_legal(self):
        s = BatchState(0, 0)
        assert s.batch == 0
        assert s.total_kv == 0
        assert s.mean_kv == 0

    def test_accounting(self):
        s = BatchState.of((100, 101, 205))
        assert s.batch == 3
        assert s.total_kv == 406
        assert s.mean_kv == math.ceil(406 / 3)

    @pytest.mark.parametrize("total_kv", [2**53, 2**53 + 1, 2**60 + 3])
    def test_mean_kv_is_the_exact_integer_ceiling(self, total_kv):
        """A float quotient gave ``BatchState(1, 2**53 + 1).mean_kv ==
        2**53``; ``decode_run_cost`` reads the exact ceiling, so a
        prompt's riders read another entry than a decode run did."""
        for batch in (1, 3, 7):
            state = BatchState(batch, total_kv)
            assert state.mean_kv == -(-total_kv // batch)
            assert (state.mean_kv - 1) * batch < total_kv <= (
                state.mean_kv * batch)

    def test_uniform(self):
        assert BatchState.uniform(4, 128) == BatchState.of((128,) * 4)
        assert BatchState.uniform(0, 128) == BatchState(0, 0)
        with pytest.raises(ValueError):
            BatchState.uniform(-1, 128)

    def test_rejects_nonpositive_kv(self):
        with pytest.raises(ValueError):
            BatchState.of((4, 0))

    @pytest.mark.parametrize("batch, total_kv", [
        (-1, 0), (3, 2), (0, 5), (1, -1)])
    def test_rejects_inconsistent_counts(self, batch, total_kv):
        # Every live sequence holds at least one token, and only an empty
        # batch holds none.
        with pytest.raises(ValueError, match="0 <= batch <= total_kv"):
            BatchState(batch, total_kv)

    @pytest.mark.parametrize("batch, total_kv", [(2.0, 4), (2, 4.0)])
    def test_rejects_non_int_counts(self, batch, total_kv):
        with pytest.raises(TypeError, match="must be ints"):
            BatchState(batch, total_kv)

    def test_prompt_shape_validates(self):
        with pytest.raises(ValueError):
            PromptShape(0)

    @pytest.mark.parametrize("args, name", [
        ((2.5,), "prompt_len"), ((math.nan,), "prompt_len"),
        ((128, 1.5), "shared_prefix_len"), ((128, math.nan),
                                             "shared_prefix_len")])
    def test_prompt_shape_takes_integers(self, args, name):
        """A fractional length used to construct: the dense adapter then
        failed deep in ``LayerShape`` and the closure adapter priced it
        silently."""
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            PromptShape(*args)
        assert PromptShape(np.int64(128), np.int32(4)).shared_prefix_len == 4


class TestClosureStepCost:
    def test_wraps_closures(self):
        got = ClosureStepCost(lambda b, p: 2.5, lambda b: 0.5)
        assert got.prompt_cost(BatchState.uniform(3, 7), PromptShape(16)) == 2.5
        assert got.decode_cost(BatchState.uniform(3, 7)) == 0.5

    def test_closure_convention_includes_newcomer(self):
        # prompt_time's batch counts the admitted request too.
        got = ClosureStepCost(lambda b, p: float(b * 1000 + p),
                              lambda b: float(b))
        assert got.prompt_cost(BatchState(0, 0), PromptShape(9)) == 1009.0
        assert got.prompt_cost(BatchState.uniform(3, 50), PromptShape(9)) == 4009.0


def _adapter_cases(cost, prompt_len=64):
    """(name, value) cost samples every adapter must price sensibly."""
    return [
        ("prompt-idle", cost.prompt_cost(BatchState(0, 0),
                                         PromptShape(prompt_len))),
        ("prompt-riders", cost.prompt_cost(BatchState.uniform(4, 96),
                                           PromptShape(prompt_len))),
        ("decode-1", cost.decode_cost(BatchState.uniform(1, 32))),
        ("decode-ragged", cost.decode_cost(BatchState.of((17, 128, 301)))),
    ]


class TestAdapterContract:
    """Shared contract: finite, positive, monotone in batch and KV."""

    @pytest.fixture(params=["dense", "moe", "zero"])
    def cost(self, request, dense_cost, moe_cost, zero_cost):
        return {"dense": dense_cost, "moe": moe_cost,
                "zero": zero_cost}[request.param]

    def test_finite_and_positive(self, cost):
        for name, value in _adapter_cases(cost):
            assert math.isfinite(value), name
            assert value > 0.0, name

    def test_decode_monotone_in_batch(self, cost):
        costs = [cost.decode_cost(BatchState.uniform(b, 128))
                 for b in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_decode_monotone_in_kv(self, cost):
        costs = [cost.decode_cost(BatchState.uniform(4, kv))
                 for kv in (16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_prompt_monotone_in_prompt_len(self, cost):
        state = BatchState.uniform(2, 128)
        costs = [cost.prompt_cost(state, PromptShape(p))
                 for p in (16, 64, 256, 1024)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_prompt_riders_cost_extra(self, cost):
        idle = cost.prompt_cost(BatchState(0, 0), PromptShape(128))
        loaded = cost.prompt_cost(BatchState.uniform(8, 128), PromptShape(128))
        assert loaded > idle

    def test_memoization_stable(self, cost):
        state = BatchState.uniform(3, 200)
        assert cost.decode_cost(state) == cost.decode_cost(state)


class _ConstLatency:
    """A latency model whose every pass costs ``value`` seconds."""

    def __init__(self, value):
        self.value = value

    def step_time(self, batch, tokens_per_seq, kv_len):
        return self.value, 0.0


class _KvLatency:
    """A latency model whose pass cost grows with batch and KV."""

    def step_time(self, batch, tokens_per_seq, kv_len):
        return 1e-3 * batch * tokens_per_seq + 1e-6 * kv_len, 0.0


class _VectorKvLatency(_KvLatency):
    """A latency model with the vector decode-pass method, returning NaN
    from KV ``bad_from`` on; records every span it is asked for."""

    def __init__(self, bad_from):
        self.bad_from = bad_from
        self.spans = []

    def decode_pass_times(self, batch, kv_lens, tokens_per_seq=1):
        kvs = kv_lens.tolist()
        self.spans.append((batch, kvs))
        return np.array([math.nan if kv >= self.bad_from
                         else sum(self.step_time(batch, 1, kv))
                         for kv in kvs])


class _VectorPassLatency(_KvLatency):
    """A latency model with the vector pass method for any token count,
    returning NaN at KV ``bad`` on both paths; records every scalar pass
    and every span it is asked for."""

    def __init__(self, bad):
        self.bad = bad
        self.asked = []
        self.spans = []

    def _seconds(self, batch, tokens_per_seq, kv):
        if kv == self.bad:
            return math.nan
        return sum(_KvLatency.step_time(self, batch, tokens_per_seq, kv))

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.asked.append((batch, tokens_per_seq, kv_len))
        return self._seconds(batch, tokens_per_seq, kv_len), 0.0

    def decode_pass_times(self, batch, kv_lens, tokens_per_seq=1):
        kvs = kv_lens.tolist()
        self.spans.append((batch, tokens_per_seq, kvs))
        return np.array([self._seconds(batch, tokens_per_seq, kv)
                         for kv in kvs])


class _RecordingLatency(_KvLatency):
    """A latency model with only ``step_time``, recording every pass."""

    def __init__(self):
        self.asked = []

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.asked.append((batch, tokens_per_seq, kv_len))
        return super().step_time(batch, tokens_per_seq, kv_len)


class _ForwardPassCounter:
    """Exposes only a ZeRO engine's ``forward_pass``, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def forward_pass(self, **shape):
        self.calls += 1
        return self.inner.forward_pass(**shape)


class _StepTimeOnly:
    """Exposes only a real latency model's ``step_time``, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def step_time(self, batch, tokens_per_seq, kv_len):
        self.calls += 1
        return self.inner.step_time(batch, tokens_per_seq, kv_len)


class TestPassPriceGuard:
    """Each freshly priced pass must be finite and >= 0. A bad price is
    never memoized, so asking again fails again."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
    def test_bad_pass_raises(self, bad):
        cost = DenseStepCost(_ConstLatency(bad))
        for _ in range(2):
            with pytest.raises(ValueError, match=(
                    r"DenseStepCost priced a pass of shape \(batch=4, "
                    r"tokens_per_seq=1, kv=16\)")):
                cost.decode_cost(BatchState.uniform(4, 16))
        with pytest.raises(ValueError):
            cost.decode_run_cost(BatchState.uniform(2, 8), 3)
        with pytest.raises(ValueError):
            cost.prompt_cost(BatchState(0, 0), PromptShape(8))

    def test_zero_cost_is_legal(self):
        cost = DenseStepCost(_ConstLatency(0.0))
        assert cost.decode_cost(BatchState.uniform(4, 16)) == 0.0

    def test_vector_span_names_first_bad_kv_and_memoizes_nothing(self):
        """A decode miss prices its shape's whole array in one vector call
        and checks the asked entries first: the first bad asked KV is
        named, and no entry is kept, so asking again prices (and fails)
        again."""
        model = _VectorKvLatency(bad_from=20)
        cost = DenseStepCost(model)
        for _ in range(2):
            with pytest.raises(ValueError, match=(
                    r"DenseStepCost priced a pass of shape \(batch=1, "
                    r"tokens_per_seq=1, kv=20\) at nan s")):
                cost.decode_run_cost(BatchState.uniform(1, 16), 8)
        # The run asks for KV 16..23; the array holds KV 1..23.
        assert model.spans == [(1, list(range(1, 24)))] * 2
        # The good entries before the bad one were not kept either.
        assert cost.decode_cost(BatchState.uniform(1, 16)) == 1e-3 + 16e-6
        assert model.spans[2:] == [(1, list(range(1, 17)))]
        # Growing to KV 32 asks for KV 16..17: the bad unasked KVs 20..32
        # keep none of the fill, only the asked KV 17, and the next miss
        # tries the fill again.
        assert cost.decode_run_cost(BatchState.uniform(1, 16), 2).tolist() \
            == [1e-3 + 16e-6, 1e-3 + 17e-6]
        assert model.spans[3:] == [(1, list(range(17, 33)))]
        assert cost.decode_cost(BatchState.uniform(1, 17)) == 1e-3 + 17e-6
        assert cost.decode_cost(BatchState.uniform(1, 18)) == 1e-3 + 18e-6
        assert model.spans[4:] == [(1, list(range(18, 33)))]

    def test_prompt_fill_with_an_unasked_bad_entry_keeps_none(self):
        """A prompt miss prices its own pass alone, then fills the rest
        of its shape's array in one vector call. A bad entry the caller
        did not ask for keeps none of the fill, and a later miss of the
        same shape tries the fill again."""
        model = _VectorPassLatency(bad=30)
        cost = DenseStepCost(model)
        idle = BatchState(0, 0)
        want = 1e-3 * 8 + 1e-6 * 32
        # Shape (1, 8) is indexed by the shared prefix: an unshared
        # prompt is entry 0 and needs no fill.
        cost.prompt_cost(idle, PromptShape(8))
        assert model.asked == [(1, 8, 8)] and model.spans == []
        # A 24-token prefix grows the array to 25 entries; the fill of
        # KV 9..31 holds the bad KV 30.
        assert cost.prompt_cost(idle, PromptShape(32, 24)) == want
        assert model.asked[1:] == [(1, 8, 32)]
        assert model.spans == [(1, 8, list(range(9, 32)))]
        assert cost.prompt_cost(idle, PromptShape(32, 24)) == want
        assert len(model.asked) == 2 and len(model.spans) == 1
        cost.prompt_cost(idle, PromptShape(18, 10))
        assert model.asked[2:] == [(1, 8, 18)]
        assert model.spans[1:] == [(1, 8, [*range(9, 18), *range(19, 32)])]

    def test_prompt_miss_raises_only_at_a_bad_asked_entry(self):
        """Asking for the bad entry itself names it and fills nothing,
        and asking again fails again. Once the model is fixed, one fill
        keeps the whole array."""
        model = _VectorPassLatency(bad=30)
        cost = DenseStepCost(model)
        idle = BatchState(0, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match=(
                    r"DenseStepCost priced a pass of shape \(batch=1, "
                    r"tokens_per_seq=8, kv=30\) at nan s")):
                cost.prompt_cost(idle, PromptShape(30, 22))
        assert model.asked == [(1, 8, 30)] * 2 and model.spans == []
        model.bad = -1
        cost.prompt_cost(idle, PromptShape(30, 22))
        assert model.spans == [(1, 8, list(range(8, 30)))]
        for shared in range(23):
            cost.prompt_cost(idle, PromptShape(8 + shared, shared))
        assert len(model.asked) == 3 and len(model.spans) == 1

    def test_per_entry_adapter_prices_exactly_the_asked_kvs(self):
        """Without the vector hook, a miss prices just the unpriced
        entries it asks for, one ``step_time`` call each, in KV order."""
        model = _RecordingLatency()
        cost = DenseStepCost(model)
        cost.decode_run_cost(BatchState.uniform(2, 10), 4)
        assert model.asked == [(2, 1, kv) for kv in range(10, 14)]
        cost.decode_run_cost(BatchState.uniform(2, 8), 8)
        assert model.asked[4:] == [(2, 1, kv) for kv in (8, 9, 14, 15)]
        cost.prompt_cost(BatchState.uniform(2, 12), PromptShape(20, 4))
        assert model.asked[8:] == [(1, 16, 20)]
        cost.prompt_cost(BatchState.uniform(2, 40), PromptShape(20, 4))
        assert model.asked[9:] == [(2, 1, 40)]

    def test_per_entry_adapters_price_only_the_asked_prompt(self, dense_cost,
                                                            zero_cost):
        """Off the vector path a prompt miss prices just its own pass:
        one pricing call per distinct asked prompt shape."""
        duck = DenseStepCost(_StepTimeOnly(dense_cost.latency_model))
        zero = ZeroStepCost(_ForwardPassCounter(zero_cost.zero_engine))
        asks = [PromptShape(64), PromptShape(64, 16), PromptShape(80, 16),
                PromptShape(80, 32), PromptShape(64), PromptShape(80, 16)]
        for cost in (duck, zero):
            for ask in asks:
                cost.prompt_cost(BatchState(0, 0), ask)
        assert duck.latency_model.calls == 4
        assert zero.zero_engine.calls == 4

    def test_duck_typed_model_prices_per_entry_bit_identically(self,
                                                               dense_cost):
        """A latency model with only ``step_time`` goes through the
        per-entry hook and prices exactly what the vector path does."""
        duck = DenseStepCost(_StepTimeOnly(dense_cost.latency_model))
        vector = DenseStepCost(dense_cost.latency_model)
        for state, steps in [(BatchState.uniform(3, 50), 40),
                             (BatchState.of((17, 128, 301)), 25),
                             (BatchState.uniform(8, 1), 5)]:
            want = vector.decode_run_cost(state, steps).tolist()
            got = duck.decode_run_cost(state, steps).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert duck.latency_model.calls == 40 + 25 + 5


class _PerPassCost(StepCostModel):
    """Prices every pass through an adapter's unmemoized ``_price`` hook
    and keeps nothing, a decode run one step at a time."""

    def __init__(self, adapter):
        self.price = adapter._price

    def prompt_cost(self, state, request):
        plen = request.prompt_len
        cost = self.price(1, plen - request.shared_prefix_len, plen)
        if state.batch:
            cost += self.price(state.batch, 1, state.mean_kv)
        return cost

    def decode_run_cost(self, state, steps):
        return np.array([self.price(state.batch, 1,
                                    state.advanced(i).mean_kv)
                         for i in range(steps)], np.float64)


@st.composite
def _batch_states(draw, min_batch):
    batch = draw(st.integers(min_batch, 8))
    return BatchState(batch, draw(st.integers(batch, batch * 400)))


_PRICING_CALLS = st.lists(st.one_of(
    st.tuples(st.just("decode"), _batch_states(1), st.integers(1, 40)),
    st.tuples(st.just("prompt"), _batch_states(0),
              st.builds(lambda t, c: PromptShape(t + c, c),
                        st.integers(1, 64), st.integers(0, 200)))),
    min_size=1, max_size=12)


class TestMissRule:
    """Whatever order a pass shape's misses come in, filling its whole
    array on the first one prices every pass as an uncached per-pass
    pricer does, by IEEE bits."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["dense", "moe"]), calls=_PRICING_CALLS)
    def test_interleaved_misses_equal_per_pass_pricing(self, family, calls,
                                                       dense_cost, moe_cost):
        if family == "dense":
            cost = DenseStepCost(dense_cost.latency_model)
        else:
            cost = MoEStepCost(moe_cost.moe_model)
        want = _PerPassCost(cost)
        for kind, state, arg in calls:
            if kind == "decode":
                got = cost.decode_run_cost(state, arg).tolist()
                ref = want.decode_run_cost(state, arg).tolist()
            else:
                got = [cost.prompt_cost(state, arg)]
                ref = [want.prompt_cost(state, arg)]
            assert [v.hex() for v in got] == [v.hex() for v in ref]


class TestDenseStepCost:
    def test_true_kv_mode_tracks_context_growth(self, dense_cost):
        short = dense_cost.decode_cost(BatchState.uniform(4, 64))
        long = dense_cost.decode_cost(BatchState.uniform(4, 2048))
        assert long > short


class TestDecodeEntry:
    """``decode_run_cost`` is the one decode method a cost model
    implements; ``decode_cost`` is a run of one."""

    def test_decode_run_cost_is_abstract(self):
        class StepOnly(StepCostModel):
            def prompt_cost(self, state, request):
                return 1.0

            def decode_cost(self, state):
                return 1.0

        assert StepCostModel.__abstractmethods__ == {"prompt_cost",
                                                     "decode_run_cost"}
        with pytest.raises(TypeError, match="decode_run_cost"):
            StepOnly()

    @pytest.mark.parametrize("name", ["dense", "moe", "zero", "closure"])
    def test_decode_cost_is_a_run_of_one(self, name, dense_cost, moe_cost,
                                         zero_cost):
        cost = {"dense": dense_cost, "moe": moe_cost, "zero": zero_cost,
                "closure": ClosureStepCost(lambda b, p: 1.0,
                                           lambda b: 1e-3 * b + 0.1),
                }[name]
        for state in (BatchState.uniform(1, 32), BatchState.uniform(4, 900),
                      BatchState.of((17, 128, 301))):
            step = cost.decode_cost(state)
            assert type(step) is float
            assert step.hex() == cost.decode_run_cost(state, 1)[0].hex()


class TestDecodeRunCost:
    """Vectorized run pricing must equal the per-step scalar loop
    bit-for-bit — it is the foundation of the event-compressed serving
    simulator's exactness guarantee."""

    STEPS = 40

    def _reference(self, cost, state, steps):
        out = []
        for i in range(steps):
            out.append(cost.decode_cost(state.advanced(i)))
        return out

    @pytest.fixture(params=["dense", "moe", "zero"])
    def cost(self, request, dense_cost, moe_cost, zero_cost):
        return {"dense": dense_cost, "moe": moe_cost,
                "zero": zero_cost}[request.param]

    @pytest.mark.parametrize("state", [
        BatchState.uniform(1, 32),
        BatchState.uniform(4, 128),
        BatchState.of((17, 128, 301)),  # ragged KV
    ])
    def test_bitwise_equals_scalar_loop(self, cost, state):
        run = cost.decode_run_cost(state, self.STEPS)
        assert run.dtype == np.float64 and run.shape == (self.STEPS,)
        assert run.tolist() == self._reference(cost, state, self.STEPS)

    def test_warm_cache_still_bitwise(self, cost):
        state = BatchState.uniform(3, 64)
        first = cost.decode_run_cost(state, self.STEPS)
        again = cost.decode_run_cost(state, self.STEPS)
        assert first.tolist() == again.tolist()
        # Extending past the cached range stays exact too.
        longer = cost.decode_run_cost(state, 3 * self.STEPS)
        assert longer[:self.STEPS].tolist() == first.tolist()
        assert longer.tolist() == self._reference(cost, state, 3 * self.STEPS)

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 120),
                                   st.integers(1, 40)), min_size=1,
                         max_size=12))
    def test_any_run_sequence_prices_every_step(self, runs):
        """Runs of one batch size that continue, overlap, skip ahead or
        jump back all equal the scalar loop: the priced bytemask
        never returns an unpriced slot."""
        cost = DenseStepCost(_KvLatency())
        for batch, kv, steps in runs:
            state = BatchState.uniform(batch, kv)
            assert (cost.decode_run_cost(state, steps).tolist()
                    == self._reference(cost, state, steps))

    def test_closure_adapter(self):
        cost = ClosureStepCost(lambda b, p: 1.0, lambda b: 0.25 * b)
        state = BatchState.uniform(4, 10)
        run = cost.decode_run_cost(state, 5)
        assert run.tolist() == self._reference(cost, state, 5)

    @pytest.mark.parametrize("name", ["dense", "moe", "zero", "closure"])
    def test_caller_owns_the_returned_array(self, name, dense_cost, moe_cost,
                                            zero_cost):
        """The serving loop writes step end times into the run it gets
        back, so overwriting it must not reach any adapter's cache."""
        cost = {"dense": dense_cost, "moe": moe_cost, "zero": zero_cost,
                "closure": ClosureStepCost(lambda b, p: 1.0,
                                           lambda b: 0.25 * b),
                }[name]
        state = BatchState.uniform(3, 40)
        run = cost.decode_run_cost(state, self.STEPS)
        run[0] += 1e3
        run.cumsum(out=run)
        run *= -1.0
        assert (cost.decode_run_cost(state, self.STEPS).tolist()
                == self._reference(cost, state, self.STEPS))

    def test_closure_run_is_float64_for_int_step_times(self):
        """The serving loop folds fractional start times into the run in
        place, so an int ``step_time`` must still price a float64 run,
        and a float one step."""
        cost = ClosureStepCost(lambda b, p: 1, lambda b: 1)
        run = cost.decode_run_cost(BatchState.uniform(2, 8), 3)
        assert run.dtype == np.float64
        assert run.tolist() == [1.0] * 3
        step = cost.decode_cost(BatchState.uniform(2, 8))
        assert type(step) is float and step == 1.0

    def test_validation(self, dense_cost):
        state = BatchState.uniform(2, 16)
        assert dense_cost.decode_run_cost(state, 0).shape == (0,)
        with pytest.raises(ValueError):
            dense_cost.decode_run_cost(state, -1)
        with pytest.raises(ValueError):
            dense_cost.decode_run_cost(BatchState(0, 0), 3)

    def test_advanced(self):
        s = BatchState.of((5, 9))
        assert s.advanced(0) is s
        assert s.advanced(3) == BatchState.of((8, 12))
        with pytest.raises(ValueError):
            s.advanced(-1)

    @pytest.mark.parametrize("steps", [2.5, math.nan, math.inf])
    def test_advanced_takes_integer_steps(self, steps):
        """Used to fail as "batch and total_kv must be ints", naming a
        derived value (a NumPy integer failed the same way)."""
        s = BatchState.of((5, 9))
        with pytest.raises(TypeError, match="steps must be an integer"):
            s.advanced(steps)
        assert s.advanced(np.int64(3)) == BatchState.of((8, 12))

    @pytest.mark.parametrize("steps", [3.5, math.nan, math.inf])
    def test_run_takes_integer_steps(self, dense_cost, steps):
        """Used to reach NumPy and fail on a derived KV length."""
        with pytest.raises(TypeError, match="steps must be an integer"):
            dense_cost.decode_run_cost(BatchState.uniform(2, 16), steps)
        assert dense_cost.decode_run_cost(BatchState.uniform(2, 16),
                                          np.int64(3)).shape == (3,)


class TestMoEServingEndToEnd:
    def test_moe_trace_through_serving(self, moe_cost):
        trace = synthesize_trace(num_requests=30, arrival_rate=10.0,
                                 mean_prompt=64, mean_gen=8, seed=5)
        rep = simulate_serving(trace, costs=moe_cost, max_batch=8)
        assert len(rep.finish_times) == 30
        assert rep.total_tokens == sum(r.gen_tokens for r in trace.requests)
        assert math.isfinite(rep.makespan) and rep.makespan > 0
