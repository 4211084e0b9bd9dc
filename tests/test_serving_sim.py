"""Tests for the serving-level simulator (arrivals, queueing, percentiles)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BatchState,
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    PromptShape,
    Request,
    ServingReport,
    WorkloadTrace,
    simulate_serving,
    synthesize_trace,
)
from repro.hardware import dgx_a100_cluster
from repro.model import DENSE_ZOO
from repro.scenarios import (
    TenantSpec,
    agentic_scenario,
    chat_scenario,
    heavy_tailed_scenario,
)

_NAN, _INF = float("nan"), float("inf")


def unit_costs(prompt_cost=1.0, step_cost=0.1):
    return ClosureStepCost(lambda batch, plen: prompt_cost,
                           lambda batch: step_cost)


class TestTraceSynthesis:
    def test_reproducible(self):
        a = synthesize_trace(num_requests=20, arrival_rate=2.0, seed=7)
        b = synthesize_trace(num_requests=20, arrival_rate=2.0, seed=7)
        assert a == b

    def test_rate_controls_density(self):
        slow = synthesize_trace(num_requests=200, arrival_rate=1.0, seed=1)
        fast = synthesize_trace(num_requests=200, arrival_rate=10.0, seed=1)
        assert fast.duration < slow.duration

    def test_sorted_arrivals_and_positive_lengths(self):
        t = synthesize_trace(num_requests=50, arrival_rate=5.0, seed=3)
        arrivals = [r.arrival for r in t.requests]
        assert arrivals == sorted(arrivals)
        assert all(r.prompt_len >= 1 and r.gen_tokens >= 1 for r in t.requests)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=0, arrival_rate=1.0)
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=1, arrival_rate=0.0)
        with pytest.raises(ValueError):
            Request(0, -1.0, 4, 4)
        with pytest.raises(ValueError):
            WorkloadTrace(())
        with pytest.raises(ValueError):
            WorkloadTrace((Request(0, 5.0, 1, 1), Request(1, 1.0, 1, 1)))
        with pytest.raises(ValueError, match="unique"):
            WorkloadTrace((Request(3, 0.0, 1, 1), Request(3, 1.0, 1, 1)))

    @pytest.mark.parametrize("num_sessions", [2.5, _NAN])
    def test_num_sessions_must_be_an_integer(self, num_sessions):
        """2.5 drew session ids from ``[0, 2.5)`` silently, and NaN failed
        in NumPy without naming the argument."""
        with pytest.raises(TypeError, match="num_sessions must be an integer"):
            synthesize_trace(num_requests=4, arrival_rate=1.0,
                             num_sessions=num_sessions)

    @pytest.mark.parametrize("make", [
        lambda: Request(0, _NAN, 4, 4),
        lambda: Request(0, _INF, 4, 4),
        lambda: WorkloadTrace((Request(0, 0.0, 4, 4),), expert_skew=_NAN),
        lambda: synthesize_trace(num_requests=4, arrival_rate=1.0,
                                 expert_skew=_NAN),
        lambda: synthesize_trace(num_requests=4, arrival_rate=_INF),
        lambda: chat_scenario(num_sessions=2, session_rate=_INF),
        lambda: chat_scenario(num_sessions=2, session_rate=1.0,
                              expert_skew=_NAN),
        lambda: agentic_scenario(num_agents=2, agent_rate=_INF),
        lambda: heavy_tailed_scenario(num_requests=4, arrival_rate=_INF),
        lambda: heavy_tailed_scenario(num_requests=4, arrival_rate=1.0,
                                      prompt_sigma=_NAN),
        lambda: TenantSpec(name="t", arrival_rate=_INF, num_requests=4),
    ], ids=["nan", "inf", "trace-skew-nan", "synth-skew-nan",
            "synth-rate-inf", "chat-rate-inf", "chat-skew-nan",
            "agentic-rate-inf", "heavy-rate-inf", "heavy-sigma-nan",
            "tenant-rate-inf"])
    def test_non_finite_arrival_rejected(self, make):
        """Every non-finite arrival time, rate or shape parameter fails
        fast. NaN passes ``x < 0`` guards: a NaN arrival used to hang
        simulate_serving, an inf rate gave all-zero arrivals, and a NaN
        prompt_sigma cast NaN prompt lengths to int."""
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("kwargs,name", [
        (dict(request_id=1.5), "request_id"),
        (dict(prompt_len=2.5), "prompt_len"),
        (dict(gen_tokens=_NAN), "gen_tokens"),
        (dict(turn_index=0.5), "turn_index"),
        (dict(session=1, shared_prefix_len=1.5), "shared_prefix_len"),
        (dict(session=_NAN), "session"),
    ], ids=["id", "prompt", "gen-nan", "turn", "prefix", "session-nan"])
    def test_non_integer_request_fields_rejected(self, kwargs, name):
        """Every integer field is checked as an integer. ``gen_tokens``
        NaN or 2.5 passed the ``< 1`` guard and the run died later
        inside NumPy; a fractional ``prompt_len`` died as "batch and
        total_kv must be ints"."""
        fields = dict(request_id=0, arrival=0.0, prompt_len=4, gen_tokens=3)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            Request(**{**fields, **kwargs})

    def test_trace_columns_apply_the_request_rules(self):
        """A trace built from request-like rows checks each column as
        :class:`Request` checks one field."""
        from types import SimpleNamespace

        def row(**kw):
            fields = dict(request_id=0, arrival=0.0, prompt_len=4,
                          gen_tokens=3, session=None, tenant=None,
                          turn_index=0, shared_prefix_len=0)
            return SimpleNamespace(**{**fields, **kw})

        with pytest.raises(TypeError, match="gen_tokens must be an integer"):
            WorkloadTrace((row(gen_tokens=_NAN),))
        with pytest.raises(TypeError, match="session must be an integer"):
            WorkloadTrace((row(session=2.5),))
        with pytest.raises(ValueError, match="finite"):
            WorkloadTrace((row(arrival=_NAN),))
        with pytest.raises(ValueError, match="needs a session"):
            WorkloadTrace((row(shared_prefix_len=1),))
        with pytest.raises(ValueError, match="int64"):
            WorkloadTrace((row(request_id=2**63),))

    def test_requests_are_built_on_read(self):
        """``requests`` is a read-only sequence of equal requests."""
        rows = (Request(5, 0.0, 4, 3, session=2, tenant="a"),
                Request(9, 1.0, 6, 2, tenant="b", turn_index=1),
                Request(7, 1.0, 5, 1, session=2, shared_prefix_len=3))
        trace = WorkloadTrace(rows)
        assert tuple(trace.requests) == rows
        assert trace.requests[-1] == rows[-1]
        assert trace.requests[1:] == rows[1:]
        assert len(trace.requests) == 3 and rows[1] in trace.requests
        with pytest.raises(IndexError):
            trace.requests[3]
        with pytest.raises(TypeError):
            trace.requests[0] = rows[0]
        assert trace == WorkloadTrace(list(rows))
        assert trace != WorkloadTrace(rows[:2])
        assert WorkloadTrace(trace.requests).requests is trace.requests

    def test_iteration_zips_the_columns(self, monkeypatch):
        """Iterating builds each request from one pass over the columns,
        not an indexed read per position; items equal indexed reads."""
        from repro.engine.serving_sim import _RequestColumns

        trace = synthesize_trace(num_requests=12, arrival_rate=5.0,
                                 num_sessions=3, seed=4)
        by_index = [trace.requests[i] for i in range(12)]

        def refuse(self, i):
            raise AssertionError("iteration read an item by index")

        monkeypatch.setattr(_RequestColumns, "__getitem__", refuse)
        assert list(trace.requests) == by_index

    def test_from_columns_equals_the_request_trace(self):
        rows = (Request(0, 0.0, 4, 3, session=2, tenant="a"),
                Request(1, 1.0, 6, 2, tenant="b", turn_index=1),
                Request(2, 1.0, 5, 1, session=2, shared_prefix_len=3))
        trace = WorkloadTrace.from_columns(
            [0.0, 1.0, 1.0], [4, 6, 5], [3, 2, 1], session=[2, None, 2],
            tenant=["a", "b", None], turn_index=[0, 1, 0],
            shared_prefix_len=[0, 0, 3], expert_skew=0.5)
        assert tuple(trace.requests) == rows and trace.expert_skew == 0.5
        with pytest.raises(ValueError, match="equally long"):
            WorkloadTrace.from_columns([0.0, 1.0], [4, 6], [3])
        with pytest.raises(ValueError, match="equally long"):
            WorkloadTrace.from_columns([0.0], [4], [3], tenant=["a", "b"])

    def test_session_tags(self):
        t = synthesize_trace(num_requests=30, arrival_rate=5.0,
                             num_sessions=3, seed=2)
        assert {r.session for r in t.requests} <= {0, 1, 2}
        plain = synthesize_trace(num_requests=5, arrival_rate=5.0, seed=2)
        assert all(r.session is None for r in plain.requests)
        with pytest.raises(ValueError, match="num_sessions"):
            synthesize_trace(num_requests=5, arrival_rate=5.0,
                             num_sessions=0)


class TestServingSimulator:
    def test_single_request_latency(self):
        trace = WorkloadTrace((Request(0, 0.0, 16, 4),))
        costs = unit_costs(prompt_cost=2.0, step_cost=0.5)
        rep = simulate_serving(trace, costs=costs, max_batch=4)
        # prompt (2.0, yields token 1) + 3 decode steps (1.5)
        assert rep.latency(trace.requests[0]) == pytest.approx(3.5)
        assert rep.first_token_times[0] == pytest.approx(2.0)
        assert rep.total_tokens == 4

    def test_idle_server_waits_for_arrival(self):
        trace = WorkloadTrace((Request(0, 10.0, 8, 2),))
        costs = unit_costs()
        rep = simulate_serving(trace, costs=costs, max_batch=1)
        assert rep.finish_times[0] == pytest.approx(10.0 + 1.0 + 0.1)

    def test_queueing_delay_under_capacity_1(self):
        trace = WorkloadTrace((Request(0, 0.0, 8, 5), Request(1, 0.0, 8, 5)))
        costs = unit_costs(prompt_cost=1.0, step_cost=1.0)
        rep = simulate_serving(trace, costs=costs, max_batch=1)
        assert rep.queue_delays[0] == pytest.approx(0.0)
        assert rep.queue_delays[1] > 0.0
        assert rep.finish_times[1] > rep.finish_times[0]

    def test_batching_shares_steps(self):
        """Two concurrent requests at max_batch 2 finish much sooner than
        serialized at max_batch 1."""
        trace = WorkloadTrace((Request(0, 0.0, 8, 10), Request(1, 0.0, 8, 10)))
        costs = unit_costs(prompt_cost=0.5, step_cost=1.0)
        together = simulate_serving(trace, costs=costs, max_batch=2)
        alone = simulate_serving(trace, costs=costs, max_batch=1)
        assert together.makespan < 0.7 * alone.makespan

    def test_every_request_finishes(self):
        trace = synthesize_trace(num_requests=30, arrival_rate=5.0,
                                 mean_prompt=16, mean_gen=8, seed=11)
        costs = unit_costs(prompt_cost=0.05, step_cost=0.02)
        rep = simulate_serving(trace, costs=costs, max_batch=8)
        assert set(rep.finish_times) == {r.request_id for r in trace.requests}
        assert rep.total_tokens == trace.total_gen_tokens

    def test_percentiles_ordered(self):
        trace = synthesize_trace(num_requests=50, arrival_rate=10.0,
                                 mean_prompt=16, mean_gen=8, seed=2)
        costs = unit_costs(prompt_cost=0.05, step_cost=0.02)
        rep = simulate_serving(trace, costs=costs, max_batch=4)
        p50 = rep.latency_percentile(trace, 50)
        p99 = rep.latency_percentile(trace, 99)
        assert p50 <= p99
        assert rep.ttft_percentile(trace, 50) <= p50

    def test_validation(self):
        trace = WorkloadTrace((Request(0, 0.0, 1, 1),))
        costs = unit_costs()
        with pytest.raises(ValueError):
            simulate_serving(trace, costs=costs, max_batch=0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(max_batch=_NAN), "max_batch"),
        (dict(max_batch=2.5), "max_batch"),
        (dict(max_batch=2, kv_block_size=2.5), "block_size"),
        (dict(max_batch=2, kv_block_size=_NAN), "block_size"),
        (dict(max_batch=2, kv_num_layers=1.5), "num_layers"),
    ], ids=["batch-nan", "batch-frac", "block-frac", "block-nan",
            "layers-frac"])
    def test_non_integer_sizes_rejected(self, kwargs, name):
        """NaN and fractional sizes passed the ``< 1`` guards: a NaN
        batch was accepted and a NaN block size made NaN
        ``kv_blocks_allocated``. A bad batch is named as the caller's
        ``max_batch``, not the scheduler's ``max_slots``."""
        trace = WorkloadTrace((Request(0, 0.0, 8, 3),))
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            simulate_serving(trace, costs=unit_costs(), **kwargs)


_BAD_COSTS = [float("nan"), float("inf"), -0.1]


class TestBadPriceRejected:
    """A non-finite or negative price fails at the replica that paid it,
    instead of yielding a NaN makespan, an inf TTFT, a Timeline error or
    (in a fleet) a silently empty report."""

    TRACE = WorkloadTrace((Request(0, 0.0, 8, 4), Request(1, 0.0, 8, 4)))

    @pytest.mark.parametrize("detail", ["full", "summary"])
    @pytest.mark.parametrize("bad", _BAD_COSTS)
    def test_bad_step_cost(self, bad, detail):
        with pytest.raises(ValueError,
                           match=r"replica 0: decode stretch .* ends at"):
            simulate_serving(self.TRACE, costs=unit_costs(step_cost=bad),
                             max_batch=2, detail=detail)

    @pytest.mark.parametrize("detail", ["full", "summary"])
    @pytest.mark.parametrize("bad", _BAD_COSTS)
    def test_bad_prompt_cost(self, bad, detail):
        with pytest.raises(ValueError, match=(
                rf"replica 0: prompt pass of request 0 priced at {bad!r}")):
            simulate_serving(self.TRACE, costs=unit_costs(prompt_cost=bad),
                             max_batch=2, detail=detail)

    def test_fleet_nan_step_cost(self):
        from repro.fleet import simulate_fleet
        trace = synthesize_trace(num_requests=20, arrival_rate=5.0,
                                 mean_prompt=8, mean_gen=4, seed=1)
        with pytest.raises(ValueError, match="decode stretch .* ends at nan"):
            simulate_fleet(trace, num_replicas=2, max_batch=4,
                           costs=unit_costs(step_cost=float("nan")))


class TestReportEdgeCases:
    def test_single_request_percentiles_collapse(self):
        """With one request, every percentile is that request's value."""
        trace = WorkloadTrace((Request(0, 0.5, 4, 3),))
        costs = unit_costs(prompt_cost=1.0, step_cost=0.1)
        rep = simulate_serving(trace, costs=costs, max_batch=2)
        lat = rep.latency(trace.requests[0])
        for q in (0, 50, 99, 100):
            assert rep.latency_percentile(trace, q) == pytest.approx(lat)
        assert rep.ttft_percentile(trace, 99) == pytest.approx(1.0)

    def test_tokens_per_second_zero_makespan(self):
        """A degenerate report must not divide by zero."""
        rep = ServingReport(makespan=0.0, finish_times={},
                            first_token_times={}, queue_delays={},
                            total_tokens=0)
        assert rep.tokens_per_second == 0.0

    def test_ttft_when_request_finishes_during_prompt_pass(self):
        """gen_tokens=1 retires inside the prompt pass: first token and
        finish coincide at the end of that pass."""
        trace = WorkloadTrace((Request(0, 0.0, 4, 1),))
        costs = unit_costs(prompt_cost=1.0, step_cost=0.1)
        rep = simulate_serving(trace, costs=costs, max_batch=2)
        assert rep.first_token_times[0] == pytest.approx(1.0)
        assert rep.finish_times[0] == rep.first_token_times[0]
        assert rep.total_tokens == 1


class TestSchedulerReplay:
    """The analytical path replays the shared Scheduler and exposes it."""

    def test_report_carries_scheduler_and_timeline(self):
        trace = WorkloadTrace((Request(0, 0.0, 8, 3), Request(1, 0.0, 4, 2)))
        costs = unit_costs()
        rep = simulate_serving(trace, costs=costs, max_batch=2)
        assert rep.scheduler.admission_order == [0, 1]
        assert sorted(rep.scheduler.retirement_order) == [0, 1]
        events = rep.timeline.to_chrome_trace()
        names = {e["name"] for e in events}
        assert any(n.startswith("prefill") for n in names)
        assert any(n.startswith("decode") for n in names)

    def test_policy_changes_admission_order(self):
        trace = WorkloadTrace((Request(0, 0.0, 30, 2), Request(1, 0.0, 2, 2)))
        costs = unit_costs()
        fcfs = simulate_serving(trace, costs=costs, max_batch=1)
        sp = simulate_serving(trace, costs=costs,
                              max_batch=1, policy="shortest_prompt")
        assert fcfs.scheduler.admission_order == [0, 1]
        assert sp.scheduler.admission_order == [1, 0]


class TestModelIntegration:
    def test_serving_with_dense_latency_model(self):
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        costs = DenseStepCost(model)
        trace = synthesize_trace(num_requests=20, arrival_rate=20.0,
                                 mean_prompt=128, mean_gen=16, seed=4)
        rep = simulate_serving(trace, costs=costs, max_batch=16)
        assert rep.tokens_per_second > 0
        # Queueing pushes P99 above P50 under this arrival pressure.
        assert rep.latency_percentile(trace, 99) >= rep.latency_percentile(
            trace, 50)

    def test_prompt_time_prices_running_batch(self):
        """Admitting into a busy server folds one decode iteration for the
        live batch into the prompt pass — cost must grow with batch."""
        model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1),
                                  tp=4)
        costs = DenseStepCost(model)
        idle = costs.prompt_cost(BatchState(0, 0), PromptShape(128))
        busy = costs.prompt_cost(BatchState.uniform(7, 136), PromptShape(128))
        assert busy > idle
        # The increment is exactly one decode iteration for the 7 riders,
        # priced at their (uniform) KV length.
        assert busy - idle == pytest.approx(
            sum(model.step_time(7, 1, 136)))


@given(
    n=st.integers(min_value=1, max_value=25),
    rate=st.floats(min_value=0.5, max_value=20.0),
    cap=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_serving_conservation_property(n, rate, cap):
    """Properties: all requests finish after they arrive; token accounting
    is exact; higher capacity never slows a *saturated* makespan.

    Capacity monotonicity is checked on a copy of the trace with every
    arrival moved to t=0. With staggered arrivals it is genuinely false:
    greedy admission exhibits Graham-style scheduling anomalies, where a
    larger batch cap admits an extra request into an idle gap and delays
    decode rounds for in-flight work (e.g. n=23, rate=18, cap=2 with the
    costs below).
    """
    trace = synthesize_trace(num_requests=n, arrival_rate=rate,
                             mean_prompt=8, mean_gen=4, seed=n)
    costs = ClosureStepCost(lambda b, p: 0.01, lambda b: 0.02)
    rep = simulate_serving(trace, costs=costs, max_batch=cap)
    for r in trace.requests:
        assert rep.finish_times[r.request_id] >= r.arrival
        assert rep.first_token_times[r.request_id] >= r.arrival
    assert rep.total_tokens == trace.total_gen_tokens
    saturated = WorkloadTrace(requests=[
        Request(request_id=r.request_id, arrival=0.0,
                prompt_len=r.prompt_len, gen_tokens=r.gen_tokens)
        for r in trace.requests
    ])
    small = simulate_serving(saturated, costs=costs, max_batch=cap)
    bigger = simulate_serving(saturated, costs=costs, max_batch=cap + 1)
    assert bigger.makespan <= small.makespan + 1e-9


class TestArrivalShapes:
    def test_poisson_is_the_verbatim_default(self):
        """arrival_shape='poisson' must reproduce the historic default
        bit for bit: same seed, same trace, no drift for old callers."""
        legacy = synthesize_trace(num_requests=50, arrival_rate=5.0, seed=3)
        explicit = synthesize_trace(num_requests=50, arrival_rate=5.0,
                                    seed=3, arrival_shape="poisson")
        assert legacy == explicit

    @pytest.mark.parametrize("shape", ["diurnal", "flash_crowd"])
    def test_shapes_deterministic_and_well_formed(self, shape):
        a = synthesize_trace(num_requests=200, arrival_rate=20.0, seed=5,
                             arrival_shape=shape)
        b = synthesize_trace(num_requests=200, arrival_rate=20.0, seed=5,
                             arrival_shape=shape)
        assert a == b
        arrivals = [r.arrival for r in a.requests]
        assert len(arrivals) == 200
        assert arrivals == sorted(arrivals)
        assert all(t >= 0.0 for t in arrivals)
        c = synthesize_trace(num_requests=200, arrival_rate=20.0, seed=6,
                             arrival_shape=shape)
        assert c != a  # the seed actually matters

    def test_diurnal_peak_denser_than_trough(self):
        t = synthesize_trace(num_requests=4000, arrival_rate=40.0, seed=7,
                             arrival_shape="diurnal", diurnal_amplitude=1.0)
        span = t.duration
        period = span / 2.0  # mirrors the synthesizer's nominal default
        # Phase 0..period: sin>0 in the first half (peak), <0 in the
        # second (trough). Count arrivals falling in each.
        phases = [(r.arrival % period) / period for r in t.requests]
        peak = sum(1 for p in phases if p < 0.5)
        trough = sum(1 for p in phases if p >= 0.5)
        assert peak > 2 * trough

    def test_flash_crowd_concentrates_in_bursts(self):
        n, rate = 2000, 20.0
        t = synthesize_trace(num_requests=n, arrival_rate=rate, seed=8,
                             arrival_shape="flash_crowd", burst_factor=10.0,
                             num_bursts=2)
        nominal_span = n / rate
        centers = (0.25 * nominal_span, 0.75 * nominal_span)
        half_width = 0.02 * nominal_span
        in_burst = sum(
            1 for r in t.requests
            if any(abs(r.arrival - c) <= half_width for c in centers))
        # The burst windows are 8% of the span; at 10x rate they should
        # hold several times their uniform share of arrivals.
        assert in_burst > 0.25 * n

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="arrival_shape"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape="square_wave")
        with pytest.raises(ValueError, match="diurnal_amplitude"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape="diurnal", diurnal_amplitude=1.5)
        with pytest.raises(ValueError, match="diurnal_period"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape="diurnal", diurnal_period=0.0)
        with pytest.raises(ValueError, match="burst_factor"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape="flash_crowd", burst_factor=1.0)
        with pytest.raises(ValueError, match="num_bursts"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape="flash_crowd", num_bursts=0)

    @pytest.mark.parametrize("shape, kw", [
        ("diurnal", {"diurnal_period": float("nan")}),
        ("flash_crowd", {"burst_factor": float("nan")}),
        ("flash_crowd", {"burst_factor": float("inf")}),
    ])
    def test_non_finite_shape_parameter_rejected(self, shape, kw):
        """These once slipped past ``<=`` guards and hung the thinning
        sampler forever."""
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            synthesize_trace(num_requests=5, arrival_rate=1.0,
                             arrival_shape=shape, **kw)

    def test_lengths_and_sessions_still_drawn(self):
        t = synthesize_trace(num_requests=100, arrival_rate=10.0, seed=9,
                             arrival_shape="diurnal", num_sessions=4,
                             mean_prompt=32, mean_gen=8)
        assert all(r.prompt_len >= 1 and r.gen_tokens >= 1
                   for r in t.requests)
        assert {r.session for r in t.requests} <= {0, 1, 2, 3}


class TestWorkloadTraceEdges:
    """Degenerate traces and the scenario-zoo metadata fields."""

    def test_single_request_trace_has_zero_duration(self):
        trace = WorkloadTrace((Request(0, 2.0, 6, 3),))
        assert trace.duration == 0.0
        costs = unit_costs(prompt_cost=1.0, step_cost=0.1)
        rep = simulate_serving(trace, costs=costs, max_batch=4)
        # Serving starts at the lone arrival, not at t=0.
        assert rep.finish_times[0] == pytest.approx(2.0 + 1.0 + 2 * 0.1)
        assert rep.total_tokens == 3
        assert rep.tokens_per_second > 0

    def _tagged_trace(self):
        # The follow-up turn arrives well after its parent retires, so
        # the parked session cache is there to hit.
        return WorkloadTrace((
            Request(0, 0.0, 8, 3, session=0, tenant="gold", turn_index=0),
            Request(1, 0.1, 4, 2, tenant="free"),
            Request(2, 4.0, 12, 3, session=0, tenant="gold", turn_index=1,
                    shared_prefix_len=10),
        ))

    def test_tenant_fields_survive_analytical_fleet(self):
        from repro.fleet.sim import simulate_fleet

        trace = self._tagged_trace()
        costs = unit_costs()
        rep = simulate_fleet(trace, num_replicas=2, costs=costs, max_batch=2)
        assert rep.tenants(trace) == ["gold", "free"]
        assert [r.turn_index for r in rep.tenant_requests(trace, "gold")] \
            == [0, 1]
        gold = rep.tenant_latency_percentile(trace, "gold", 99)
        free = rep.tenant_latency_percentile(trace, "free", 99)
        assert gold > 0 and free > 0
        assert rep.prefix_hits == 1
        assert rep.prefix_hit_tokens == 10

    def test_tenant_fields_survive_functional_fleet(self):
        from repro.fleet.functional import run_fleet_functional
        from repro.model import ModelConfig
        from repro.model.dense import DenseTransformer

        trace = self._tagged_trace()
        cfg = ModelConfig(name="edge-rt", hidden=32, layers=2, heads=4,
                          vocab=53, max_seq=64)
        model = DenseTransformer(cfg, seed=11)
        costs = unit_costs()
        res = run_fleet_functional(model, trace, num_replicas=1,
                                   costs=costs, max_batch=2,
                                   prefix_sharing=True)
        sess = res.sessions[0]
        for r in trace.requests:
            got = sess.result(r.request_id)
            assert got.tenant == r.tenant
            assert got.session == r.session
            assert got.shared_prefix_len == r.shared_prefix_len
        assert sess.result(2).prefix_reused > 0
        assert res.report.tenants(trace) == ["gold", "free"]


@settings(max_examples=100, deadline=None)
@given(prompts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       block_size=st.integers(1, 8), num_layers=st.integers(1, 3),
       stretches=st.lists(st.integers(1, 20), max_size=6))
def test_kv_growth_counts_every_request_block_by_block(
        prompts, block_size, num_layers, stretches):
    """A stretch's bulk block arithmetic equals each live request's
    ceil(positions / block_size) growth, one block per layer."""
    from repro.engine.replica import _KvTracker

    trace = WorkloadTrace(tuple(Request(i, 0.0, p, 1)
                                for i, p in enumerate(prompts)))
    kv = _KvTracker(block_size=block_size, num_layers=num_layers)
    for pos, r in enumerate(trace.requests):
        kv._admit(pos, r.prompt_len, None, 0)
    pos = list(prompts)
    for steps in stretches:
        kv.grow_all(steps)
        pos = [p + steps for p in pos]
    live = num_layers * sum(-(-p // block_size) for p in pos)
    assert kv.allocated == kv.peak_blocks == live
