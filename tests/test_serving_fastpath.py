"""Bit-for-bit equivalence of the event-compressed serving fast path.

``simulate_serving`` prices whole decode stretches with one vectorized
``decode_run_cost`` call; ``tests/serving_oracle.py`` retains the
per-step loop it replaced. The refactor's contract is *exactness*, not
approximation: with ``detail="full"`` the compressed simulator must
reproduce the reference — report, scheduler event log, and timeline —
bit for bit, across every cost adapter and admission policy. The fleet
layer inherits the same machinery, so its compressed replicas are
checked against per-step stepping (``_max_run_steps=1``) under crashes,
slowdowns and every routing policy, and a one-replica fleet against the
single-server simulator.
"""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import numpy as np

from repro.engine import (
    ClosureStepCost,
    DenseLatencyModel,
    DenseStepCost,
    MoELatencyModel,
    MoEStepCost,
    Request,
    StepCostModel,
    WorkloadTrace,
    ZeroStepCost,
    simulate_serving,
    synthesize_trace,
)
from repro.engine.costs import _PassPricedCost
from repro.engine.replica import _FOLD_MAX, _KvTracker, _Outcomes, _Replica
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet
from repro.hardware import dgx2_v100, dgx_a100_cluster
from repro.model import DENSE_ZOO, MOE_PARALLELISM, MOE_ZOO, get_model
from repro.zero import ZeroInferenceEngine

from tests.serving_oracle import simulate_serving_reference

MAX_BATCH = 4


@pytest.fixture(scope="module")
def dense_cost():
    model = DenseLatencyModel(DENSE_ZOO["gpt-13b"], dgx_a100_cluster(1), tp=4)
    return DenseStepCost(model)


@pytest.fixture(scope="module")
def moe_cost():
    cluster = dgx_a100_cluster(16)
    cfg = MOE_ZOO["1.3b-moe-128"]
    model = MoELatencyModel(cfg, cluster, MOE_PARALLELISM[cfg.name],
                            optimized=True)
    return MoEStepCost(model)


@pytest.fixture(scope="module")
def zero_cost():
    engine = ZeroInferenceEngine(get_model("gpt-neox-20b"), dgx2_v100(1))
    return ZeroStepCost(engine)


@pytest.fixture
def cost(request, dense_cost, moe_cost, zero_cost):
    """Every pricing mode the simulators accept, by name."""
    if request.param == "dense":
        return dense_cost
    if request.param == "moe":
        return moe_cost
    if request.param == "zero":
        return zero_cost
    assert request.param == "closure"
    return ClosureStepCost(lambda b, p: 0.3 + 0.01 * p,
                           lambda b: 0.05 + 0.01 * b)


def _trace(n=80, seed=7, rate=40.0):
    """Arrivals dense enough to exercise queueing, sparse enough that
    stretches get split by arrivals mid-run."""
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=32, mean_gen=12, seed=seed)


def _events(sched):
    return [(e.step, e.kind, e.request_id, e.reason) for e in sched.events]


class TestServingBitForBit:
    """The acceptance matrix: adapters x policies, full fidelity."""

    @pytest.mark.parametrize(
        "cost", ["dense", "moe", "zero", "closure"],
        indirect=True)
    @pytest.mark.parametrize("policy", ["fcfs", "shortest_prompt"])
    def test_report_events_and_timeline_identical(self, cost, policy):
        trace = _trace()
        fast = simulate_serving(trace, costs=cost, max_batch=MAX_BATCH,
                                policy=policy, detail="full")
        ref = simulate_serving_reference(trace, costs=cost,
                                         max_batch=MAX_BATCH, policy=policy)
        # ServingReport equality covers makespan, finish/first-token/
        # queue-delay dicts and total_tokens (dataclass ==).
        assert fast == ref
        assert _events(fast.scheduler) == _events(ref.scheduler)
        assert fast.timeline.to_rows() == ref.timeline.to_rows()

    def test_burst_trace_saturates_then_drains(self, dense_cost):
        """All-at-t=0 arrivals: after admission the queue drains with no
        arrival breaks, so stretches reach the retirement horizon."""
        trace = _trace(n=40, rate=1e9)
        fast = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        ref = simulate_serving_reference(trace, costs=dense_cost,
                                         max_batch=MAX_BATCH)
        assert fast == ref
        assert fast.timeline.to_rows() == ref.timeline.to_rows()


class TestDetailLevels:
    def test_summary_report_equals_full(self, dense_cost):
        trace = _trace()
        full = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        summary = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH, detail="summary")
        assert summary == full  # numbers never degrade, only the timeline
        assert _events(summary.scheduler) == _events(full.scheduler)

    def test_summary_drops_per_request_lanes(self, dense_cost):
        trace = _trace(n=30)
        full = simulate_serving(trace, costs=dense_cost, max_batch=MAX_BATCH,
                                detail="full")
        summary = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH, detail="summary")
        assert any(lane.startswith("req-") for lane in full.timeline.lanes())
        assert not any(lane.startswith("req-")
                       for lane in summary.timeline.lanes())
        assert "server" in summary.timeline.lanes()
        # Aggregation also shrinks the server lane itself.
        assert len(summary.timeline.spans("server")) < \
            len(full.timeline.spans("server"))

    def test_pending_arrival_does_not_chunk_a_long_stretch(self, dense_cost):
        """A 1000-token generation with the next arrival due only after it
        finishes decodes as one summary span: a pending delivery splits a
        stretch where it lands, never at a fixed step count."""
        trace = WorkloadTrace((Request(0, 0.0, 32, 1000),
                               Request(1, 1e4, 32, 4)))
        summary = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH, detail="summary")
        assert summary.finish_times[0] < 1e4
        labels = [s.label for s in summary.timeline.spans("server")]
        assert labels == ["prefill r0", "decode x1 (999 steps)",
                          "prefill r1", "decode x1 (3 steps)"]
        assert summary == simulate_serving_reference(
            trace, costs=dense_cost, max_batch=MAX_BATCH)

    @pytest.mark.parametrize("detail", ["full", "summary"])
    def test_full_render_checks_repriced_stretches(self, detail):
        """Full detail re-prices every decode stretch from its log row,
        so a step cost that changes between calls is caught when the
        timeline is read; summary never re-prices."""
        calls = itertools.count()
        drifting = ClosureStepCost(lambda b, p: 0.5,
                                   lambda b: 0.1 + 0.01 * next(calls))
        trace = WorkloadTrace((Request(0, 0.0, 8, 6),))
        report = simulate_serving(trace, costs=drifting, max_batch=MAX_BATCH,
                                  detail=detail)
        if detail == "summary":
            assert len(report.timeline.spans("server")) == 2
            return
        with pytest.raises(ValueError,
                           match=r"replica 0: the decode stretch from t=0\.5 "):
            report.timeline.to_rows()

    def test_unknown_detail_rejected(self, dense_cost):
        with pytest.raises(ValueError, match="detail"):
            simulate_serving(_trace(n=5), costs=dense_cost,
                             max_batch=MAX_BATCH, detail="chatty")


class TestIntegerStepTimes:
    """``ClosureStepCost`` accepts functions returning ints. The serving
    loop folds each stretch's (fractional) start into its run in place,
    so the run must be float64: an int run would truncate the clock."""

    INT = ClosureStepCost(lambda b, p: 1, lambda b: 1)
    FLOAT = ClosureStepCost(lambda b, p: 1.0, lambda b: 1.0)
    TRACE = WorkloadTrace((Request(0, 0.5, 8, 6), Request(1, 2.25, 8, 4)))

    def test_serving_equals_per_step(self):
        fast = simulate_serving(self.TRACE, costs=self.INT,
                                max_batch=MAX_BATCH, detail="full")
        ref = simulate_serving_reference(self.TRACE, costs=self.INT,
                                         max_batch=MAX_BATCH)
        assert fast == ref
        assert fast.finish_times[0] == 7.5
        assert fast.timeline.to_rows() == ref.timeline.to_rows()

    def test_slowed_fleet_equals_float_costs(self):
        kwargs = dict(num_replicas=1, max_batch=MAX_BATCH, detail="full",
                      fault_plan=FaultPlan((ReplicaFault(
                          0, 3.0, "slowdown", factor=1.5),)))
        ints = simulate_fleet(self.TRACE, costs=self.INT, **kwargs)
        floats = simulate_fleet(self.TRACE, costs=self.FLOAT, **kwargs)
        assert ints == floats
        assert ints == simulate_fleet(self.TRACE, costs=self.INT,
                                      _max_run_steps=1, **kwargs)


FAULT_PLANS = {
    "none": None,
    "crash": FaultPlan((ReplicaFault(1, 0.9, "crash"),)),
    "slowdown": FaultPlan((ReplicaFault(0, 0.5, "slowdown", factor=2.5),)),
    "crash+slowdown": FaultPlan((
        ReplicaFault(1, 0.9, "crash"),
        ReplicaFault(2, 0.4, "slowdown", factor=1.8),
    )),
}


class TestFleetBitForBit:
    """Compressed replicas vs forced per-step stepping: faults, slowdown
    onsets and arrivals must split stretches exactly where per-step
    execution would act."""

    @pytest.mark.parametrize("routing", ["round_robin", "least_outstanding",
                                         "power_of_two", "session_affinity"])
    @pytest.mark.parametrize("faults", list(FAULT_PLANS))
    def test_compressed_equals_per_step(self, dense_cost, routing, faults):
        trace = _trace(n=60)
        kwargs = dict(num_replicas=3, costs=dense_cost, max_batch=MAX_BATCH,
                      routing=routing, fault_plan=FAULT_PLANS[faults],
                      detail="full")
        fast = simulate_fleet(trace, **kwargs)
        ref = simulate_fleet(trace, _max_run_steps=1, **kwargs)
        # FleetReport equality covers makespan, the per-request dicts,
        # replica assignment, retries, token accounting, per-replica
        # stats (incl. busy_time) and the routing log.
        assert fast == ref
        for fast_s, ref_s in zip(fast.schedulers, ref.schedulers):
            assert _events(fast_s) == _events(ref_s)
        assert fast.timeline.to_rows() == ref.timeline.to_rows()

    def test_one_replica_fleet_matches_serving(self, dense_cost):
        trace = _trace()
        fleet = simulate_fleet(trace, num_replicas=1, costs=dense_cost,
                               max_batch=MAX_BATCH)
        serving = simulate_serving(trace, costs=dense_cost,
                                   max_batch=MAX_BATCH)
        assert fleet.makespan == serving.makespan
        assert fleet.finish_times == serving.finish_times
        assert fleet.first_token_times == serving.first_token_times
        assert fleet.queue_delays == serving.queue_delays
        assert fleet.total_tokens == serving.total_tokens

    def test_summary_detail_keeps_fleet_numbers(self, dense_cost):
        trace = _trace(n=60)
        kwargs = dict(num_replicas=3, costs=dense_cost, max_batch=MAX_BATCH,
                      fault_plan=FAULT_PLANS["crash+slowdown"])
        full = simulate_fleet(trace, detail="full", **kwargs)
        summary = simulate_fleet(trace, detail="summary", **kwargs)
        assert summary == full
        assert not any(lane.startswith("req-")
                       for lane in summary.timeline.lanes())


class _Gridless(StepCostModel):
    """The dense model's prices without its decode grid, so the loop
    folds every priced run."""

    def __init__(self, inner):
        self.inner = inner

    def prompt_cost(self, state, request):
        return self.inner.prompt_cost(state, request)

    def decode_run_cost(self, state, steps):
        return self.inner.decode_run_cost(state, steps)


class TestFoldBoundary:
    """A dense stretch reads its clock off the model's decode grid at any
    length; a model without a grid folds it, in Python floats up to
    ``_FOLD_MAX`` steps and in NumPy beyond, as a slowed replica does.
    Each form must be the per-step clock. Horizons either side of the
    bound, whole or cut by an arrival, slowed mid-stretch or held and
    cut by a delivery, are held against the per-step oracle and per-step
    fleet stepping. Requests arrive at ``T0``, late enough for the grid
    to be exact."""

    HORIZONS = (_FOLD_MAX - 1, _FOLD_MAX, _FOLD_MAX + 1)
    T0 = 100.0

    @staticmethod
    def _costs(dense_cost):
        """The dense model, with its grid and without."""
        return dense_cost, _Gridless(dense_cost)

    @staticmethod
    def _record_horizons(monkeypatch, cost):
        """Collect the step count of every priced stretch, folded or read
        off the grid."""
        seen: list[int] = []
        cls = type(cost)
        run_cost = cls.decode_run_cost
        grid = getattr(cls, "_decode_grid", None)

        def recording(self, state, steps):
            seen.append(steps)
            return run_cost(self, state, steps)

        def recording_grid(self, batch, total_kv, steps, start):
            seen.append(steps)
            return grid(self, batch, total_kv, steps, start)

        monkeypatch.setattr(cls, "decode_run_cost", recording)
        if grid is not None:
            monkeypatch.setattr(cls, "_decode_grid", recording_grid)
        return seen

    @classmethod
    def _mid_decode(cls, cost, horizon):
        """Halfway through a lone request's ``horizon``-step stretch."""
        alone = WorkloadTrace((Request(0, cls.T0, 16, horizon + 1),))
        solo = simulate_serving(alone, costs=cost, max_batch=MAX_BATCH)
        return alone, (solo.first_token_times[0] + solo.finish_times[0]) / 2

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_serving_equals_oracle(self, dense_cost, monkeypatch, horizon):
        for cost in self._costs(dense_cost):
            alone, mid = self._mid_decode(cost, horizon)
            cut = WorkloadTrace((*alone.requests, Request(1, mid, 24, 5)))
            seen = self._record_horizons(monkeypatch, cost)
            for trace in (alone, cut):
                fast = simulate_serving(trace, costs=cost,
                                        max_batch=MAX_BATCH, detail="full")
                ref = simulate_serving_reference(trace, costs=cost,
                                                 max_batch=MAX_BATCH)
                assert fast == ref
                assert _events(fast.scheduler) == _events(ref.scheduler)
                assert fast.timeline.to_rows() == ref.timeline.to_rows()
            assert horizon in seen
            monkeypatch.undo()

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_slowdown_onset_inside_a_stretch(self, dense_cost, horizon):
        for cost in self._costs(dense_cost):
            alone, mid = self._mid_decode(cost, horizon)
            kwargs = dict(num_replicas=1, costs=cost, max_batch=MAX_BATCH,
                          detail="full", fault_plan=FaultPlan((ReplicaFault(
                              0, mid, "slowdown", factor=1.5),)))
            fast = simulate_fleet(alone, **kwargs)
            ref = simulate_fleet(alone, _max_run_steps=1, **kwargs)
            assert fast == ref
            assert fast.timeline.to_rows() == ref.timeline.to_rows()
            assert fast.finish_times[0] > simulate_serving(
                alone, costs=cost, max_batch=MAX_BATCH).finish_times[0]

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_held_stretch_cut_by_a_delivery(self, dense_cost, monkeypatch,
                                            horizon):
        """Round robin sends request 2 to replica 0 mid-stretch; the
        stretch was held past that arrival, so the delivery cuts its step
        end times at the arrival: the grid's for the dense model (the
        cost model's ``_decode_grid`` tuple), the folded ones without."""
        cut: list[type] = []
        deliver = _Replica.deliver

        def recording(self, pos, t):
            if self._plan is not None:
                cut.append(type(self._plan[1]))
            return deliver(self, pos, t)

        monkeypatch.setattr(_Replica, "deliver", recording)
        for cost in self._costs(dense_cost):
            _, mid = self._mid_decode(cost, horizon)
            trace = WorkloadTrace((Request(0, self.T0, 16, horizon + 1),
                                   Request(1, self.T0, 16, horizon + 1),
                                   Request(2, mid, 24, 5)))
            kwargs = dict(num_replicas=2, costs=cost, max_batch=MAX_BATCH,
                          routing="round_robin", detail="full")
            ref = simulate_fleet(trace, _max_run_steps=1, **kwargs)
            cut.clear()
            fast = simulate_fleet(trace, **kwargs)
            assert cut == [tuple if cost is dense_cost
                           else list if horizon <= _FOLD_MAX else np.ndarray]
            assert fast == ref
            for fast_s, ref_s in zip(fast.schedulers, ref.schedulers):
                assert _events(fast_s) == _events(ref_s)
            assert fast.timeline.to_rows() == ref.timeline.to_rows()

    @pytest.mark.parametrize("horizon", (_FOLD_MAX - 1, _FOLD_MAX + 1))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_step_cost_raises(self, horizon, bad):
        costs = ClosureStepCost(lambda b, p: 0.1, lambda b: bad)
        trace = WorkloadTrace((Request(0, 0.0, 16, horizon + 1),
                               Request(1, 0.0, 16, horizon + 1)))
        with pytest.raises(ValueError, match="decode stretch .* ends at"):
            simulate_serving(trace, costs=costs, max_batch=MAX_BATCH)
        with pytest.raises(ValueError, match="decode stretch .* ends at"):
            simulate_fleet(trace, num_replicas=2, costs=costs,
                           max_batch=MAX_BATCH)


class _DrawnCost(StepCostModel):
    """Prices the prompt pass at ``prompt`` seconds and the decode run at
    the drawn step ``costs``."""

    def __init__(self, prompt, costs):
        self.prompt, self.costs = prompt, costs

    def prompt_cost(self, state, request):
        return self.prompt

    def decode_run_cost(self, state, steps):
        assert steps == len(self.costs)
        return np.array(self.costs)


_STEP_COST = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def _stretch(draw):
    """A prompt cost, the step costs of a 1–80 step stretch (either side
    of ``_FOLD_MAX``, zero-cost steps included) and the per-step clock:
    ``clock[i]`` is step ``i``'s start and ``clock[-1]`` the last end."""
    prompt = draw(st.floats(0.0, 10.0))
    steps = draw(st.integers(1, 80))
    costs = draw(st.lists(_STEP_COST, min_size=steps, max_size=steps))
    return prompt, costs, list(itertools.accumulate(costs, initial=prompt))


def _time_in(start, end, times):
    """A time in ``(start, end]``: one of ``times`` exactly, or between."""
    exact = [t for t in times if start < t <= end]
    between = st.floats(start, end, exclude_min=True)
    return st.one_of(st.sampled_from(exact), between) if exact else between


class TestCutRule:
    """The one cut rule, ``bisect_left`` over a stretch's step end times,
    held against a per-step ``now += cost`` loop on drawn costs: a lone
    replica commits exactly the steps starting before the break, and a
    held stretch exactly the steps starting before the delivery."""

    @staticmethod
    def _decoding(prompt, costs, *arrivals, model=_DrawnCost):
        """A lone replica right after request 0's prompt pass, priced by
        ``model(prompt, costs)``, with one more request for each later
        arrival time."""
        trace = WorkloadTrace((Request(0, 0.0, 8, len(costs) + 1),
                               *(Request(i, t, 8, 2)
                                 for i, t in enumerate(arrivals, 1))))
        rep = _Replica(0, requests=trace.requests,
                       out=_Outcomes(len(trace.requests)),
                       max_batch=2, policy="fcfs",
                       costs=model(prompt, costs), kv=_KvTracker(),
                       on_complete=None)
        rep.deliver(0, 0.0)
        assert rep.perform_action() == "admit" and rep.now == prompt
        return rep

    @staticmethod
    def _per_step(prompt, costs, t):
        """Steps starting before ``t`` and the clock after them."""
        now, n = prompt, 0
        for cost in costs:
            if now >= t:
                break
            now += cost
            n += 1
        return n, now

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), stretch=_stretch())
    def test_break_commits_steps_starting_before_it(self, data, stretch):
        prompt, costs, clock = stretch
        t_limit = data.draw(st.one_of(_time_in(prompt, clock[-1] + 1.0, clock),
                                      st.just(float("inf"))))
        rep = self._decoding(prompt, costs)
        assert rep.perform_action(t_limit=t_limit) == "decode"
        n, now = self._per_step(prompt, costs, t_limit)
        assert rep.tokens - 1 == n
        assert type(rep.now) is float and rep.now.hex() == now.hex()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), stretch=_stretch())
    def test_delivery_cuts_a_held_stretch(self, data, stretch):
        prompt, costs, clock = stretch
        assume(len(costs) > 1 and clock[-2] > prompt)
        # An arrival at or before the last step's start holds the stretch.
        t = data.draw(_time_in(prompt, clock[-2], clock))
        rep = self._decoding(prompt, costs, t)
        assert rep.perform_action(t_arrival=t) == "decode"
        assert rep.tokens == 1 and rep._plan is not None
        assert rep.next_action_time().hex() == clock[-2].hex()
        rep.deliver(1, t)
        n, now = self._per_step(prompt, costs, t)
        assert rep.tokens - 1 == n < len(costs)
        assert rep._plan is None and type(rep.now) is float
        assert rep.now.hex() == now.hex()


class _DrawnPassCost(_PassPricedCost):
    """Pass-priced: the prompt pass costs ``prompt`` seconds, and the
    decode passes of a lone request with an 8-token prompt (cost array
    entries 8 on) cost ``costs``; every other entry is free."""

    def __init__(self, prompt, costs):
        super().__init__()
        self.prompt = prompt
        self.table = np.array([0.0] * 8 + list(costs))

    def prompt_cost(self, state, request):
        return self.prompt

    def _price(self, batch, tokens_per_seq, kv):
        return self.table.item(kv - tokens_per_seq)

    def _price_kvs(self, batch, tokens_per_seq, kvs):
        return self.table[kvs - tokens_per_seq]


def _ulp_grid(start):
    """The spacing of the doubles in ``start``'s binade."""
    return math.ldexp(1.0, math.frexp(start)[1] - 53)


@st.composite
def _grid_stretch(draw, held=False):
    """A start, the step costs of a stretch of up to 56 steps (either
    side of ``_FOLD_MAX``) and a break in ``(start, end]`` (``inf`` too
    unless ``held``); a held stretch's break is at most its last step's
    start. Starts span
    binades: 0.0, subnormal and tiny, powers of two and their
    predecessors. Costs include 0.0, exact rounding ties at the start's
    grid, sub-grid costs, and costs that carry the clock out of its
    binade."""
    start = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.0 ** -960, exclude_min=True),
        st.integers(-40, 40).map(lambda k: 2.0 ** k),
        st.integers(-40, 40).map(lambda k: math.nextafter(2.0 ** k, 0.0)),
        st.floats(1e-3, 1e4)))
    u = _ulp_grid(start)
    scale = draw(st.sampled_from((4 * u, start / 512, start / 32)))
    cost = st.one_of(st.just(0.0), st.floats(0.0, scale))
    if draw(st.booleans()):  # a few ties, or none
        cost = st.one_of(cost, st.integers(0, 6).map(lambda k: (k + 0.5) * u),
                         cost, cost, cost, cost)
    steps = draw(st.integers(1, 56))
    costs = draw(st.lists(cost, min_size=steps, max_size=steps))
    clock = list(itertools.accumulate(costs, initial=start))
    end = clock[-2] if held else clock[-1]
    assume(end > start)
    t = draw(_time_in(start, end, clock) if held
             else st.one_of(_time_in(start, end, clock), st.just(math.inf)))
    return start, costs, t


class TestGridClock:
    """A pass-priced model's decode grid (``_decode_grid``) against the
    per-step ``now += cost`` loop by ``float.hex``: a stretch read off
    the grid, or folded where the grid is not exact, commits exactly
    the steps starting before a break and ends where the per-step clock
    does; a held one is keyed at its last step's start and cut by a
    delivery the same way."""

    @settings(max_examples=200, deadline=None)
    @given(case=_grid_stretch())
    # The clock leaves the binade [1, 2) and each add rounds to the next
    # binade's coarser grid.
    @example(case=(math.nextafter(2.0, 0.0), [1e-7] * 40, math.inf))
    # Every cost is a rounding tie at the odd start's grid.
    @example(case=(1.0 + 2.0 ** -52, [2.0 ** -53] * 40, math.inf))
    # The break is a step end: the cut takes the step ending there.
    @example(case=(1.0, [2.0 ** -40] * 40, 1.0 + 20 * 2.0 ** -40))
    def test_break_commits_steps_starting_before_it(self, case):
        start, costs, t_limit = case
        rep = TestCutRule._decoding(start, costs, model=_DrawnPassCost)
        assert rep.perform_action(t_limit=t_limit) == "decode"
        n, now = TestCutRule._per_step(start, costs, t_limit)
        assert rep.tokens - 1 == n
        assert type(rep.now) is float and rep.now.hex() == now.hex()

    @settings(max_examples=120, deadline=None)
    @given(case=_grid_stretch(held=True))
    @example(case=(1.0, [2.0 ** -40] * 40, 1.0 + 20 * 2.0 ** -40))
    def test_delivery_cuts_a_held_stretch(self, case):
        start, costs, t = case
        clock = list(itertools.accumulate(costs, initial=start))
        rep = TestCutRule._decoding(start, costs, t, model=_DrawnPassCost)
        assert rep.perform_action(t_arrival=t) == "decode"
        assert rep.tokens == 1 and rep._plan is not None
        assert rep.next_action_time().hex() == clock[-2].hex()
        rep.deliver(1, t)
        n, now = TestCutRule._per_step(start, costs, t)
        assert rep.tokens - 1 == n < len(costs)
        assert rep._plan is None and type(rep.now) is float
        assert rep.now.hex() == now.hex()

