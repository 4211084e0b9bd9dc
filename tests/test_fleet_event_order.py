"""Fleet event-loop action order.

``simulate_fleet`` finds the next replica to act through a lazily
invalidated heap of event keys, each replica's ``next_action_time()``:
when its next action starts or, for a replica holding a priced decode
stretch, the start of that stretch's last step (where its completions
become visible to the router). The contract is the one a full scan over
every replica gives: each action the loop runs belongs to the replica
with the minimum key, the lowest index among equal keys. Arrivals cut
only the replica they are routed to: a delivery to a replica holding a
stretch commits exactly the steps starting before the arrival and
retires nobody. This test registers every ``_Replica`` of a run, wraps
``perform_action`` and ``deliver`` (re-pricing each held stretch's step
costs from its batch state to re-sum it), and checks those contracts at
every action and delivery over a randomized configuration space;
simultaneous arrivals and grid-valued step costs make ties common. Each
case draws one of two cost models: a closure pair, or a small
pass-priced model that prices prefix hits at their suffix and whose
decode stretches read their clock off its decode grid, with generations
past ``_FOLD_MAX`` too. Every drawn case
is also run in the other stepping mode (compressed vs ``_max_run_steps=1``)
and must give the same report and scheduler event logs, and at full
detail the same drawn timeline. A one-replica case with no faults and no
autoscaler must also equal ``simulate_serving`` and the per-step oracle
(``tests/serving_oracle.py``), report and event log alike, under every
admission policy.
"""

import cProfile
import pstats
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autoscale import AutoscaleConfig
from repro.engine import (BatchState, ClosureStepCost, Request,
                          WorkloadTrace, simulate_serving, synthesize_trace)
from repro.engine.costs import _PassPricedCost
from repro.engine.replica import _FOLD_MAX, _Replica
from repro.engine.scheduler import TenantFairShare, TenantPriority
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet
from tests.serving_oracle import simulate_serving_reference

COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)
GRID_S = 0.05


class _TinyPassCost(_PassPricedCost):
    """A pass-priced model in milliseconds: a pass of shape ``(batch,
    tokens_per_seq, kv)`` pays per token and per attended KV entry, so a
    prefix hit (a shorter suffix) is cheaper than its full prompt."""

    def _price(self, batch, tokens_per_seq, kv):
        return self._price_kvs(batch, tokens_per_seq, np.array([kv])).item(0)

    def _price_kvs(self, batch, tokens_per_seq, kvs):
        return (1e-3 + 3e-4 * batch * tokens_per_seq
                + 1.3e-5 * batch * tokens_per_seq * kvs)


# Every admission policy, configured tenant-aware ones included.
POLICIES = ("fcfs", "shortest_prompt", "tenant_fair",
            TenantFairShare(weights={"a": 2.0}, slot_caps={"b": 1}),
            TenantPriority(priorities={"a": 1, "b": -1}))


def checked_fleet_run(trace, **kwargs):
    """Run ``simulate_fleet`` asserting the scan order at every action
    the event loop takes and the cut at every delivery to a replica
    holding a stretch; returns the report, the action count and the
    number of such cuts."""
    replicas: list[_Replica] = []
    in_crash = [False]
    actions = [0]
    cuts = [0]
    held: dict[int, list[float]] = {}  # replica -> held stretch's costs
    per_step = kwargs.get("_max_run_steps") == 1
    init, perform, deliver, crash = (
        _Replica.__init__, _Replica.perform_action, _Replica.deliver,
        _Replica.crash)

    def registering_init(self, *args, **kw):
        init(self, *args, **kw)
        replicas.append(self)

    def flagged_crash(self, *args, **kw):
        # A crash finishes its in-flight round through perform_action;
        # those calls are the dying replica's own, not the loop's picks.
        in_crash[0] = True
        try:
            return crash(self, *args, **kw)
        finally:
            in_crash[0] = False

    def checked_perform(self, *args, **kw):
        if not in_crash[0]:
            want = min((rep.next_action_time(), rep.index)
                       for rep in replicas)
            assert (self.next_action_time(), self.index) == want, (
                f"loop ran replica {self.index} at "
                f"{self.next_action_time()!r}; a scan picks {want}")
            actions[0] += 1
        result = perform(self, *args, **kw)
        if self._plan is not None:
            # Per-step stepping never holds a stretch; a held one is
            # keyed exactly at its last step's start, summed here from
            # its step costs, priced again from the batch it started
            # with (slowed as the replica slows them).
            assert not per_step, "a one-step stretch was held"
            start, n = self._plan[0], self._plan[2]
            costs = self.costs.decode_run_cost(
                BatchState(self.kv.batch, self.kv.total_kv), n).tolist()
            if start >= self.slow_from:
                costs = [c * self.slow_factor for c in costs]
            held[self.index] = costs
            assert self.next_action_time() == reduce(add, costs[:n - 1],
                                                     start)
        return result

    def checked_deliver(self, pos, t):
        if self._plan is None:
            return deliver(self, pos, t)
        start, n = self._plan[0], self._plan[2]
        costs = held[self.index]
        step, done, active = (self.sched.step, self.completed,
                              self.sched.num_active)
        deliver(self, pos, t)
        committed = self.sched.step - step
        starts = list(accumulate(costs[:n - 1], add, initial=start))
        assert committed == sum(s < t for s in starts), (
            f"replica {self.index} committed {committed} of {n} held steps "
            f"at an arrival at {t!r}; step starts {starts}")
        assert committed < n
        assert self.completed == done and self.sched.num_active == active
        assert self._plan is None and self.now >= t
        cuts[0] += 1
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Replica, "__init__", registering_init)
        mp.setattr(_Replica, "perform_action", checked_perform)
        mp.setattr(_Replica, "deliver", checked_deliver)
        mp.setattr(_Replica, "crash", flagged_crash)
        try:
            report = simulate_fleet(trace, **kwargs)
        finally:
            # Conservation: each ledger's running KV total and count are
            # the sum and number of its live lengths, whether the run
            # finished or failed.
            for rep in replicas:
                assert rep.kv.total_kv == sum(rep.kv.live.values()), (
                    f"replica {rep.index}: total_kv {rep.kv.total_kv} != "
                    f"{sum(rep.kv.live.values())}")
                assert rep.kv.batch == len(rep.kv.live)
    assert [rep.index for rep in replicas] == list(range(len(replicas)))
    return report, actions[0], cuts[0]


def event_logs(report):
    """Every scheduler's event log, past incarnations included."""
    return ([s.events for s in report.schedulers],
            {i: [s.events for s, _ in past]
             for i, past in report.past_schedulers.items()})


@st.composite
def _traces(draw, long=False):
    """A trace; ``long`` lets generations run past ``_FOLD_MAX``."""
    gens = (st.one_of(st.integers(1, 16), st.integers(_FOLD_MAX + 1, 64))
            if long else st.integers(1, 16))
    n = draw(st.integers(2, 24))
    # Few distinct grid slots for many requests: simultaneous arrivals.
    slots = sorted(draw(st.lists(st.integers(0, 12), min_size=n,
                                 max_size=n)))
    sessions = draw(st.booleans())
    tenants = draw(st.booleans())
    rows = []
    for i, k in enumerate(slots):
        prompt_len = draw(st.integers(1, 16))
        rows.append(Request(
            request_id=i, arrival=k * GRID_S, prompt_len=prompt_len,
            gen_tokens=draw(gens),
            session=draw(st.integers(0, 3)) if sessions else None,
            tenant=(draw(st.sampled_from(["a", "b", None])) if tenants
                    else None),
            shared_prefix_len=(draw(st.integers(0, prompt_len - 1))
                               if sessions else 0)))
    return WorkloadTrace(tuple(rows))


@st.composite
def _fleet_cases(draw, alone=False):
    """A fleet case; ``alone`` draws one replica, no faults and no
    autoscaler: a fleet that must equal one server."""
    pass_priced = draw(st.booleans())
    trace = draw(_traces(long=pass_priced))
    num_replicas = 1 if alone else draw(st.integers(1, 4))
    faults = []
    if num_replicas > 1 and draw(st.booleans()):
        t_crash = draw(st.integers(0, 12)) * GRID_S
        faults.append(ReplicaFault(0, t_crash))
        if draw(st.booleans()):
            faults.append(ReplicaFault(
                0, t_crash + draw(st.integers(1, 12)) * GRID_S,
                kind="recover"))
    if not alone and draw(st.booleans()):
        faults.append(ReplicaFault(
            draw(st.integers(0, num_replicas - 1)),
            draw(st.integers(0, 12)) * GRID_S, kind="slowdown",
            factor=draw(st.sampled_from([2.0, 3.0]))))
    autoscaler = None
    if not alone and draw(st.booleans()):
        autoscaler = AutoscaleConfig(
            min_replicas=1, max_replicas=num_replicas + 2,
            ttft_slo_s=draw(st.sampled_from([0.05, 0.3])),
            epoch_s=draw(st.sampled_from([0.05, 0.1, 0.25])),
            sustain_epochs=1, queue_high_depth=0.5, queue_low_depth=0.5,
            cold_start_s=draw(st.sampled_from([0.0, 0.1])),
            window_s=0.5, scale_in_cooldown_s=0.2)
    return trace, dict(
        costs=_TinyPassCost() if pass_priced else COSTS,
        num_replicas=num_replicas,
        max_batch=draw(st.integers(1, 4)),
        policy=draw(st.sampled_from(POLICIES)),
        routing=draw(st.sampled_from(["round_robin", "least_outstanding",
                                      "power_of_two", "session_affinity"])),
        fault_plan=FaultPlan(tuple(faults)),
        autoscaler=autoscaler,
        detail=draw(st.sampled_from(["full", "summary"])),
        _max_run_steps=draw(st.sampled_from([None, 1])),
    )


@settings(max_examples=150, deadline=None)
@given(case=_fleet_cases())
def test_every_action_is_the_scan_pick(case):
    trace, kwargs = case
    other = dict(kwargs, _max_run_steps=(
        None if kwargs["_max_run_steps"] == 1 else 1))
    try:
        report, actions, cuts = checked_fleet_run(trace, **kwargs)
    except RuntimeError as exc:
        # Autoscaler drains plus a crash can leave nothing routable,
        # which the router reports; every action up to it was checked,
        # and the other stepping mode must fail the same way.
        if kwargs["autoscaler"] is None \
                or "every replica has failed" not in str(exc):
            raise
        with pytest.raises(RuntimeError, match="every replica has failed"):
            simulate_fleet(trace, **other)
        return
    assert actions >= len(trace.requests)  # one admission each, at least
    assert report.num_completed == len(trace.requests)
    # Conservation: no request finishes twice, every kept token is one
    # the trace asked for, and the fleet's discard count is the sum of
    # its replicas' own.
    assert sum(report.request_counts) == len(trace.requests)
    assert report.total_tokens == trace.total_gen_tokens
    assert report.tokens_discarded == sum(
        s.tokens_discarded for s in report.replica_stats)
    if kwargs["_max_run_steps"] == 1:
        assert cuts == 0
    twin = simulate_fleet(trace, **other)
    assert report == twin
    assert event_logs(report) == event_logs(twin)
    # The timeline is drawn from each replica's action log: at full
    # detail it re-prices every stretch, so both stepping modes must
    # draw the same per-step spans, and the log's busy time must be the
    # drawn server lane's.
    if kwargs["detail"] == "full":
        assert report.timeline.to_chrome_trace() == \
            twin.timeline.to_chrome_trace()
    for stats in report.replica_stats:
        assert stats.busy_time == report.timeline.busy_time(
            f"replica{stats.replica}/server")
    if (kwargs["num_replicas"] == 1 and not kwargs["fault_plan"].faults
            and kwargs["autoscaler"] is None):
        assert_serves_alone(trace, report, kwargs)


@settings(max_examples=40, deadline=None)
@given(case=_fleet_cases(alone=True))
def test_one_replica_fleet_serves_alone(case):
    trace, kwargs = case
    assert_serves_alone(trace, simulate_fleet(trace, **kwargs), kwargs)


def assert_serves_alone(trace, report, kwargs):
    """A one-replica fleet is one server: ``simulate_serving`` and the
    per-step oracle give its report and its scheduler's event log."""
    opts = dict(costs=kwargs["costs"], max_batch=kwargs["max_batch"],
                policy=kwargs["policy"])
    for alone in (simulate_serving(trace, detail=kwargs["detail"], **opts),
                  simulate_serving_reference(trace, **opts)):
        for name in ("makespan", "finish_times", "first_token_times",
                     "queue_delays", "total_tokens", "prefix_hits",
                     "prefix_hit_tokens", "kv_blocks_allocated",
                     "kv_blocks_saved", "peak_kv_blocks"):
            assert getattr(alone, name) == getattr(report, name), name
        assert alone.scheduler.events == report.schedulers[0].events


def test_simultaneous_idle_replicas_act_lowest_index_first():
    """Four requests at one instant on four idle replicas: every replica
    is due at that instant and they must act 0, 1, 2, 3."""
    trace = WorkloadTrace(tuple(Request(i, 1.0, 4, 2) for i in range(4)))
    order: list[int] = []
    perform = _Replica.perform_action

    def logged(self, *args, **kw):
        order.append(self.index)
        return perform(self, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Replica, "perform_action", logged)
        simulate_fleet(trace, num_replicas=4, max_batch=2, costs=COSTS,
                       routing="round_robin")
    assert order[:4] == [0, 1, 2, 3]


def test_action_keys_are_read_once_per_action_and_delivery():
    """The loop caches every replica's key: ``next_action_time`` runs
    once after each action and once after each delivery, never to
    validate the heap's top or inside ``perform_action``. The fleet
    crashes, recovers and autoscales (joins and a drain), so every path
    that moves a key is exercised. Call counts are exact under
    cProfile."""
    trace = synthesize_trace(num_requests=80, arrival_rate=20.0,
                             mean_prompt=8, mean_gen=12, seed=3)
    autoscaler = AutoscaleConfig(
        min_replicas=1, max_replicas=5, ttft_slo_s=0.05, epoch_s=0.25,
        sustain_epochs=1, queue_high_depth=0.5, queue_low_depth=0.5,
        cold_start_s=0.1, window_s=0.5, scale_in_cooldown_s=0.2)
    plan = FaultPlan((ReplicaFault(0, 1.0), ReplicaFault(0, 2.0,
                                                        kind="recover")))
    profile = cProfile.Profile()
    profile.enable()
    report = simulate_fleet(trace, num_replicas=2, costs=COSTS, max_batch=4,
                            routing="least_outstanding", fault_plan=plan,
                            autoscaler=autoscaler, detail="summary")
    profile.disable()
    calls: dict[str, int] = {}
    for (path, _, name), stats in pstats.Stats(profile).stats.items():
        if path.endswith("replica.py"):
            calls[name] = calls.get(name, 0) + stats[1]
    assert report.num_completed == len(trace.requests)
    assert report.past_schedulers and report.retried  # crashed, recovered
    kinds = {ev.kind for ev in report.autoscale_log}
    assert {"join", "replace"} <= kinds
    assert calls["next_action_time"] <= (calls["perform_action"]
                                         + calls["deliver"])


def test_epochs_tick_only_while_work_remains():
    """A control epoch runs only while a request is undelivered or a
    replica has work: after the last arrival, every epoch sees queued
    or running requests, and the run ends with its last action rather
    than one more epoch (which could still scale out)."""
    # Two replicas cannot keep up, so the backlog drains for several
    # epochs after the last arrival.
    trace = synthesize_trace(num_requests=400, arrival_rate=30.0,
                             mean_prompt=32, mean_gen=16, seed=13)
    autoscaler = AutoscaleConfig(
        min_replicas=1, max_replicas=2, ttft_slo_s=0.3, epoch_s=1.0,
        sustain_epochs=2, scale_out_cooldown_s=2.0, mean_prompt=32)
    report = simulate_fleet(trace, num_replicas=1, costs=COSTS, max_batch=4,
                            routing="least_outstanding",
                            autoscaler=autoscaler, detail="summary")
    last_arrival = trace.requests[-1].arrival
    late = [s for s in report.telemetry if s.time_s > last_arrival]
    assert late, "the case must drain past its last arrival"
    for signals in late:
        assert signals.queue_depth or signals.slot_util, (
            f"epoch at {signals.time_s} ran with no work left")
