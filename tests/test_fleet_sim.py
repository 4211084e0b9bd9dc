"""Tests for the analytical fleet simulator: routing, faults, reports."""

import numpy as np
import pytest

from repro.engine import (
    ClosureStepCost,
    Request,
    WorkloadTrace,
    simulate_serving,
    synthesize_trace,
)
from repro.fleet import FaultPlan, ReplicaFault, Router, simulate_fleet
from repro.fleet.router import RoutingDecision

COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)


def _trace(n=40, rate=30.0, seed=0, num_sessions=None):
    return synthesize_trace(num_requests=n, arrival_rate=rate,
                            mean_prompt=8, mean_gen=6, seed=seed,
                            num_sessions=num_sessions)


class TestSingleReplicaEquivalence:
    @pytest.mark.parametrize("seed,max_batch", [(0, 2), (1, 4), (2, 3)])
    def test_one_replica_fleet_is_simulate_serving(self, seed, max_batch):
        """A fleet of one must reproduce the single-server simulator
        bit for bit — same control plane, same pricing."""
        trace = _trace(seed=seed)
        solo = simulate_serving(trace, max_batch=max_batch, costs=COSTS)
        fleet = simulate_fleet(trace, num_replicas=1, max_batch=max_batch,
                               costs=COSTS)
        assert fleet.finish_times == solo.finish_times
        assert fleet.first_token_times == solo.first_token_times
        assert fleet.queue_delays == solo.queue_delays
        assert fleet.makespan == solo.makespan
        assert fleet.total_tokens == solo.total_tokens


class TestHealthyFleet:
    def test_all_complete_and_load_spreads(self):
        trace = _trace()
        rep = simulate_fleet(trace, num_replicas=4, max_batch=4,
                             routing="round_robin", costs=COSTS)
        assert rep.num_completed == len(trace.requests)
        assert rep.total_tokens == trace.total_gen_tokens
        assert rep.tokens_discarded == 0
        assert rep.retried == frozenset()
        assert sum(rep.request_counts) == len(trace.requests)
        assert all(c > 0 for c in rep.request_counts)  # everyone works
        assert rep.num_replicas == 4

    def test_more_replicas_never_slow_the_fleet(self):
        trace = _trace(n=60, rate=60.0)
        makespans = [
            simulate_fleet(trace, num_replicas=k, max_batch=4,
                           routing="least_outstanding", costs=COSTS).makespan
            for k in (1, 2, 4)
        ]
        assert makespans[0] > makespans[1] > makespans[2]

    def test_session_affinity_keeps_sessions_together(self):
        trace = _trace(num_sessions=6)
        rep = simulate_fleet(trace, num_replicas=3, max_batch=4,
                             routing="session_affinity", costs=COSTS)
        by_session = {}
        for r in trace.requests:
            by_session.setdefault(r.session, set()).add(
                rep.replica_of[r.request_id])
        assert all(len(replicas) == 1 for replicas in by_session.values())

    def test_arrivals_routed_elsewhere_do_not_cut_a_stretch(self):
        """Replica 0 decodes one long request while 60 arrivals go to
        replica 1: with per-stretch summary spans, replica 0 records one
        decode span, because only its own events can split its stretch.
        The report still equals per-step stepping's."""
        trace = WorkloadTrace(
            (Request(0, 0.0, 8, 400, session=0),)
            + tuple(Request(i, 0.05 * i, 8, 4, session=1)
                    for i in range(1, 61)))
        kwargs = dict(num_replicas=2, max_batch=4, costs=COSTS,
                      routing="session_affinity", detail="summary")
        rep = simulate_fleet(trace, **kwargs)
        assert rep.replica_of[0] == 0
        assert all(rep.replica_of[i] == 1 for i in range(1, 61))
        assert rep.finish_times[0] > trace.requests[-1].arrival
        decodes = [s for s in rep.timeline.spans("replica0/server")
                   if s.label.startswith("decode")]
        assert len(decodes) == 1
        assert decodes[0].label == "decode x1 (399 steps)"
        assert rep == simulate_fleet(trace, _max_run_steps=1, **kwargs)

    def test_merged_timeline_has_replica_and_router_lanes(self):
        trace = _trace(n=10)
        rep = simulate_fleet(trace, num_replicas=2, max_batch=2, costs=COSTS)
        lanes = rep.timeline.lanes()
        assert any(lane.startswith("replica0/") for lane in lanes)
        assert any(lane.startswith("replica1/") for lane in lanes)
        assert len(rep.timeline.instants("router")) == len(trace.requests)
        events = rep.timeline.to_chrome_trace()
        assert any(e["ph"] == "i" for e in events)  # router instants export

    def test_validation(self):
        trace = _trace(n=5)
        with pytest.raises(ValueError, match="num_replicas"):
            simulate_fleet(trace, num_replicas=0, max_batch=2, costs=COSTS)
        with pytest.raises(ValueError, match="max_batch"):
            simulate_fleet(trace, num_replicas=2, max_batch=0, costs=COSTS)

    def test_max_run_steps_must_be_positive(self):
        """0 used to fail mid-run with a bare ``IndexError`` from the
        stretch fold."""
        with pytest.raises(ValueError, match="_max_run_steps must be >= 1"):
            simulate_fleet(_trace(n=5), num_replicas=2, max_batch=2,
                           costs=COSTS, _max_run_steps=0)
        with pytest.raises(TypeError, match="_max_run_steps must be an int"):
            simulate_fleet(_trace(n=5), num_replicas=2, max_batch=2,
                           costs=COSTS, _max_run_steps=1.5)

    @pytest.mark.parametrize("num_replicas", [2.5, float("nan")])
    def test_num_replicas_must_be_an_integer(self, num_replicas):
        """Used to fail inside ``range`` without naming the argument."""
        with pytest.raises(TypeError, match="num_replicas must be an integer"):
            simulate_fleet(_trace(n=5), num_replicas=num_replicas,
                           max_batch=2, costs=COSTS)

    @pytest.mark.parametrize("max_batch", [2.5, float("nan")])
    def test_max_batch_must_be_an_integer(self, max_batch):
        """Passed the ``< 1`` guard and failed in the scheduler, naming
        its ``max_slots`` instead of the caller's argument."""
        with pytest.raises(TypeError, match="max_batch must be an integer"):
            simulate_fleet(_trace(n=5), num_replicas=2,
                           max_batch=max_batch, costs=COSTS)


class TestCrashFailover:
    def test_crash_mid_trace_requeues_to_survivors(self):
        """The acceptance scenario: kill 1 of 3 mid-trace; every request
        still completes, load shifts to survivors, the tail degrades but
        the makespan stays finite."""
        # A near-burst trace keeps every queue deep, so the dead replica
        # is guaranteed to hold victims when the fault lands.
        trace = _trace(n=40, rate=400.0)
        t_crash = trace.requests[-1].arrival + 0.05
        plan = FaultPlan((ReplicaFault(1, t_crash),))
        healthy = simulate_fleet(trace, num_replicas=3, max_batch=4,
                                 routing="least_outstanding", costs=COSTS)
        faulted = simulate_fleet(trace, num_replicas=3, max_batch=4,
                                 routing="least_outstanding",
                                 fault_plan=plan, costs=COSTS)
        # 100% completion despite the crash.
        assert faulted.num_completed == len(trace.requests)
        assert faulted.total_tokens == trace.total_gen_tokens
        assert np.isfinite(faulted.makespan)
        # The victims were re-placed, on survivors only.
        assert faulted.retried
        assert all(faulted.replica_of[rid] != 1 for rid in faulted.retried)
        dead = faulted.replica_stats[1]
        assert not dead.alive
        # Load shifted: survivors completed more than in the healthy run.
        assert faulted.request_counts[1] < healthy.request_counts[1]
        assert (sum(faulted.request_counts[i] for i in (0, 2))
                > sum(healthy.request_counts[i] for i in (0, 2)))
        # Failover is not free: the tail degrades.
        assert (faulted.ttft_percentile(trace, 99)
                > healthy.ttft_percentile(trace, 99))

    def test_discarded_tokens_accounted(self):
        trace = _trace(n=30, rate=300.0)
        t_crash = trace.requests[-1].arrival + 0.05
        plan = FaultPlan((ReplicaFault(0, t_crash),))
        rep = simulate_fleet(trace, num_replicas=2, max_batch=4,
                             fault_plan=plan, costs=COSTS)
        dead = rep.replica_stats[0]
        assert rep.tokens_discarded == dead.tokens_discarded > 0
        # Useful throughput counts only kept tokens.
        assert rep.total_tokens == trace.total_gen_tokens
        # A retried request's clock runs through the crash: its finish is
        # after the fault even if it arrived long before.
        assert rep.retried
        assert all(rep.finish_times[rid] >= t_crash for rid in rep.retried)

    def test_crash_before_any_arrival_just_shrinks_the_pool(self):
        trace = _trace(n=12)
        plan = FaultPlan((ReplicaFault(2, 0.0),))
        rep = simulate_fleet(trace, num_replicas=3, max_batch=4,
                             fault_plan=plan, costs=COSTS)
        assert rep.num_completed == len(trace.requests)
        assert rep.retried == frozenset()
        assert rep.request_counts[2] == 0

    def test_fault_plan_validated_against_pool(self):
        trace = _trace(n=5)
        plan = FaultPlan((ReplicaFault(5, 1.0),))
        with pytest.raises(ValueError, match="only has 2"):
            simulate_fleet(trace, num_replicas=2, max_batch=2,
                           fault_plan=plan, costs=COSTS)


class TestSlowdown:
    def test_slowdown_shifts_load_under_load_aware_routing(self):
        trace = _trace(n=60, rate=40.0)
        plan = FaultPlan((ReplicaFault(0, 0.0, kind="slowdown", factor=8.0),))
        rep = simulate_fleet(trace, num_replicas=3, max_batch=4,
                             routing="least_outstanding",
                             fault_plan=plan, costs=COSTS)
        counts = rep.request_counts
        assert counts[0] < counts[1] and counts[0] < counts[2]
        assert rep.num_completed == len(trace.requests)

    def test_slowdown_does_not_change_decisions(self):
        """On a burst trace (all queues populated up front) pricing
        changes but the schedulers' decision streams do not — routing is
        clock-blind under round_robin and no arrival can land mid-round.
        (With staggered arrivals slower rounds *do* re-batch late
        arrivals, so decision-invariance only holds for bursts.)"""
        trace = _trace(n=20, rate=1e6)
        plan = FaultPlan((ReplicaFault(1, 0.0, kind="slowdown", factor=4.0),))
        fast = simulate_fleet(trace, num_replicas=2, max_batch=3,
                              routing="round_robin", costs=COSTS)
        slow = simulate_fleet(trace, num_replicas=2, max_batch=3,
                              routing="round_robin", fault_plan=plan,
                              costs=COSTS)
        assert slow.replica_of == fast.replica_of
        for a, b in zip(fast.schedulers, slow.schedulers):
            assert a.admission_order == b.admission_order
            assert a.retirement_order == b.retirement_order
        assert slow.makespan > fast.makespan


class TestRecovery:
    def test_recovered_replica_serves_again(self):
        """Crash replica 0 early, bring it back mid-trace: it must lose
        its in-flight work (requeued to survivors), then take fresh load
        after the recovery and complete requests on its new scheduler."""
        trace = _trace(n=120, rate=50.0)
        plan = FaultPlan((ReplicaFault(0, 0.3),
                          ReplicaFault(0, 1.0, kind="recover")))
        rep = simulate_fleet(trace, num_replicas=2, max_batch=4,
                             routing="least_outstanding", fault_plan=plan,
                             costs=COSTS)
        assert rep.num_completed == len(trace.requests)
        served_late = [rid for rid, t in rep.finish_times.items()
                       if rep.replica_of[rid] == 0 and t > 1.0]
        assert served_late, "recovered replica took no post-recovery load"
        # Its pre-crash incarnation is preserved for replay/debugging.
        assert 0 in rep.past_schedulers
        assert len(rep.past_schedulers[0]) == 1

    def test_recovery_beats_no_recovery(self):
        """Getting the replica back must not hurt: same crash, strictly
        more capacity afterwards, so the makespan never degrades."""
        trace = _trace(n=120, rate=50.0)
        crash_only = FaultPlan((ReplicaFault(0, 0.3),))
        with_recover = FaultPlan((ReplicaFault(0, 0.3),
                                  ReplicaFault(0, 1.0, kind="recover")))
        worse = simulate_fleet(trace, num_replicas=2, max_batch=4,
                               routing="least_outstanding",
                               fault_plan=crash_only, costs=COSTS)
        better = simulate_fleet(trace, num_replicas=2, max_batch=4,
                                routing="least_outstanding",
                                fault_plan=with_recover, costs=COSTS)
        assert better.makespan <= worse.makespan
        assert better.num_completed == worse.num_completed

    def test_crash_recover_crash_discards_twice(self):
        trace = _trace(n=100, rate=80.0)
        plan = FaultPlan((ReplicaFault(0, 0.3),
                          ReplicaFault(0, 0.6, kind="recover"),
                          ReplicaFault(0, 1.2)))
        rep = simulate_fleet(trace, num_replicas=2, max_batch=4,
                             routing="least_outstanding", fault_plan=plan,
                             costs=COSTS)
        assert rep.num_completed == len(trace.requests)
        assert len(rep.replica_lifetimes[0]) == 2  # up, down, up, down
        assert rep.replica_stats[0].alive is False


class TestPlacementViews:
    """``routing`` is the router's placement log, read through its
    columns, and ``replica_of`` and ``retried`` are drawn from it; they
    equal the tuple, dict and frozenset a per-placement record would
    give, built here from every ``Router.place`` call as it happens."""

    @pytest.fixture(scope="class")
    def run(self):
        base = _trace(n=40, rate=400.0)
        # Non-consecutive ids: keyed reads go through the id index.
        trace = WorkloadTrace(tuple(
            Request(3 * r.request_id + 1, r.arrival, r.prompt_len,
                    r.gen_tokens) for r in base.requests))
        plan = FaultPlan((ReplicaFault(1, trace.requests[-1].arrival
                                       + 0.05),))
        calls = []
        place = Router.place

        def recording_place(self, pos, tokens, time, **kw):
            replica = place(self, pos, tokens, time, **kw)
            calls.append(RoutingDecision(time, trace.requests[pos].request_id,
                                         replica, kw.get("retry", False)))
            return replica

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Router, "place", recording_place)
            report = simulate_fleet(trace, num_replicas=3, max_batch=4,
                                    routing="least_outstanding",
                                    fault_plan=plan, costs=COSTS)
        return trace, report, calls

    def test_equal_to_per_placement_records(self, run):
        trace, report, calls = run
        routing = tuple(calls)
        replica_of = {d.request_id: d.replica for d in calls}
        retried = frozenset(d.request_id for d in calls if d.retry)
        assert retried and len(routing) == len(trace.requests) + len(retried)
        assert report.routing == routing and routing == report.routing
        assert tuple(report.routing) == routing
        assert report.routing[-1] == routing[-1]
        assert report.replica_of == replica_of
        assert replica_of == report.replica_of
        assert report.retried == retried and retried == report.retried
        assert len(report.replica_of) == len(replica_of)

    def test_replica_of_follows_trace_order(self, run):
        trace, report, _ = run
        assert list(report.replica_of) == [r.request_id
                                           for r in trace.requests]
        # A retried request's last placement is on a survivor.
        assert all(report.replica_of[rid] != 1 for rid in report.retried)
