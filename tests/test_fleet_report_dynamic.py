"""FleetReport over dynamically-sized replica sets.

The report layer predates the autoscaler and assumed a fixed pool; these
tests pin its behavior once replicas join mid-trace, retire early, crash
and recover (lifetime gaps), or exist without completing anything —
percentiles, GPU-cost accounting (``replica_seconds``/``avg_replicas``)
and the merged timeline must all stay coherent.
"""

import pytest

from repro.autoscale import AutoscaleConfig
from repro.engine import ClosureStepCost, synthesize_trace
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet

COSTS = ClosureStepCost(prompt_time=lambda b, p: 0.02 + 0.001 * p,
                        step_time=lambda b: 0.01 + 0.001 * b)


def _scaled_report(seed=7, n=400, rate=50.0):
    """A run whose pool provably grows and shrinks mid-trace."""
    trace = synthesize_trace(num_requests=n, arrival_rate=rate,
                             mean_prompt=16, mean_gen=8,
                             arrival_shape="diurnal", diurnal_amplitude=1.0,
                             seed=seed)
    rep = simulate_fleet(
        trace, num_replicas=1, max_batch=4, costs=COSTS,
        routing="least_outstanding",
        autoscaler=AutoscaleConfig(min_replicas=1, max_replicas=4,
                                   ttft_slo_s=0.3, epoch_s=0.5,
                                   sustain_epochs=1, window_s=1.0,
                                   scale_in_cooldown_s=1.0, mean_prompt=16))
    assert rep.num_replicas > 1, "fixture must actually scale out"
    return trace, rep


class TestDynamicPool:
    def test_join_and_retire_times_bound_each_replica(self):
        trace, rep = _scaled_report()
        stats = {s.replica: s for s in rep.replica_stats}
        assert stats[0].join_time == 0.0
        late = [s for s in rep.replica_stats if s.join_time > 0.0]
        assert late, "autoscaled joins must surface in replica_stats"
        for s in rep.replica_stats:
            if s.retire_time is not None:
                assert s.draining
                assert s.retire_time >= s.join_time
                assert s.retire_time <= rep.makespan

    def test_percentiles_cover_requests_served_by_late_joiners(self):
        trace, rep = _scaled_report()
        assert rep.num_completed == len(trace.requests)
        served_by_late = [r for r in trace.requests
                          if rep.replica_of[r.request_id] != 0]
        assert served_by_late, "late joiners must have taken real load"
        # Fleet-wide percentiles must fold those requests in without
        # blowing up.
        assert rep.ttft_percentile(trace, 99) > 0.0
        assert rep.latency_percentile(trace, 99) > 0.0

    def test_replica_seconds_sum_lifetime_segments(self):
        trace, rep = _scaled_report()
        assert set(rep.replica_lifetimes) == {
            s.replica for s in rep.replica_stats}
        total = 0.0
        for index, segments in rep.replica_lifetimes.items():
            assert segments, f"replica {index} has no lifetime"
            for start, end in segments:
                assert 0.0 <= start <= end
                total += end - start
        assert rep.replica_seconds == pytest.approx(total)
        assert 1.0 < rep.avg_replicas <= 4.0
        assert rep.avg_replicas == pytest.approx(
            rep.replica_seconds / rep.makespan)

    def test_merged_timeline_has_lanes_for_partial_run_replicas(self):
        _, rep = _scaled_report()
        lanes = rep.timeline.lanes()
        for s in rep.replica_stats:
            if s.num_requests > 0:
                assert any(lane.startswith(f"replica{s.replica}/")
                           for lane in lanes), s.replica
        # The autoscale lane narrates the scaling story.
        instants = rep.timeline.instants("autoscale")
        assert len(instants) == len(rep.autoscale_log)


class TestStaticPoolUnchanged:
    def test_fixed_pool_has_trivial_lifetimes(self):
        trace = synthesize_trace(num_requests=60, arrival_rate=30.0,
                                 mean_prompt=8, mean_gen=6, seed=1)
        rep = simulate_fleet(trace, num_replicas=3, max_batch=4, costs=COSTS)
        assert rep.avg_replicas == pytest.approx(3.0)
        assert rep.replica_seconds == pytest.approx(3 * rep.makespan)
        for segments in rep.replica_lifetimes.values():
            assert segments == ((0.0, rep.makespan),)
        assert all(s.join_time == 0.0 and s.retire_time is None
                   and not s.draining for s in rep.replica_stats)

    def test_crash_and_recover_split_lifetime(self):
        trace = synthesize_trace(num_requests=120, arrival_rate=40.0,
                                 mean_prompt=8, mean_gen=6, seed=2)
        plan = FaultPlan((ReplicaFault(0, 0.5),
                          ReplicaFault(0, 1.5, kind="recover")))
        rep = simulate_fleet(trace, num_replicas=2, max_batch=4, costs=COSTS,
                             routing="least_outstanding", fault_plan=plan)
        segments = rep.replica_lifetimes[0]
        assert len(segments) == 2
        (a0, a1), (b0, b1) = segments
        assert a0 == 0.0 and a1 <= 1.5 <= b0 < b1
        # The downtime gap is real GPU savings, not rounding.
        assert rep.replica_seconds < 2 * rep.makespan - 0.5

    def test_empty_replica_is_reported_not_crashed_on(self):
        # One request, two replicas: replica 1 never completes anything.
        trace = synthesize_trace(num_requests=1, arrival_rate=5.0,
                                 mean_prompt=8, mean_gen=4, seed=3)
        rep = simulate_fleet(trace, num_replicas=2, max_batch=2, costs=COSTS,
                             routing="round_robin")
        idle = {s.replica: s for s in rep.replica_stats}[1]
        assert idle.num_requests == 0 and idle.tokens == 0
        assert rep.request_counts == (1, 0)
