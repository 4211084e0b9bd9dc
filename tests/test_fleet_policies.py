"""Tests for routing policies, the router, and fault plans."""

import pytest

from repro.engine import Request
from repro.fleet import (
    ROUTING_POLICIES,
    FaultPlan,
    LeastOutstanding,
    PowerOfTwoChoices,
    ReplicaFault,
    RoundRobin,
    Router,
    SessionAffinity,
    resolve_routing_policy,
)


def _req(rid, prompt=4, gen=3, arrival=0.0, session=None):
    return Request(request_id=rid, arrival=arrival, prompt_len=prompt,
                   gen_tokens=gen, session=session)


class TestRouterAccounting:
    def test_outstanding_tracks_token_work(self):
        router = Router(2, policy="round_robin")
        r = _req(0, prompt=5, gen=7)
        target = router.route(r, 0.0)
        assert router.outstanding(target) == r.work_tokens == 12
        router.complete(r, target)
        assert router.outstanding(target) == 0.0

    def test_mark_failed_removes_from_rotation(self):
        router = Router(3, policy="round_robin")
        router.mark_failed(1)
        targets = {router.route(_req(i), 0.0) for i in range(6)}
        assert targets == {0, 2}
        assert router.alive_replicas() == [0, 2]

    def test_recovery_keeps_a_drain(self):
        router = Router(4)
        router.mark_draining(1)
        router.mark_failed(2)
        assert router.alive_replicas() == [0, 3]
        assert router.add_replica() == 4
        router.mark_recovered(2)
        router.mark_failed(1)  # crashes mid-drain...
        router.mark_recovered(1)  # ...and reboots still drained
        assert router.is_alive(1) and not router.is_routable(1)
        assert router.alive_replicas() == [0, 2, 3, 4]

    def test_all_dead_raises(self):
        router = Router(2)
        router.mark_failed(0)
        router.mark_failed(1)
        with pytest.raises(RuntimeError, match="every replica has failed"):
            router.route(_req(0), 0.0)

    def test_decision_log_and_retries(self):
        router = Router(2, policy="round_robin")
        router.route(_req(0), 0.0)
        router.route(_req(1), 0.5, retry=True)
        assert [d.retry for d in router.decisions] == [False, True]
        assert router.num_retries == 1
        assert router.assignments() == {0: 0, 1: 1}

    def test_validation(self):
        with pytest.raises(ValueError, match="num_replicas"):
            Router(0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_set_weight_rejects_non_finite(self, weight):
        """A NaN weight would otherwise win every least-outstanding
        comparison and send all traffic to one replica."""
        router = Router(2, policy=LeastOutstanding())
        with pytest.raises(ValueError, match="weight must be finite"):
            router.set_weight(0, weight)


class TestPolicies:
    def test_round_robin_cycles(self):
        router = Router(3, policy="round_robin")
        targets = [router.route(_req(i), 0.0) for i in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_joins_shortest_queue(self):
        router = Router(3, policy="least_outstanding")
        a = router.route(_req(0, prompt=50, gen=50), 0.0)  # heavy
        b = router.route(_req(1, prompt=1, gen=1), 0.0)
        c = router.route(_req(2, prompt=1, gen=1), 0.0)
        assert a == 0 and b == 1 and c == 2  # ties break by index
        # Replica 0 is the most loaded; the next light request avoids it.
        assert router.route(_req(3, prompt=1, gen=1), 0.0) != 0

    def test_power_of_two_deterministic_and_alive_only(self):
        runs = []
        for _ in range(2):
            router = Router(4, policy=PowerOfTwoChoices(seed=3))
            runs.append([router.route(_req(i), 0.0) for i in range(12)])
        assert runs[0] == runs[1]  # seeded -> reproducible
        router = Router(2, policy=PowerOfTwoChoices(seed=0))
        router.mark_failed(0)
        assert all(router.route(_req(i), 0.0) == 1 for i in range(4))

    def test_session_affinity_pins_and_repins(self):
        router = Router(3, policy=SessionAffinity())
        first = router.route(_req(0, session=7), 0.0)
        # Later requests of the session follow the pin even when other
        # replicas are empty.
        assert router.route(_req(1, session=7), 0.1) == first
        assert router.policy.pins == {7: first}
        router.mark_failed(first)
        repinned = router.route(_req(2, session=7), 0.2)
        assert repinned != first and router.is_alive(repinned)
        assert router.policy.pins == {7: repinned}

    def test_session_affinity_fallback_for_unaffiliated(self):
        router = Router(2, policy=SessionAffinity(fallback=RoundRobin()))
        targets = [router.route(_req(i, session=None), 0.0) for i in range(4)]
        assert targets == [0, 1, 0, 1]
        assert router.policy.pins == {}

    def test_registry_and_resolution(self):
        assert set(ROUTING_POLICIES) == {
            "round_robin", "least_outstanding", "power_of_two",
            "session_affinity",
        }
        assert isinstance(resolve_routing_policy("least_outstanding"),
                          LeastOutstanding)
        inst = RoundRobin()
        assert resolve_routing_policy(inst) is inst
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_routing_policy("nope")


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError, match="factor > 1"):
            ReplicaFault(0, 1.0, kind="slowdown", factor=1.0)
        with pytest.raises(ValueError, match="kind"):
            ReplicaFault(0, 1.0, kind="explode")
        with pytest.raises(ValueError, match="finite"):
            ReplicaFault(0, float("inf"))
        with pytest.raises(ValueError, match="more than one crash"):
            FaultPlan((ReplicaFault(0, 1.0), ReplicaFault(0, 2.0)))

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_slowdown_factor_must_be_finite(self, factor):
        with pytest.raises(ValueError, match="finite factor > 1"):
            ReplicaFault(0, 1.0, kind="slowdown", factor=factor)

    def test_validate_against_pool(self):
        plan = FaultPlan((ReplicaFault(3, 1.0),))
        with pytest.raises(ValueError, match="only has 2"):
            plan.validate_against(2)
        everyone = FaultPlan((ReplicaFault(0, 1.0), ReplicaFault(1, 1.0)))
        with pytest.raises(ValueError, match="crash every replica"):
            everyone.validate_against(2)
        everyone.validate_against(3)  # one survivor suffices

    def test_accessors(self):
        plan = FaultPlan((
            ReplicaFault(0, 1.0),
            ReplicaFault(1, 2.0, kind="slowdown", factor=4.0),
        ))
        assert plan.crashes() == {0: 1.0}
        assert plan.slowdowns() == {1: (2.0, 4.0)}


class TestFaultPlanRecovery:
    def test_recover_requires_preceding_crash(self):
        with pytest.raises(ValueError, match="without a preceding crash"):
            FaultPlan((ReplicaFault(0, 1.0, kind="recover"),))
        with pytest.raises(ValueError, match="without a preceding crash"):
            # Two recoveries after one crash: the second is dangling.
            FaultPlan((ReplicaFault(0, 1.0),
                       ReplicaFault(0, 2.0, kind="recover"),
                       ReplicaFault(0, 3.0, kind="recover")))

    def test_crash_recover_crash_alternation_is_legal(self):
        plan = FaultPlan((ReplicaFault(0, 1.0),
                          ReplicaFault(0, 2.0, kind="recover"),
                          ReplicaFault(0, 3.0)))
        assert plan.crash_events() == [(1.0, 0), (3.0, 0)]
        assert plan.recover_events() == [(2.0, 0)]
        # crashes() keeps its historic first-crash shape for old callers.
        assert plan.crashes() == {0: 1.0}

    def test_recover_must_come_after_its_crash(self):
        # Recoveries apply before crashes at one instant, so a
        # zero-length outage used to recover a still-alive replica.
        with pytest.raises(ValueError, match="not after its crash"):
            FaultPlan((ReplicaFault(0, 1.0),
                       ReplicaFault(0, 1.0, kind="recover")))

    def test_double_crash_without_recover_still_rejected(self):
        with pytest.raises(ValueError, match="more than one crash"):
            FaultPlan((ReplicaFault(0, 1.0), ReplicaFault(0, 2.0)))

    def test_recovery_lifts_the_crash_every_replica_rule(self):
        # Both replicas crash, but never simultaneously: 0 is back up
        # before 1 goes down, so some replica is always alive.
        plan = FaultPlan((ReplicaFault(0, 1.0),
                          ReplicaFault(0, 2.0, kind="recover"),
                          ReplicaFault(1, 3.0)))
        plan.validate_against(2)  # must not raise
        # Without the recovery the same crashes are a total outage.
        with pytest.raises(ValueError, match="crash every replica"):
            FaultPlan((ReplicaFault(0, 1.0),
                       ReplicaFault(1, 3.0))).validate_against(2)

    def test_simultaneous_total_outage_still_rejected(self):
        # The recovery lands at the same instant as the second crash;
        # ties resolve recover-first, so this squeaks by ...
        plan = FaultPlan((ReplicaFault(0, 1.0),
                          ReplicaFault(0, 3.0, kind="recover"),
                          ReplicaFault(1, 3.0)))
        plan.validate_against(2)
        # ... but a window with genuinely no survivor does not.
        gap = FaultPlan((ReplicaFault(0, 1.0),
                         ReplicaFault(0, 4.0, kind="recover"),
                         ReplicaFault(1, 3.0)))
        with pytest.raises(ValueError, match="all 2 are down"):
            gap.validate_against(2)
