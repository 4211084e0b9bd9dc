"""Tests for routing policies, the router, and fault plans."""

import copy
import pickle

import numpy as np
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
    RoutingPolicy,
    SessionAffinity,
    resolve_routing_policy,
)


# Request ids by trace position, for the routers built here.
IDS = range(1000)


def _req(rid, prompt=4, gen=3, arrival=0.0, session=None):
    return Request(request_id=rid, arrival=arrival, prompt_len=prompt,
                   gen_tokens=gen, session=session)


def _place(router, r, time, *, retry=False):
    """Place ``r`` as the fleet does: its prompt + generation tokens, at
    its trace position (its id, in these consecutive-id traces)."""
    return router.place(r.request_id, r.prompt_len + r.gen_tokens, time,
                        retry=retry, request=r)


def _placements(router):
    """The router's placement log as (time, position, replica, retry)
    rows."""
    log = router.log
    return list(zip(log.time, log.pos, log.replica, map(bool, log.retry)))


class TestRouterAccounting:
    def test_outstanding_tracks_token_work(self):
        router = Router(2, policy="round_robin", ids=IDS)
        r = _req(0, prompt=5, gen=7)
        target = _place(router, r, 0.0)
        assert router.outstanding(target) == 12
        router.release(target, 12)
        assert router.outstanding(target) == 0.0

    def test_mark_failed_removes_from_rotation(self):
        router = Router(3, policy="round_robin", ids=IDS)
        router.mark_failed(1)
        targets = {_place(router, _req(i), 0.0) for i in range(6)}
        assert targets == {0, 2}
        assert router.alive_replicas() == [0, 2]

    def test_recovery_keeps_a_drain(self):
        router = Router(4, ids=IDS)
        router.mark_draining(1)
        router.mark_failed(2)
        assert router.alive_replicas() == [0, 3]
        assert router.add_replica() == 4
        router.mark_recovered(2)
        router.mark_failed(1)  # crashes mid-drain...
        router.mark_recovered(1)  # ...and reboots still drained
        assert not router.is_routable(1)
        assert router.alive_replicas() == [0, 2, 3, 4]

    def test_all_dead_raises(self):
        router = Router(2, ids=IDS)
        router.mark_failed(0)
        router.mark_failed(1)
        with pytest.raises(RuntimeError, match="every replica has failed"):
            _place(router, _req(0), 0.0)

    def test_decision_log_and_retries(self):
        router = Router(2, policy="round_robin", ids=IDS)
        _place(router, _req(0), 0.0)
        _place(router, _req(1), 0.5, retry=True)
        assert _placements(router) == [(0.0, 0, 0, False),
                                       (0.5, 1, 1, True)]

    def test_validation(self):
        with pytest.raises(ValueError, match="num_replicas"):
            Router(0, ids=IDS)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_set_weight_rejects_non_finite(self, weight):
        """A NaN weight would otherwise win every least-outstanding
        comparison and send all traffic to one replica."""
        router = Router(2, policy=LeastOutstanding(), ids=IDS)
        with pytest.raises(ValueError, match="weight must be finite"):
            router.set_weight(0, weight)


class TestPolicies:
    def test_round_robin_cycles(self):
        router = Router(3, policy="round_robin", ids=IDS)
        targets = [_place(router, _req(i), 0.0) for i in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_joins_shortest_queue(self):
        router = Router(3, policy="least_outstanding", ids=IDS)
        a = _place(router, _req(0, prompt=50, gen=50), 0.0)  # heavy
        b = _place(router, _req(1, prompt=1, gen=1), 0.0)
        c = _place(router, _req(2, prompt=1, gen=1), 0.0)
        assert a == 0 and b == 1 and c == 2  # ties break by index
        # Replica 0 is the most loaded; the next light request avoids it.
        assert _place(router, _req(3, prompt=1, gen=1), 0.0) != 0

    def test_power_of_two_deterministic_and_alive_only(self):
        runs = []
        for _ in range(2):
            router = Router(4, policy=PowerOfTwoChoices(seed=3), ids=IDS)
            runs.append([_place(router, _req(i), 0.0) for i in range(12)])
        assert runs[0] == runs[1]  # seeded -> reproducible
        router = Router(2, policy=PowerOfTwoChoices(seed=0), ids=IDS)
        router.mark_failed(0)
        assert all(_place(router, _req(i), 0.0) == 1 for i in range(4))

    def test_session_affinity_pins_and_repins(self):
        router = Router(3, policy=SessionAffinity(), ids=IDS)
        first = _place(router, _req(0, session=7), 0.0)
        # Later requests of the session follow the pin even when other
        # replicas are empty.
        assert _place(router, _req(1, session=7), 0.1) == first
        router.mark_failed(first)
        repinned = _place(router, _req(2, session=7), 0.2)
        assert repinned != first and repinned in router.alive_replicas()
        assert _place(router, _req(3, session=7), 0.3) == repinned

    def test_session_affinity_fallback_for_unaffiliated(self):
        router = Router(2, policy=SessionAffinity(), ids=IDS)
        targets = [_place(router, _req(i, session=None), 0.0)
                   for i in range(4)]
        assert targets == [0, 1, 0, 1]

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


_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64]


def _same_state(a, b):
    """Deep equality of two ``bit_generator.state`` values (MT19937's
    holds an array, which a plain ``==`` cannot compare)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class _ChoicePowerOfTwo(RoutingPolicy):
    """Reference power-of-two: the candidates from ``Generator.choice``."""

    name = "power_of_two_reference"

    def __init__(self, rng):
        self._rng = rng

    def choose(self, request, view):
        alive = list(view.alive_replicas())
        if len(alive) == 1:
            return alive[0]
        a, b = self._rng.choice(len(alive), size=2, replace=False)
        a, b = alive[int(a)], alive[int(b)]
        return min((a, b),
                   key=lambda i: (view.outstanding(i) / view.weight(i), i))


class TestPowerOfTwoReplay:
    """The replayed draw is NumPy's ``choice(n, 2, replace=False)`` bit
    for bit; a NumPy upgrade that changes ``choice`` must fail here."""

    # 3 * 2**30 rejects about a quarter of its 32-bit words.
    @pytest.mark.parametrize("n", [2, 3, 7, 32, 64, 1000, 10_001, 3 * 2**30])
    @pytest.mark.parametrize("bitgen", _BIT_GENERATORS,
                             ids=lambda c: c.__name__)
    def test_draw_matches_choice(self, bitgen, n):
        for seed in (0, 1, 2**40 + 7):
            ref = np.random.Generator(bitgen(seed))
            rng = np.random.Generator(bitgen(seed))
            policy = PowerOfTwoChoices(rng)
            for k in range(150):
                assert policy._two_of(n) == tuple(
                    ref.choice(n, 2, replace=False).tolist())
                # Other draws on the shared generator, between routes:
                # 32-bit (buffered), 64-bit and double paths.
                if k % 5 == 0:
                    assert rng.integers(0, 1000) == ref.integers(0, 1000)
                if k % 7 == 0:
                    assert rng.integers(0, 2**40) == ref.integers(0, 2**40)
                if k % 11 == 0:
                    assert rng.random() == ref.random()
            assert _same_state(rng.bit_generator.state,
                               ref.bit_generator.state)

    @pytest.mark.parametrize("bitgen", _BIT_GENERATORS,
                             ids=lambda c: c.__name__)
    def test_router_matches_choice_reference(self, bitgen):
        """Decisions and the final generator state equal the ``choice``
        reference while the routable set and weights keep changing."""
        rng = np.random.Generator(bitgen(5))
        ref_rng = np.random.Generator(bitgen(5))
        routers = [Router(6, PowerOfTwoChoices(rng), ids=IDS),
                   Router(6, _ChoicePowerOfTwo(ref_rng), ids=IDS)]
        script = np.random.default_rng(11)
        placed = []
        pool_sizes = set()
        dead: set[int] = set()
        for step in range(800):
            op = int(script.integers(0, 12))
            num = routers[0].num_replicas
            replica = int(script.integers(0, num))
            routable = routers[0].alive_replicas()
            if op < 6:
                req = _req(step, prompt=int(script.integers(1, 64)),
                           gen=int(script.integers(1, 64)))
                target, ref_target = (_place(router, req, float(step))
                                      for router in routers)
                assert target == ref_target
                placed.append((req, target))
            elif op == 6 and placed:
                req, target = placed.pop(int(script.integers(0, len(placed))))
                for router in routers:
                    router.release(target, req.prompt_len + req.gen_tokens)
            elif op == 7 and len(routable) > 1:
                dead.add(replica)
                for router in routers:
                    router.mark_failed(replica)
            elif op == 8 and len(routable) > 3:  # drains are permanent
                for router in routers:
                    router.mark_draining(replica)
            elif op == 9 and replica in dead:
                dead.discard(replica)
                for router in routers:
                    router.mark_recovered(replica)
            elif op == 10 and num < 12:
                for router in routers:
                    router.add_replica()
            elif op == 11:
                weight = float(script.choice([0.25, 0.5, 1.0, 2.0]))
                for router in routers:
                    router.set_weight(replica, weight)
            pool_sizes.add(len(routable))
        assert _placements(routers[0]) == _placements(routers[1])
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert pool_sizes >= {1, 2, 3, 4, 5, 6}  # one replica draws nothing

    def test_copies_draw_from_their_own_generator(self):
        policy = PowerOfTwoChoices(seed=9)
        twins = [copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))]
        expected = [policy._two_of(32) for _ in range(50)]
        for twin in twins:
            assert twin._rng is not policy._rng
            assert [twin._two_of(32) for _ in range(50)] == expected


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

    @pytest.mark.parametrize("replica", [float("nan"), 2.5])
    def test_replica_must_be_an_integer(self, replica):
        """A NaN or fractional index passed ``< 0`` and failed only when
        ``simulate_fleet`` indexed its replica list with it."""
        with pytest.raises(TypeError, match="replica must be an integer"):
            ReplicaFault(replica, 1.0)

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

    def test_outages_order(self):
        """One order for crashes and recoveries: by time, a recovery
        before a crash at the same instant, then by replica."""
        plan = FaultPlan((
            ReplicaFault(2, 3.0),
            ReplicaFault(1, 2.0, kind="slowdown", factor=4.0),
            ReplicaFault(0, 3.0, kind="recover"),
            ReplicaFault(1, 3.0),
            ReplicaFault(0, 1.0),
            ReplicaFault(3, 3.0, kind="recover"),
            ReplicaFault(3, 0.5),
            ReplicaFault(1, 4.0, kind="recover"),
        ))
        assert plan.outages() == [
            (0.5, 3, "crash"), (1.0, 0, "crash"), (3.0, 0, "recover"),
            (3.0, 3, "recover"), (3.0, 1, "crash"), (3.0, 2, "crash"),
            (4.0, 1, "recover"),
        ]
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
        plan.validate_against(2)

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
