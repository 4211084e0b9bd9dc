"""Routing policies: which replica serves the next request.

The single-server scheduler (Sec. IV-C1) decides *when* a request runs;
at fleet scale the prior question is *where*. Each policy is a small
stateful object consulted once per arrival (and once more per requeue
after a fault) with a read-only :class:`FleetView` of the replica pool.
Policies never see clocks or tensors — only assigned-minus-completed
work — so the analytical and functional fleet backends route
identically by construction.

Shipped policies mirror the standard load-balancing ladder:

* ``round_robin`` — cycle over live replicas, load-blind;
* ``least_outstanding`` — argmin of outstanding token work (join the
  shortest queue);
* ``power_of_two`` — sample two live replicas, keep the less loaded
  (Mitzenmacher's d=2 choices: most of least-loaded's benefit at O(1)
  state reads);
* ``session_affinity`` — pin each session to one replica (warm
  prefix/KV locality), falling back to another policy for unaffiliated
  requests and re-pinning when the pinned replica dies.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from ..engine.serving_sim import Request
from ..rng import SeedLike, as_generator

__all__ = [
    "FleetView",
    "RoutingPolicy",
    "RoundRobin",
    "LeastOutstanding",
    "PowerOfTwoChoices",
    "SessionAffinity",
    "ROUTING_POLICIES",
    "resolve_routing_policy",
]


class FleetView(Protocol):
    """What a policy may observe: pool size, liveness, routability
    (liveness minus draining), outstanding work and routing weight
    (autoscale reweighting, 1.0 = full share). The fleet's
    :class:`~repro.fleet.router.Router` is the one implementation."""

    @property
    def num_replicas(self) -> int: ...

    def is_routable(self, replica: int) -> bool: ...

    def alive_replicas(self) -> Sequence[int]: ...

    def outstanding(self, replica: int) -> float: ...

    def weight(self, replica: int) -> float: ...


class RoutingPolicy:
    """Base class: ``choose`` returns the replica index for one request.

    ``reads_request`` False declares a load-only policy: ``choose``
    never looks at its request, so the fleet passes ``None`` instead of
    building one. A subclass of a load-only policy whose ``choose``
    reads the request sets it back to True.
    """

    name = "base"
    reads_request = True

    def choose(self, request: Request | None, view: FleetView) -> int:
        raise NotImplementedError


class RoundRobin(RoutingPolicy):
    """Cycle over replicas in index order, skipping dead ones."""

    name = "round_robin"
    reads_request = False

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request: Request | None, view: FleetView) -> int:
        for _ in range(view.num_replicas):
            cand = self._next % view.num_replicas
            self._next = cand + 1
            if view.is_routable(cand):
                return cand
        raise RuntimeError("no live replica to route to")


class LeastOutstanding(RoutingPolicy):
    """Join the replica with the least *weighted* outstanding token work
    (outstanding divided by routing weight — a half-weighted replica
    looks twice as loaded; ties go to the lowest index, so routing is
    deterministic). An unweighted replica has weight 1.0 and
    ``x / 1.0 == x`` exactly, so reweighting changes nothing until it
    is used."""

    name = "least_outstanding"
    reads_request = False

    def choose(self, request: Request | None, view: FleetView) -> int:
        alive = view.alive_replicas()
        if not alive:
            raise RuntimeError("no live replica to route to")
        outstanding, weight = view.outstanding, view.weight
        best, best_load = alive[0], outstanding(alive[0]) / weight(alive[0])
        for i in alive[1:]:
            load = outstanding(i) / weight(i)
            if load < best_load:
                best, best_load = i, load
        return best


class PowerOfTwoChoices(RoutingPolicy):
    """Sample two distinct live replicas, keep the less loaded one.

    Seeded, so a fleet run is reproducible; with a single live replica
    it degenerates to that replica.

    The pair is exactly ``rng.choice(n, 2, replace=False)`` over the
    ``n`` live replicas, replayed (:meth:`_two_of`) on the bit
    generator's own C ``next_uint32``: for any ``BitGenerator`` it
    picks the same pair and leaves the same generator state, so a
    shared generator sees the same stream. Unlike ``choice`` it does
    not take the generator's lock: do not draw from that generator on
    another thread while this policy routes.
    """

    name = "power_of_two"
    reads_request = False

    def __init__(self, seed: SeedLike = 0) -> None:
        self._rng = as_generator(seed)
        bitgen = self._rng.bit_generator.ctypes
        self._next_uint32 = bitgen.next_uint32
        self._state = bitgen.state

    def __reduce__(self):
        # The ctypes handles point into this generator: rebuild them.
        return type(self), (self._rng,)

    def _bounded(self, hi: int) -> int:
        """NumPy's ``random_bounded_uint64(bitgen, 0, hi, 0, 0)`` for
        ``0 < hi < 2**32 - 1``: Lemire's multiply-shift with rejection."""
        excl = hi + 1
        m = self._next_uint32(self._state) * excl
        if (m & 0xFFFFFFFF) < excl:
            threshold = (0xFFFFFFFF - hi) % excl
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next_uint32(self._state) * excl
        return m >> 32

    def _two_of(self, n: int) -> tuple[int, int]:
        """``choice(n, 2, replace=False)``: Floyd's algorithm, then a
        two-element shuffle (a 0 on ``[0, 1]`` swaps the pair)."""
        a = self._bounded(n - 2) if n > 2 else 0  # [0, 0] draws nothing
        b = self._bounded(n - 1)
        if b == a:
            b = n - 1
        if self._bounded(1) == 0:
            a, b = b, a
        return a, b

    def choose(self, request: Request | None, view: FleetView) -> int:
        alive = view.alive_replicas()
        if not alive:
            raise RuntimeError("no live replica to route to")
        if len(alive) == 1:
            return alive[0]
        a, b = self._two_of(len(alive))
        a, b = alive[a], alive[b]
        # As min((a, b), key=...): b only on a strictly smaller key.
        if (view.outstanding(b) / view.weight(b), b) \
                < (view.outstanding(a) / view.weight(a), a):
            return b
        return a


class SessionAffinity(RoutingPolicy):
    """Pin each session to one replica; fall back for the rest.

    The first request of a session is placed by
    :class:`LeastOutstanding` and later ones follow it — the placement
    a prefix-cache or conversation-KV reuse scheme wants. A dead pinned
    replica triggers a re-pin through the fallback.
    """

    name = "session_affinity"

    def __init__(self) -> None:
        self._fallback = LeastOutstanding()
        self._pins: dict[int, int] = {}

    def choose(self, request: Request, view: FleetView) -> int:
        if request.session is None:
            return self._fallback.choose(request, view)
        pinned = self._pins.get(request.session)
        if pinned is not None and view.is_routable(pinned):
            return pinned
        target = self._fallback.choose(request, view)
        self._pins[request.session] = target
        return target


ROUTING_POLICIES: dict[str, Callable[[], RoutingPolicy]] = {
    "round_robin": RoundRobin,
    "least_outstanding": LeastOutstanding,
    "power_of_two": PowerOfTwoChoices,
    "session_affinity": SessionAffinity,
}


def resolve_routing_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    """Turn a policy name into a fresh instance (instances pass through).

    Policies are stateful (round-robin cursor, affinity pins, RNG), so
    every fleet run must get its own instance — names make that the
    default path.
    """
    if isinstance(policy, RoutingPolicy):
        return policy
    if policy not in ROUTING_POLICIES:
        raise ValueError(
            f"unknown routing policy {policy!r}; choose from "
            f"{sorted(ROUTING_POLICIES)} or pass a RoutingPolicy instance"
        )
    return ROUTING_POLICIES[policy]()
