"""The fleet router: placement authority over a pool of replicas.

What the :class:`~repro.engine.scheduler.Scheduler` is to one server —
the single owner of lifecycle decisions, consumed identically by the
functional and analytical backends — the :class:`Router` is to the
fleet: the single owner of *placement*. It tracks per-replica liveness
and outstanding token work (assigned minus completed), delegates each
choice to a pluggable :class:`~repro.fleet.policies.RoutingPolicy`, and
logs every decision (including post-crash retries) for the report.

The router deliberately measures load in **tokens**, not priced
seconds: token work is observable in both the analytical and the
functional backend, so a shared trace routes identically in both —
the fleet-level analogue of the PR-1 decision-equivalence guarantee.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from ..engine.serving_sim import Request
from .policies import RoutingPolicy, resolve_routing_policy

__all__ = ["RoutingDecision", "Router"]


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """One placement: ``request_id`` went to ``replica`` at ``time``."""

    time: float
    request_id: int
    replica: int
    retry: bool = False


class _RoutingLog(Sequence):
    """One entry per :meth:`Router.place`, as columns: time, trace
    position, replica and retry. Each reads as a :class:`RoutingDecision`
    naming request ``ids[position]``; equal to any such sequence."""

    def __init__(self, ids: Sequence[int]) -> None:
        self.ids = ids
        self.time, self.pos = array("d"), array("q")
        self.replica, self.retry = array("i"), bytearray()

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, i: int) -> RoutingDecision:
        return RoutingDecision(self.time[i], self.ids[self.pos[i]],
                               self.replica[i], bool(self.retry[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class Router:
    """Policy-driven placement with liveness and load accounting.

    The pool is mutable: the autoscaler adds replicas
    (:meth:`add_replica`), drains them out of rotation
    (:meth:`mark_draining`), returns recovered ones
    (:meth:`mark_recovered`), and biases load-aware policies with
    per-replica weights (:meth:`set_weight`). A router that never sees
    those calls behaves exactly as the static pool always has.

    It is the one :class:`~repro.fleet.policies.FleetView` the policies
    see. Work enters through :meth:`place` and leaves through
    :meth:`release`, both counted in tokens; ``log`` keeps every
    placement by trace position (``ids[position]`` is its request id).
    """

    def __init__(self, num_replicas: int,
                 policy: str | RoutingPolicy = "round_robin", *,
                 ids: Sequence[int]) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.policy = resolve_routing_policy(policy)
        self._alive = [True] * num_replicas
        self._draining = [False] * num_replicas
        self._weights = [1.0] * num_replicas
        self._outstanding = [0.0] * num_replicas
        # alive_replicas(), rebuilt on every pool change.
        self._routable = list(range(num_replicas))
        self.log = _RoutingLog(ids)

    # -- FleetView (what policies may observe) ---------------------------

    @property
    def num_replicas(self) -> int:
        """Size of the replica pool (dead and draining ones included)."""
        return len(self._alive)

    def is_routable(self, replica: int) -> bool:
        """Whether new work may be placed on ``replica`` (alive and not
        draining)."""
        return self._alive[replica] and not self._draining[replica]

    def alive_replicas(self) -> list[int]:
        """Indices of routable replicas, ascending (a draining replica
        is alive but no longer a placement candidate)."""
        return list(self._routable)

    def outstanding(self, replica: int) -> float:
        """Token work assigned to ``replica`` and not yet completed."""
        return self._outstanding[replica]

    def weight(self, replica: int) -> float:
        """Routing weight of one replica (1.0 = full share)."""
        return self._weights[replica]

    # -- placement -------------------------------------------------------

    def place(self, pos: int, tokens: int, time: float, *,
              retry: bool = False, request: Request | None = None) -> int:
        """Place the request at trace position ``pos`` carrying
        ``tokens`` of work (prompt plus generation) at ``time``, logging
        it; the policy sees ``request``, which may be ``None`` for a
        load-only policy (see :class:`~repro.fleet.policies
        .RoutingPolicy`). Returns the chosen replica index."""
        if not self._routable:
            raise RuntimeError(
                "every replica has failed; the fleet cannot serve the "
                f"request at trace position {pos}"
            )
        replica = self.policy.choose(request, self)
        if not (0 <= replica < len(self._alive) and self._alive[replica]
                and not self._draining[replica]):
            raise RuntimeError(
                f"policy {self.policy.name!r} chose unusable replica "
                f"{replica}"
            )
        self._outstanding[replica] += tokens
        log = self.log
        log.time.append(time)
        log.pos.append(pos)
        log.replica.append(replica)
        log.retry.append(retry)
        return replica

    def release(self, replica: int, tokens: int) -> None:
        """Release ``tokens`` of finished work from ``replica``."""
        left = self._outstanding[replica] - tokens
        self._outstanding[replica] = left if left > 0.0 else 0.0

    def mark_failed(self, replica: int) -> None:
        """Take ``replica`` out of rotation; its load register clears
        (the sim re-routes the victims, which re-adds their work)."""
        self._alive[replica] = False
        self._outstanding[replica] = 0.0
        self._pool_changed()

    # -- autoscale mutations ----------------------------------------------

    def add_replica(self) -> int:
        """Grow the pool by one routable replica; returns its index."""
        self._alive.append(True)
        self._draining.append(False)
        self._weights.append(1.0)
        self._outstanding.append(0.0)
        self._pool_changed()
        return len(self._alive) - 1

    def mark_draining(self, replica: int) -> None:
        """Stop placing new work on ``replica``; already-assigned work
        keeps running to completion (the graceful half of scale-in and
        drain-and-replace)."""
        self._draining[replica] = True
        self._pool_changed()

    def mark_recovered(self, replica: int) -> None:
        """Return a crashed replica to rotation with a clean load
        register and full weight. A replica drained before its crash
        stays drained: scale-in or a replacement already took its slot."""
        self._alive[replica] = True
        self._weights[replica] = 1.0
        self._outstanding[replica] = 0.0
        self._pool_changed()

    def set_weight(self, replica: int, weight: float) -> None:
        """Bias load-aware policies for/against ``replica`` (e.g. 0.5
        halves its share while a slowdown is remediated)."""
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError("weight must be finite and > 0")
        self._weights[replica] = weight

    def _pool_changed(self) -> None:
        self._routable = [i for i in range(len(self._alive))
                          if self.is_routable(i)]
