"""Fault injection: replica crashes, recoveries and slowdowns at trace time.

A fleet earns its keep when replicas fail. :class:`FaultPlan` scripts
deterministic faults against simulated time so a test (or a tuning run)
can ask: does the router requeue in-flight work, do survivors absorb the
load, how far does the tail degrade?

Three fault kinds:

* ``crash`` — from time ``t`` the router stops sending work; the
  replica finishes the scheduling round it already started (work in
  flight on an accelerator cannot be half-undone), then every queued
  and in-flight request requeues to the survivors *from scratch* —
  tokens the dead replica generated are discarded, never stitched into
  another replica's output;
* ``recover`` — a previously crashed replica rejoins at time ``t``
  with a *fresh* scheduler (the machine rebooted: nothing of the old
  incarnation's state survives) and becomes routable again. Crash and
  recover events for one replica must alternate in time, starting with
  a crash;
* ``slowdown`` — from time ``t`` the replica's prompt and decode costs
  multiply by ``factor`` (a thermally throttled or noisy-neighbor
  node). Decisions are unaffected; pricing — and therefore load-aware
  routing — shifts. A slowdown survives crash/recover cycles (the
  throttled part is the node, not the process).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..model.config import _as_index

__all__ = ["ReplicaFault", "FaultPlan"]

_KINDS = ("crash", "recover", "slowdown")


@dataclass(frozen=True)
class ReplicaFault:
    """One scripted fault: ``replica`` fails/recovers/slows at trace
    time ``time``."""

    replica: int
    time: float
    kind: str = "crash"
    factor: float = 1.0  # slowdown multiplier; ignored for crash/recover

    def __post_init__(self) -> None:
        # ``< 0`` alone lets NaN and fractional indices through, which
        # fail only when the simulator indexes its replica list.
        if _as_index("replica", self.replica) < 0:
            raise ValueError("replica index must be >= 0")
        if self.time < 0 or not math.isfinite(self.time):
            raise ValueError("fault time must be finite and >= 0")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "slowdown" and not (
                math.isfinite(self.factor) and self.factor > 1.0):
            raise ValueError("a slowdown needs a finite factor > 1")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults applied to one fleet run.

    Crashes and recoveries are read in one order, :meth:`outages`: the
    survivor check in :meth:`validate_against` sweeps it and the fleet
    simulator walks it, so both see the same outage stream."""

    faults: tuple[ReplicaFault, ...] = ()

    def __post_init__(self) -> None:
        seen_slow: set[int] = set()
        by_replica: dict[int, list[ReplicaFault]] = {}
        for f in self.faults:
            if f.kind == "slowdown":
                if f.replica in seen_slow:
                    raise ValueError(
                        f"replica {f.replica} has more than one slowdown"
                    )
                seen_slow.add(f.replica)
            else:
                by_replica.setdefault(f.replica, []).append(f)
        # Crash/recover events per replica must alternate in time order,
        # starting with a crash (a machine can neither die twice in a
        # row nor rejoin without having died).
        for replica, events in by_replica.items():
            events.sort(key=lambda f: f.time)
            crashed_at: float | None = None
            for f in events:
                if f.kind == "crash":
                    if crashed_at is not None:
                        raise ValueError(
                            f"replica {replica} has more than one crash "
                            f"without an intervening recover"
                        )
                    crashed_at = f.time
                else:  # recover
                    if crashed_at is None:
                        raise ValueError(
                            f"replica {replica} recovers at t={f.time} "
                            f"without a preceding crash"
                        )
                    # The simulator applies a recovery before a crash at
                    # the same instant, so a zero-length outage would
                    # recover a replica that is still alive.
                    if f.time <= crashed_at:
                        raise ValueError(
                            f"replica {replica} recovers at t={f.time}, "
                            f"not after its crash at t={crashed_at}"
                        )
                    crashed_at = None

    def validate_against(self, num_replicas: int) -> None:
        """Reject faults naming replicas outside the pool, and plans
        that at some instant leave every replica crashed (no survivor
        could make progress). Recoveries count: a plan may crash every
        replica over its lifetime as long as the crashes are staggered
        so at least one replica is always up."""
        for f in self.faults:
            if f.replica >= num_replicas:
                raise ValueError(
                    f"fault targets replica {f.replica} but the fleet "
                    f"only has {num_replicas}"
                )
        if not num_replicas:
            return
        down = 0
        for time, _, kind in self.outages():
            down += 1 if kind == "crash" else -1
            if down >= num_replicas:
                raise ValueError(
                    f"a FaultPlan may not crash every replica: all "
                    f"{num_replicas} are down at t={time}"
                )

    def outages(self) -> list[tuple[float, int, str]]:
        """Every crash and recovery as ``(time, replica, kind)``: by
        time, a recovery before a crash at the same instant (the
        rejoining replica can absorb the victims of a simultaneous
        crash), then by replica."""
        return sorted(((f.time, f.replica, f.kind) for f in self.faults
                       if f.kind != "slowdown"),
                      key=lambda o: (o[0], o[2] == "crash", o[1]))

    def slowdowns(self) -> dict[int, tuple[float, float]]:
        """``replica -> (from_time, factor)`` for the slowed replicas."""
        return {f.replica: (f.time, f.factor)
                for f in self.faults if f.kind == "slowdown"}
