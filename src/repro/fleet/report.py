"""Fleet-level reporting: per-replica and fleet-wide serving numbers.

The single-server :class:`~repro.engine.serving_sim.ServingReport`
answers "can this deployment hold the SLA"; the fleet report answers
the capacity-planning questions above it: how is load spread, what did
a fault cost, where did the tail go. It aggregates one lane per replica
plus the router's decision log, and draws every replica's action log
into one multi-lane chrome-trace export when its timeline is read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from ..autoscale.actions import AutoscaleEvent
from ..autoscale.signals import FleetSignals
from ..engine.report_stats import ReportStats
from ..engine.scheduler import Scheduler
from ..simcore.trace import Timeline
from .router import RoutingDecision

__all__ = ["ReplicaStats", "FleetReport"]


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's share of the run.

    ``join_time``/``retire_time`` bound the replica's life inside the
    run: the initial pool joins at 0.0 and a replica that served to the
    end has ``retire_time=None``; autoscaled replicas may join late
    (after their cold start) or retire early (drained by a scale-in or
    a drain-and-replace, flagged by ``draining``).
    """

    replica: int
    alive: bool
    num_requests: int       # requests it completed
    tokens: int             # tokens of those completed requests
    tokens_discarded: int   # generated, then thrown away by a crash
    busy_time: float        # server-lane busy time (prefill + decode)
    join_time: float = 0.0
    retire_time: float | None = None
    draining: bool = False


@dataclass(frozen=True)
class FleetReport(ReportStats):
    """Outcome of serving one trace on a replica fleet.

    Per-request views (``latency``, ``ttft``) and fleet-wide percentiles
    / throughput come from :class:`~repro.engine.report_stats
    .ReportStats`, shared with the single-server report: latency runs
    from each request's *original* arrival (retries included), TTFT to
    the first token that survived into the final output — a retried
    request's clock keeps running through the crash — and
    ``tokens_per_second`` counts only kept (non-discarded) tokens.

    ``finish_times``, ``first_token_times`` and ``queue_delays`` hold
    the completed requests only. :func:`~repro.fleet.sim.simulate_fleet`
    fills them with read-only ``Mapping`` views over per-position
    arrays, iterating in trace order; they compare equal to plain dicts
    of the same items. ``routing``, every placement in order, is the
    router's placement log, equal to a tuple of the same decisions;
    ``replica_of`` and ``retried`` are drawn from it on first read.
    """

    makespan: float
    finish_times: Mapping[int, float]       # request -> completion time
    first_token_times: Mapping[int, float]  # on the *serving* replica
    queue_delays: Mapping[int, float]       # original arrival -> final admit
    total_tokens: int                     # tokens of completed requests
    tokens_discarded: int                 # crash-wasted tokens
    replica_stats: tuple[ReplicaStats, ...]
    routing: Sequence[RoutingDecision]
    # KV accounting summed over every replica (past incarnations
    # included); ``peak_kv_blocks`` sums per-replica peaks — each
    # replica's pool is its own hardware, so the sum is the fleet's
    # provisioning requirement. ``kv_dedup_ratio`` (from ReportStats)
    # derives from allocated/saved.
    prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    kv_blocks_allocated: int = 0
    kv_blocks_saved: int = 0
    peak_kv_blocks: int = 0
    crash_steps: dict[int, int] = field(default_factory=dict, compare=False)
    schedulers: tuple[Scheduler, ...] = field(default=(), compare=False)
    timeline: Timeline | None = field(default=None, compare=False)
    autoscale_log: tuple[AutoscaleEvent, ...] = ()
    telemetry: tuple[FleetSignals, ...] = field(default=(), compare=False)
    replica_lifetimes: dict[int, tuple[tuple[float, float], ...]] = field(
        default_factory=dict)
    past_schedulers: dict[int, tuple[tuple[Scheduler, int | None], ...]] = \
        field(default_factory=dict, compare=False)

    # -- fleet aggregates -------------------------------------------------

    @cached_property
    def replica_of(self) -> dict[int, int]:
        """Final serving replica per request: its last placement's."""
        return {d.request_id: d.replica for d in self.routing}

    @cached_property
    def retried(self) -> frozenset[int]:
        """Requests placed again after a fault."""
        return frozenset(d.request_id for d in self.routing if d.retry)

    @property
    def num_completed(self) -> int:
        """Requests that finished somewhere in the fleet."""
        return len(self.finish_times)

    @property
    def request_counts(self) -> tuple[int, ...]:
        """Completed-request count per replica (the load-shift signal)."""
        return tuple(s.num_requests for s in self.replica_stats)

    @property
    def num_replicas(self) -> int:
        """Size of the replica pool (every replica that ever existed,
        including autoscaled joins and retirements)."""
        return len(self.replica_stats)

    @property
    def replica_seconds(self) -> float:
        """GPU cost of the run: total replica-up time summed over every
        lifetime segment (a replica down between crash and recover, or
        after retirement, accrues nothing)."""
        total = 0  # a left fold: ``sum`` compensates floats from 3.12
        for segments in self.replica_lifetimes.values():
            for start, end in segments:
                total += end - start
        return total

    @property
    def avg_replicas(self) -> float:
        """Time-averaged replica count over the run — the number a
        fixed-size fleet must match for an equal-GPU-cost comparison.
        Falls back to the pool size when lifetimes were not recorded."""
        if not self.replica_lifetimes or self.makespan <= 0:
            return float(self.num_replicas)
        return self.replica_seconds / self.makespan

