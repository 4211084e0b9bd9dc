"""Fleet serving simulation: N replicas, one router.

Scale-out beyond one server multiplies the paper's single-instance
runtime (Secs. IV-V) behind a :class:`~repro.fleet.router.Router`. Each
replica is the engine's one serving loop,
:class:`~repro.engine.replica._Replica` — the same stepper
:func:`~repro.engine.serving_sim.simulate_serving` runs alone — whose
atomic actions (admit one request with its prompt pass, decode a
stretch) let a global event loop interleave many replicas, arrivals,
and scripted faults in start-time order.

The loop keeps every replica's next action time in a list and a lazily
invalidated heap, and re-reads a replica's time only after that replica
acts or takes a delivery. Each pass reads the next arrival, fault, join
and control epoch once, then runs every replica action due strictly
before them back to back: no action can move those events.

:func:`simulate_fleet` is the analytical backend: every replica prices
the shared :class:`~repro.engine.scheduler.Scheduler`'s decisions with
the step-cost model (a one-replica fleet reproduces
:func:`~repro.engine.serving_sim.simulate_serving` bit-for-bit),
producing a :class:`~repro.fleet.report.FleetReport`. Its control plane
also drives the functional backend,
:func:`~repro.fleet.functional.run_fleet_functional`.

Crash semantics: from the fault time the router stops routing to the
replica; it completes the scheduling round already in flight (work on an
accelerator cannot be half-undone), then dies at that step boundary and
all queued/in-flight requests requeue to the survivors with their
partial output discarded.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Mapping, Sequence
from functools import partial

import numpy as np

from ..autoscale.actions import AutoscaleEvent
from ..autoscale.controller import Autoscaler, AutoscaleConfig, resolve_autoscaler
from ..autoscale.signals import FleetSignals, ReplicaSnapshot
from ..engine.costs import StepCostModel
from ..engine.replica import _KvTracker, _Outcomes, _Replica
from ..engine.serving_sim import (WorkloadTrace, _draw_replica, _full_detail,
                                  _RenderedTimeline, _report_times)
from ..model.config import _as_index
from ..simcore.trace import Timeline
from .faults import FaultPlan
from .policies import RoutingPolicy
from .report import FleetReport, ReplicaStats
from .router import Router, RoutingDecision

__all__ = ["simulate_fleet"]

_INF = math.inf


def _replica_stats(rep: _Replica) -> ReplicaStats:
    return ReplicaStats(
        replica=rep.index,
        alive=rep.alive,
        num_requests=rep.completed,
        tokens=rep.completed_tokens,
        tokens_discarded=rep.tokens - rep.completed_tokens,
        busy_time=rep.busy_time(),
        join_time=rep.join_time,
        retire_time=rep.retire_time,
        draining=rep.draining,
    )


def _draw_fleet(tl: Timeline, replicas, costs: StepCostModel, full: bool,
                first: Mapping[int, float], finish: Mapping[int, float],
                routing: Sequence[RoutingDecision],
                autoscale_log: tuple[AutoscaleEvent, ...]) -> None:
    """Draw every replica's lanes under ``replica{i}/``, then the router
    and autoscaler decisions as instants on their own lanes.
    ``replicas`` holds ``(log, (slow_from, slow_factor))`` per replica."""
    served = {d.request_id: d.replica for d in routing}
    for i, (log, slow) in enumerate(replicas):
        _draw_replica(tl, log, costs, full, first, finish, index=i,
                      slow=slow, served=served)
    for d in routing:
        tl.record_instant(
            "router", d.time, f"r{d.request_id}->replica{d.replica}"
            + (" (retry)" if d.retry else ""))
    for ev in autoscale_log:
        tl.record_instant(
            "autoscale", ev.time_s,
            ev.kind + (f" replica{ev.replica}"
                       if ev.replica is not None else "")
            + (f" ({ev.detail})" if ev.detail else ""))


def simulate_fleet(
    trace: WorkloadTrace,
    *,
    num_replicas: int,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    routing: str | RoutingPolicy = "round_robin",
    fault_plan: FaultPlan | None = None,
    autoscaler: Autoscaler | AutoscaleConfig | None = None,
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
    detail: str = "full",
    _max_run_steps: int | None = None,
) -> FleetReport:
    """Serve ``trace`` on ``num_replicas`` priced replicas behind a router.

    ``costs`` (any :class:`~repro.engine.costs.StepCostModel`) plus
    ``max_batch``/``policy`` configure every replica exactly as
    :func:`~repro.engine.serving_sim.simulate_serving` would one server;
    ``routing`` names a :data:`~repro.fleet.policies.ROUTING_POLICIES`
    entry or is a policy instance; ``fault_plan`` scripts
    crashes/recoveries/slowdowns. Requests on a crashed replica requeue
    to the survivors and restart from scratch; the run fails only if
    every replica is simultaneously dead (which
    :meth:`FaultPlan.validate_against` rejects up front).

    Each replica carries its own analytical KV-block ledger
    (:class:`~repro.engine.replica._KvTracker`,
    ``kv_block_size``/``kv_num_layers``-sized): with
    ``prefix_sharing`` on, a session-tagged retiree's cache parks on its
    replica and the session's next turn — if routed back there — forks
    it, pricing only the unshared prompt suffix. A crash wipes the
    replica's parked prefixes along with its in-flight caches. The
    report sums hit/allocation counters over every replica and sums
    per-replica peaks (each replica's pool is separate hardware).

    ``autoscaler`` — an :class:`~repro.autoscale.controller
    .AutoscaleConfig` or pre-built :class:`~repro.autoscale.controller
    .Autoscaler` — closes the loop: every ``epoch_s`` of simulated time
    the controller reads replica snapshots and fresh TTFT samples and
    its admitted actions apply as first-class events (scale-out replicas
    join after a cold start priced by the cost model's own prompt pass;
    scale-in and drain-and-replace drain a replica which retires when
    dry; reweights bias load-aware routing). ``None`` (default) runs the
    historical static fleet on the exact same code path.

    Replicas decode in event-compressed stretches (see
    :mod:`repro.engine.replica`). Faults, control epochs and replica
    joins split every replica's stretch; an arrival splits only the
    stretch of the replica it is routed to, and a replica's slowdown
    onset and retirements split its own. Each split falls exactly where
    per-step stepping would act, so reports are bit-for-bit independent
    of the compression.
    Arrivals are read from the trace's arrival column and per-request
    times written into arrays by trace position, which the report's
    ``finish_times``, ``first_token_times`` and ``queue_delays`` view
    read-only, in trace order. A routing policy whose ``reads_request``
    is true gets each request built on read; the load-only shipped
    policies get ``None``.
    ``detail`` picks the report's drawn timeline as for a single server
    (lanes prefixed ``replica{i}/``, plus ``router`` and ``autoscale``
    instants); the run is the same either way. ``_max_run_steps`` caps every
    stretch (``1`` forces the per-step reference behavior; equivalence
    tests use it as the oracle).
    """
    num_replicas = _as_index("num_replicas", num_replicas)
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    max_batch = _as_index("max_batch", max_batch)
    if not 1 <= max_batch:
        raise ValueError("max_batch must be >= 1")
    if _max_run_steps is not None:
        _max_run_steps = _as_index("_max_run_steps", _max_run_steps)
        if _max_run_steps < 1:
            raise ValueError("_max_run_steps must be >= 1 when given")
    full = _full_detail(detail)
    plan = fault_plan or FaultPlan()
    plan.validate_against(num_replicas)
    scaler = resolve_autoscaler(autoscaler)
    ttft_sink: list[tuple[float, float]] | None = None
    if scaler is not None:
        scaler.bind(costs=costs, initial_replicas=num_replicas)
        ttft_sink = []

    requests = trace.requests
    prompt, gen = requests.prompt, requests.gen
    router = Router(num_replicas, policy=routing, ids=requests.ids)
    reads_request = router.policy.reads_request

    def on_complete(replica_index: int, pos: int, t: float) -> None:
        router.release(replica_index, prompt[pos] + gen[pos])

    out = _Outcomes(len(requests))
    rep_opts = dict(requests=requests, out=out, max_batch=max_batch,
                    policy=policy, costs=costs, on_complete=on_complete)
    kv_opts = dict(block_size=kv_block_size, num_layers=kv_num_layers,
                   prefix_sharing=prefix_sharing)
    replicas = [
        _Replica(i, kv=_KvTracker(**kv_opts), ttft_sink=ttft_sink,
                 **rep_opts)
        for i in range(num_replicas)
    ]
    for i, (t, factor) in plan.slowdowns().items():
        replicas[i].slow_from = t
        replicas[i].slow_factor = factor
    # The plan's one outage order, which its validation swept too.
    fault_events = plan.outages()
    fault_cursor = 0

    autoscale_log: list[AutoscaleEvent] = []
    telemetry: list[FleetSignals] = []
    # Pending scale-out boots: cold-start completion times, FIFO.
    joins: deque[float] = deque()
    epoch_s = scaler.config.epoch_s if scaler is not None else _INF
    next_epoch_s = epoch_s

    def snapshot(rep: _Replica) -> ReplicaSnapshot:
        return ReplicaSnapshot(
            index=rep.index,
            alive=rep.alive,
            draining=rep.draining,
            retired=rep.retired,
            queue_depth=rep.sched.num_waiting + len(rep.inbox),
            active_depth=rep.sched.num_active,
            outstanding_tokens=int(router.outstanding(rep.index)),
            done_tokens=rep.tokens,
            up_since_s=(rep.seg_open if rep.seg_open is not None
                        else rep.join_time),
        )

    def start_drain(index: int, t: float) -> None:
        rep = replicas[index]
        rep.draining = True
        router.mark_draining(index)
        rep.maybe_retire(t)

    # Arrival stream: the trace's arrival column, read by a cursor, and
    # a heap of post-crash requeues (time, seq, position). At equal
    # times the trace goes first, then requeues in crash order.
    arrivals, num_requests, cursor = requests.arrival, len(requests), 0
    heap: list[tuple[float, int, int]] = []
    seq = 0

    # Replica action keys: ``due[i]`` is replica i's next_action_time(),
    # cached, and a heap entry (t, i) is live while t == due[i]; stale
    # entries are dropped when they reach the top. Only a delivery or an
    # action can move a replica's time, so only those re-read it and
    # push a fresh entry (a replica holding a decode stretch is due at
    # its last step's start, and a delivery cuts that back to the
    # arrival). A crash sets it to inf; a drained replica retires only
    # once idle, when its key is inf already, and a recovered or joining
    # replica is idle until its first delivery. (t, index) order picks
    # the lowest index among equal times, as a full scan would.
    acts: list[tuple[float, int]] = []
    due = [_INF] * num_replicas

    def push_action(i: int) -> None:
        t = due[i] = replicas[i].next_action_time()
        if t < _INF:
            heapq.heappush(acts, (t, i))

    while True:
        t_arr = arrivals[cursor] if cursor < num_requests else _INF
        retry = False
        if heap and heap[0][0] < t_arr:
            t_arr, retry = heap[0][0], True
        while acts and acts[0][0] != due[acts[0][1]]:
            heapq.heappop(acts)
        t_act = acts[0][0] if acts else _INF
        t_fault = (fault_events[fault_cursor][0]
                   if fault_cursor < len(fault_events) else _INF)
        t_join = joins[0] if joins else _INF
        # Control epochs tick only while the run has work left — once
        # every arrival is delivered and every replica is idle there is
        # nothing to control and the loop must terminate.
        t_epoch = (next_epoch_s
                   if scaler is not None and (t_arr < _INF or t_act < _INF)
                   else _INF)
        # Faults, joins and epochs cut every replica's decode stretch;
        # an arrival cuts only the replica it is routed to (deliver).
        t_cut = min(t_fault, t_join, t_epoch)
        t_split = min(t_arr, t_cut)
        # Every action due strictly before the next arrival, fault, join
        # or epoch runs here, back to back: no action can move those, so
        # they are read once per batch. At equal times the event goes
        # first. The batch may leave every replica idle, which stops the
        # epochs, so the events are read afresh after it.
        if t_act < t_split:
            while True:
                i = acts[0][1]
                rep = replicas[i]
                rep.perform_action(t_limit=t_cut, t_arrival=t_arr,
                                   max_steps=_max_run_steps)
                if rep.draining:
                    rep.maybe_retire(rep.now)
                t = due[i] = rep.next_action_time()
                if t < _INF:
                    heapq.heapreplace(acts, (t, i))
                else:
                    heapq.heappop(acts)
                while acts and acts[0][0] != due[acts[0][1]]:
                    heapq.heappop(acts)
                if not acts or acts[0][0] >= t_split:
                    break
            continue
        if t_split == _INF:
            break
        if t_fault <= t_split:
            t, target_i, kind = fault_events[fault_cursor]
            fault_cursor += 1
            target = replicas[target_i]
            if target.retired:
                # Scaled in before its crash: the machine has left the
                # fleet, so neither the crash nor a recovery applies (a
                # recovery would make the router route to it again).
                continue
            if kind == "recover":
                target.recover(t)
                router.mark_recovered(target_i)
                # Drained before the crash: scale-in or a replacement
                # already took its slot, so the empty reboot retires.
                target.maybe_retire(t)
                if scaler is not None:
                    autoscale_log.append(AutoscaleEvent(
                        t, "recover", target_i, "fault plan recovery"))
                continue
            victims = target.crash(t)
            due[target_i] = _INF
            router.mark_failed(target_i)
            for t_req, pos in victims:
                heapq.heappush(heap, (t_req, seq, pos))
                seq += 1
            continue
        if t_join <= t_split:
            t = joins.popleft()
            new_index = router.add_replica()
            rep = _Replica(new_index, kv=_KvTracker(**kv_opts),
                           join_time=t, ttft_sink=ttft_sink, **rep_opts)
            replicas.append(rep)
            due.append(_INF)
            autoscale_log.append(AutoscaleEvent(
                t, "join", new_index, "cold start complete"))
            continue
        if t_epoch <= t_arr:
            t = next_epoch_s
            next_epoch_s += epoch_s
            samples = list(ttft_sink)
            ttft_sink.clear()
            signals, actions = scaler.epoch(
                t, [snapshot(rep) for rep in replicas],
                pending_joins=len(joins), max_batch=max_batch,
                ttft_samples=samples)
            telemetry.append(signals)
            for action in actions:
                if action.kind == "scale_out":
                    joins.append(t + scaler.cold_start_s)
                elif action.kind == "replace":
                    # A dead target drains too, so if it recovers beside
                    # its replacement the empty reboot retires at once.
                    start_drain(action.replica, t)
                    joins.append(t + scaler.cold_start_s)
                elif action.kind == "scale_in":
                    start_drain(action.replica, t)
                elif action.kind == "reweight":
                    router.set_weight(action.replica, action.weight)
                autoscale_log.append(AutoscaleEvent(
                    t, action.kind, action.replica, action.reason))
            continue
        if retry:
            pos = heapq.heappop(heap)[2]
        else:
            pos, cursor = cursor, cursor + 1
        # Only a policy that reads requests gets one, built on read.
        target_i = router.place(
            pos, prompt[pos] + gen[pos], t_arr, retry=retry,
            request=requests[pos] if reads_request else None)
        replicas[target_i].deliver(pos, t_arr)
        push_action(target_i)

    # -- assemble the report --------------------------------------------
    # Placement lives in the router's log; the per-request arrays hold
    # each request's last admission, which for a finished request is on
    # the replica that served it. Unfinished requests report nothing.
    unfinished = np.isnan(np.frombuffer(out.finish))
    np.frombuffer(out.first)[unfinished] = np.nan
    np.frombuffer(out.delay)[unfinished] = np.nan
    times = _report_times(requests, out)
    finish, first = times["finish_times"], times["first_token_times"]
    total_tokens = sum(rep.completed_tokens for rep in replicas)
    replica_stats = tuple(_replica_stats(rep) for rep in replicas)
    routing = router.log
    autoscale_log = tuple(autoscale_log)
    timeline = _RenderedTimeline(partial(
        _draw_fleet,
        replicas=[(rep.log, (rep.slow_from, rep.slow_factor))
                  for rep in replicas],
        costs=costs, full=full, first=first, finish=finish,
        routing=routing, autoscale_log=autoscale_log))

    makespan = max(finish.values(), default=0.0)
    return FleetReport(
        makespan=makespan,
        **times,
        total_tokens=total_tokens,
        tokens_discarded=sum(s.tokens_discarded for s in replica_stats),
        replica_stats=replica_stats,
        routing=routing,
        prefix_hits=sum(rep.kv.hits for rep in replicas),
        prefix_hit_tokens=sum(rep.kv.hit_tokens for rep in replicas),
        kv_blocks_allocated=sum(rep.kv.allocated for rep in replicas),
        kv_blocks_saved=sum(rep.kv.saved_blocks for rep in replicas),
        peak_kv_blocks=sum(rep.kv.peak_blocks for rep in replicas),
        crash_steps={rep.index: rep.crash_step for rep in replicas
                     if rep.crash_step is not None},
        schedulers=tuple(rep.sched for rep in replicas),
        timeline=timeline,
        autoscale_log=autoscale_log,
        telemetry=tuple(telemetry),
        replica_lifetimes={rep.index: rep.lifetime(makespan)
                           for rep in replicas},
        past_schedulers={rep.index: tuple(rep.past)
                         for rep in replicas if rep.past},
    )
