"""Serving-level simulation: request arrivals, queueing, percentiles.

The paper's latency/throughput numbers are per-batch; production systems
(Sec. I's "online scenarios") face *arrival processes*: requests queue,
join the running batch, and leave on completion. This module synthesizes
request traces and replays them through a continuous-batching server
whose per-iteration costs come from any :class:`~repro.engine.costs
.StepCostModel` — dense, MoE, or ZeRO-offloaded — reporting
time-to-first-token and end-to-end latency percentiles plus sustained
throughput — the numbers an operator actually quotes against an SLA.

Admission and retirement decisions are **not** made here: the replay
runs one :class:`~repro.engine.replica._Replica` — the serving loop the
fleet simulator also runs, once per replica — which drives the same
:class:`~repro.engine.scheduler.Scheduler` that the functional
:class:`~repro.engine.generation.GenerationSession` uses and merely
*prices* its decisions with the cost model, so the analytical and
functional serving paths cannot diverge. The scheduler (with its event
log) and a priced :class:`~repro.simcore.trace.Timeline`, drawn from
the replica's action log when first read, come back on the report for
chrome-trace export.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..rng import SeedLike, as_generator
from ..simcore.trace import Timeline
from .costs import BatchState, StepCostModel
from .replica import (_ADMIT_DONE, _CRASH, _DECODE, _RECOVER, _KvTracker,
                      _Replica)
from .report_stats import ReportStats
from .scheduler import Scheduler

__all__ = [
    "Request",
    "WorkloadTrace",
    "synthesize_trace",
    "ServingReport",
    "simulate_serving",
]


@dataclass(frozen=True)
class Request:
    """One request of a trace.

    ``session`` optionally tags the request with a conversation/user id;
    the fleet layer's affinity routing keeps one session's requests on
    one replica (warm prefix/KV locality). ``None`` means unaffiliated.

    The scenario zoo's fields all default to "plain request", so traces
    built before they existed are bit-for-bit unchanged:

    * ``tenant`` — the customer/workload class the request bills to;
      tenant-aware admission policies and per-tenant report views key on
      it (``None`` = untagged).
    * ``turn_index`` — position within its session's conversation
      (0 = opening turn).
    * ``shared_prefix_len`` — leading prompt tokens shared with the
      session's previous turn. The serving layers treat it as an upper
      bound: the realized reuse is capped by what the previous turn's
      cache actually holds, and is zero when prefix sharing is off or
      nothing is parked for the session.
    """

    request_id: int
    arrival: float
    prompt_len: int
    gen_tokens: int
    session: int | None = None
    tenant: str | None = None
    turn_index: int = 0
    shared_prefix_len: int = 0

    def __post_init__(self) -> None:
        # A NaN arrival slips past ``< 0`` and never compares <= the
        # simulated clock, so it would stall the replay forever.
        if not math.isfinite(self.arrival):
            raise ValueError(
                f"arrival must be a finite time, got {self.arrival!r}")
        if self.arrival < 0 or self.prompt_len < 1 or self.gen_tokens < 1:
            raise ValueError("invalid request parameters")
        if self.turn_index < 0:
            raise ValueError("turn_index must be >= 0")
        if not 0 <= self.shared_prefix_len < self.prompt_len:
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt_len")
        if self.shared_prefix_len and self.session is None:
            raise ValueError(
                "shared_prefix_len needs a session to share with")

    @property
    def work_tokens(self) -> int:
        """Total token work the request represents (prompt + generation);
        the unit the fleet router balances across replicas."""
        return self.prompt_len + self.gen_tokens


@dataclass(frozen=True)
class WorkloadTrace:
    """A reproducible request trace.

    ``expert_skew`` annotates MoE traces with the Zipf-s gate skew the
    workload was synthesized under (``None`` = unknown/uniform); the
    tuners read it to decide whether skew-aware expert placement is
    worth sweeping.
    """

    requests: tuple[Request, ...]
    expert_skew: float | None = None

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a trace needs at least one request")
        if self.expert_skew is not None and not (
                math.isfinite(self.expert_skew) and self.expert_skew >= 0):
            raise ValueError("expert_skew must be finite and >= 0 when given")
        arrivals = [r.arrival for r in self.requests]
        if arrivals != sorted(arrivals):
            raise ValueError("requests must be sorted by arrival time")
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ValueError("request ids must be unique within a trace "
                             "(duplicates would corrupt scheduler state)")

    @property
    def duration(self) -> float:
        """Span of the arrival process."""
        return self.requests[-1].arrival - self.requests[0].arrival

    @property
    def total_gen_tokens(self) -> int:
        """Tokens the trace asks for."""
        return sum(r.gen_tokens for r in self.requests)


def synthesize_trace(
    *,
    num_requests: int,
    arrival_rate: float,
    mean_prompt: int = 128,
    mean_gen: int = 32,
    num_sessions: int | None = None,
    expert_skew: float | None = None,
    arrival_shape: str = "poisson",
    diurnal_amplitude: float = 0.8,
    diurnal_period: float | None = None,
    burst_factor: float = 8.0,
    num_bursts: int = 2,
    seed: SeedLike = 0,
) -> WorkloadTrace:
    """Synthesize a request trace with Poisson-ish lengths and a chosen
    arrival process.

    This is now a thin compat wrapper over :mod:`repro.scenarios`: the
    arrival machinery lives in
    :func:`repro.scenarios.arrivals.draw_arrivals` (``arrival_shape`` /
    ``diurnal_*`` / ``burst_*`` knobs pass through unchanged — see its
    docstring for the shapes), and richer workloads (multi-turn chat,
    agentic loops, heavy tails, tenant mixes) come from the scenario
    generators. Historical arguments keep producing bit-for-bit
    identical traces.

    ``num_sessions`` tags requests with session ids for the fleet
    layer's affinity routing: each request's session id is drawn i.i.d.
    uniform from ``range(num_sessions)``. A "session" is then just a
    routing tag: its requests have independent arrivals, interleave
    arbitrarily, and carry no turn ordering or shared prefix. For
    causally chained turns with prefix reuse use
    :func:`repro.scenarios.chat_scenario`.

    ``expert_skew`` stamps the trace with a Zipf-s gate skew (see
    :func:`repro.moe_placement.zipf_expert_probs`) so MoE benchmarks can
    regenerate the matching gate stream from the same seed. ``seed``
    takes an int or a live :class:`numpy.random.Generator` to thread one
    stream through a composite workflow (see :mod:`repro.rng`).
    """
    # Function-local import: repro.scenarios builds WorkloadTrace objects
    # from this module, so the package dependency points scenarios ->
    # engine; the compat wrapper resolves its helper lazily.
    from ..scenarios.arrivals import draw_arrivals

    # draw_arrivals validates the count and rate, WorkloadTrace the skew.
    if mean_prompt < 1 or mean_gen < 1:
        raise ValueError("mean lengths must be >= 1")
    if num_sessions is not None and num_sessions < 1:
        raise ValueError("num_sessions must be >= 1 when given")
    rng = as_generator(seed)
    arrivals = draw_arrivals(
        rng, num_requests, arrival_rate,
        arrival_shape=arrival_shape,
        diurnal_amplitude=diurnal_amplitude,
        diurnal_period=diurnal_period,
        burst_factor=burst_factor,
        num_bursts=num_bursts,
    )
    prompts = np.maximum(1, rng.poisson(mean_prompt, size=num_requests))
    gens = np.maximum(1, rng.poisson(mean_gen, size=num_requests))
    sessions = (None if num_sessions is None
                else rng.integers(0, num_sessions, size=num_requests))
    return WorkloadTrace(
        tuple(
            Request(i, float(arrivals[i]), int(prompts[i]), int(gens[i]),
                    session=None if sessions is None else int(sessions[i]))
            for i in range(num_requests)
        ),
        expert_skew=expert_skew,
    )


@dataclass(frozen=True)
class ServingReport(ReportStats):
    """Outcome of replaying one trace.

    Percentile/throughput views (``latency``, ``ttft``,
    ``latency_percentile``, ``ttft_percentile``, ``tokens_per_second``,
    and the per-tenant variants) come from
    :class:`~repro.engine.report_stats.ReportStats`, shared with the
    fleet layer's report.

    The KV counters mirror the functional engine's paged allocator
    (block-granular, all layers): ``kv_blocks_allocated`` are fresh
    allocations over the whole replay, ``kv_blocks_saved`` the
    allocations prefix sharing avoided (blocks inherited by fork),
    ``peak_kv_blocks`` the high-water pool occupancy including parked
    session caches. ``prefix_hits``/``prefix_hit_tokens`` count the
    admissions that reused a parked prefix and the tokens they skipped
    re-prefilling.
    """

    makespan: float
    finish_times: dict[int, float]
    first_token_times: dict[int, float]
    queue_delays: dict[int, float]
    total_tokens: int
    prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    kv_blocks_allocated: int = 0
    kv_blocks_saved: int = 0
    peak_kv_blocks: int = 0
    scheduler: Scheduler | None = field(default=None, compare=False)
    timeline: Timeline | None = field(default=None, compare=False)


def _full_detail(detail: str) -> bool:
    """True to draw full timelines, False for summary ones."""
    if detail not in ("full", "summary"):
        raise ValueError(
            f"unknown detail {detail!r}; choose 'full' or 'summary'")
    return detail == "full"


class _RenderedTimeline(Timeline):
    """A :class:`Timeline` that ``draw`` fills the first time its lanes
    are read, so a run nobody traces never builds one."""

    def __init__(self, draw: Callable[[Timeline], None]) -> None:
        self._draw = draw

    def __getattr__(self, name: str):
        # Reached only while the lanes are missing, i.e. before the draw.
        if name not in ("_lanes", "_instants"):
            raise AttributeError(name)
        drawn = Timeline()
        self._draw(drawn)
        self._lanes, self._instants = drawn._lanes, drawn._instants
        del self._draw
        return getattr(self, name)


def _draw_replica(tl: Timeline, log: array, costs: StepCostModel,
                  full: bool, first: dict[int, float],
                  finish: dict[int, float], *, index: int = 0,
                  slow: tuple[float, float] = (math.inf, 1.0),
                  served: dict[int, int] | None = None) -> None:
    """Draw one replica's action log onto ``tl``'s ``server`` lane and,
    at full detail, its ``req-{id}`` lanes, re-pricing each decode
    stretch as the replica did (``slow`` is its ``(slow_from,
    slow_factor)``). A fleet passes ``served`` (request -> final
    replica) and gets lanes prefixed ``replica{index}/``."""
    prefix = "" if served is None else f"replica{index}/"
    server = prefix + "server"
    slow_from, slow_factor = slow
    decoding: dict[int, str] = {}  # admitted here, retiring in a stretch
    for kind, start, end, a, b, c in np.array(log).reshape(-1, 6).tolist():
        a, b = int(a), int(b)
        if kind == _DECODE:
            if not full:
                tl.record(server, start, end, f"decode x{a} ({b} steps)")
                continue
            run = costs.decode_run_cost(BatchState(a, int(c)), b)
            if start >= slow_from:
                run *= slow_factor
            run[0] += start
            ends = np.add.accumulate(run, out=run).tolist()
            if ends[-1] != end:
                raise ValueError(
                    f"replica {index}: the decode stretch from t={start!r} "
                    f"re-prices to end at {ends[-1]!r}, not at its recorded "
                    f"{end!r}; full detail needs deterministic step costs")
            for e in ends:
                tl.record(server, start, e, f"decode x{a}")
                start = e
        elif kind >= _CRASH:
            tl.record_instant(server, start, (
                f"crash ({a} requeued)" if kind == _CRASH
                else "recover" if kind == _RECOVER else "retired"))
        else:
            tl.record(server, start, end,
                      f"prefill r{a} (+{b} cached)" if b else f"prefill r{a}")
            if full:
                lane = f"{prefix}req-{a}"
                tl.record(lane, c, start, "queued")
                if kind == _ADMIT_DONE:
                    tl.record(lane, start, end, "decode")
                else:
                    decoding[a] = lane
    for rid, lane in decoding.items():
        if rid in finish and (served is None or served[rid] == index):
            tl.record(lane, first[rid], finish[rid], "decode")


def _ignore_completion(index: int, request: Request, t: float) -> None:
    """A lone server has no router to tell about completions."""


def simulate_serving(
    trace: WorkloadTrace,
    *,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    detail: str = "full",
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
) -> ServingReport:
    """Replay ``trace`` through a continuous-batching server.

    Lifecycle decisions come from the shared
    :class:`~repro.engine.scheduler.Scheduler` (the same class the
    functional engine runs); this function only delivers arrivals to one
    :class:`~repro.engine.replica._Replica` and lets it price the
    scheduler's decisions with ``costs`` (any
    :class:`~repro.engine.costs.StepCostModel`:
    :class:`~repro.engine.costs.DenseStepCost`,
    :class:`~repro.engine.costs.MoEStepCost`,
    :class:`~repro.engine.costs.ZeroStepCost`, or
    :class:`~repro.engine.costs.ClosureStepCost` over a plain
    ``(prompt_time, step_time)`` function pair).

    ``prefix_sharing`` (with ``kv_block_size``/``kv_num_layers`` sizing
    the mirrored paged pool) enables session prefix reuse: a
    session-tagged request whose ``shared_prefix_len`` overlaps its
    session's parked previous turn is priced as *incremental* prefill
    (only the unshared suffix pays prompt FLOPs) and inherits the
    prefix's KV blocks instead of re-allocating them. The report's KV
    counters track the mirrored pool either way; traces without
    ``shared_prefix_len`` tags price bit-for-bit as before.

    The replay is *event-compressed*: between scheduler-relevant events
    (the next arrival, the next length retirement) the batch composition
    is frozen, so whole stretches of decode iterations are priced with
    one :meth:`~repro.engine.costs.StepCostModel.decode_run_cost` call
    and committed with one bulk
    :meth:`~repro.engine.scheduler.Scheduler.record_tokens`. Reports are
    bit-for-bit identical to per-step stepping — same makespan, same
    per-request times, same scheduler event log (the test suite holds
    them against a per-step oracle, ``tests/serving_oracle.py``).

    The returned report carries the scheduler (event log, orderings) and
    a priced :class:`Timeline` — exportable with
    ``timeline.to_chrome_trace()``. The replica keeps one log row per
    action, and the timeline is drawn from it the first time it is read.
    ``detail`` picks the drawn view; the run is the same either way.
    ``"full"`` (default) draws per-step server spans and per-request
    queued/decode lanes, re-pricing each decode stretch, so it needs
    deterministic step costs. ``"summary"`` draws one server span per
    compressed stretch and no per-request lanes.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    full = _full_detail(detail)
    kv = _KvTracker(block_size=kv_block_size, num_layers=kv_num_layers,
                    prefix_sharing=prefix_sharing)
    server = _Replica(0, max_batch=max_batch, policy=policy, costs=costs,
                      kv=kv)
    for r in trace.requests:
        server.deliver(r, r.arrival)
    while server.perform_action(_ignore_completion) is not None:
        pass
    return ServingReport(
        makespan=server.now,
        finish_times=server.finish,
        first_token_times=server.first,
        queue_delays={rid: t - server.by_id[rid].arrival
                      for rid, t in server.admit_start.items()},
        total_tokens=server.tokens,
        prefix_hits=kv.hits,
        prefix_hit_tokens=kv.hit_tokens,
        kv_blocks_allocated=kv.allocated,
        kv_blocks_saved=kv.saved_blocks,
        peak_kv_blocks=kv.peak_blocks,
        scheduler=server.sched,
        timeline=_RenderedTimeline(partial(
            _draw_replica, log=server.log, costs=costs, full=full,
            first=server.first, finish=server.finish)),
    )
