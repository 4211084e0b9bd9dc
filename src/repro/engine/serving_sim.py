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
import operator
from array import array
from collections.abc import Mapping, Sequence, ValuesView
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat, starmap
from typing import Callable

import numpy as np

from ..model.config import _as_index
from ..rng import SeedLike, as_generator
from ..simcore.trace import Timeline
from .costs import BatchState, StepCostModel
from .replica import (_ADMIT_DONE, _CRASH, _DECODE, _NO_SESSION, _RECOVER,
                      _KvTracker, _Outcomes, _Replica)
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
        # Integer fields must be ints: a float (NaN included) would pass
        # the range tests below and fail deep inside a run.
        try:
            for v in (self.request_id, self.prompt_len, self.gen_tokens,
                      self.turn_index, self.shared_prefix_len):
                operator.index(v)
            if self.session is not None:
                operator.index(self.session)
        except TypeError:
            for name in ("request_id", "prompt_len", "gen_tokens",
                         "turn_index", "shared_prefix_len", "session"):
                if getattr(self, name) is not None:
                    _as_index(name, getattr(self, name))
            raise
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


_FIELDS = operator.attrgetter(
    "request_id", "arrival", "prompt_len", "gen_tokens", "session", "tenant",
    "turn_index", "shared_prefix_len")
_new = object.__new__


def _make_request(tenant_names, rid, arrival, prompt, gen, session, code,
                  turn, prefix) -> Request:
    """One trace row as a :class:`Request`, built without re-checking
    (its columns were checked); item stores are the cheapest build."""
    r = _new(Request)
    d = r.__dict__
    d["request_id"] = rid
    d["arrival"] = arrival
    d["prompt_len"] = prompt
    d["gen_tokens"] = gen
    d["session"] = None if session == _NO_SESSION else session
    d["tenant"] = tenant_names[code]
    d["turn_index"] = turn
    d["shared_prefix_len"] = prefix
    return r


def _int_column(name: str, values) -> np.ndarray:
    """``values`` as an int64 array, each checked as ``_as_index`` checks
    one request's field."""
    a = np.asarray(values)
    if a.dtype.kind not in "biu":
        for v in a.tolist():
            _as_index(name, v)
    if a.dtype.kind == "u" and a.size and a.max() >= 2**63:
        raise ValueError(f"{name} must fit in int64")
    try:
        return np.ascontiguousarray(a, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must fit in int64") from None


class _RequestColumns(Sequence):
    """A trace's requests as typed columns, one entry per trace position.

    ``ids`` is a ``range`` when the ids are consecutive, else int64;
    ``arrival`` is float64; ``prompt``, ``gen``, ``turn`` and ``prefix``
    are int64; ``session`` is int64 with ``-2**63`` for "no session";
    ``tenant`` holds codes into ``tenant_names``. The columns are
    checked once, against every rule :class:`Request` applies to one
    request, and are never written afterwards. As a ``Sequence`` each
    item is a :class:`Request` built on read, without re-checking.
    """

    __slots__ = ("ids", "arrival", "prompt", "gen", "session", "tenant",
                 "tenant_names", "turn", "prefix", "_index")

    def __init__(self, arrival, prompt_len, gen_tokens, *, request_id=None,
                 session=None, tenant=None, turn_index=None,
                 shared_prefix_len=None) -> None:
        arrival = np.ascontiguousarray(arrival, dtype=np.float64)
        n = arrival.size
        if not n:
            raise ValueError("a trace needs at least one request")
        if not np.isfinite(arrival).all():
            bad = arrival[~np.isfinite(arrival)][0].item()
            raise ValueError(f"arrival must be a finite time, got {bad!r}")
        prompt = _int_column("prompt_len", prompt_len)
        gen = _int_column("gen_tokens", gen_tokens)
        ids = (np.arange(n) if request_id is None
               else _int_column("request_id", request_id))
        zeros = np.zeros(n, np.int64)
        turn = (zeros if turn_index is None
                else _int_column("turn_index", turn_index))
        prefix = (zeros if shared_prefix_len is None
                  else _int_column("shared_prefix_len", shared_prefix_len))
        unset = np.ones(n, bool)
        if session is not None:
            session = np.array(session)
            if session.dtype == object:
                unset = np.equal(session, None)
                session[unset] = 0
            else:
                unset = np.zeros(n, bool)
            session = _int_column("session", session)
            if (session[~unset] == _NO_SESSION).any():
                raise ValueError(f"session must be > {_NO_SESSION}")
            session[unset] = _NO_SESSION
        codes: dict = {}
        if tenant is not None:
            tenant = [codes.setdefault(t, len(codes)) for t in tenant]
        if not (arrival.shape == prompt.shape == gen.shape == ids.shape
                == turn.shape == prefix.shape == unset.shape == (n,)
                and (tenant is None or len(tenant) == n)):
            raise ValueError("trace columns must be 1-D and equally long")
        if (arrival < 0).any() or (prompt < 1).any() or (gen < 1).any():
            raise ValueError("invalid request parameters")
        if (turn < 0).any():
            raise ValueError("turn_index must be >= 0")
        if ((prefix < 0) | (prefix >= prompt)).any():
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt_len")
        if ((prefix > 0) & unset).any():
            raise ValueError(
                "shared_prefix_len needs a session to share with")
        if (arrival[1:] < arrival[:-1]).any():
            raise ValueError("requests must be sorted by arrival time")
        if (np.diff(ids) == 1).all():
            self.ids = range(int(ids[0]), int(ids[0]) + n)
        elif np.unique(ids).size != n:
            raise ValueError("request ids must be unique within a trace "
                             "(duplicates would corrupt scheduler state)")
        else:
            self.ids = array("q", ids.tobytes())
        self.tenant_names = tuple(codes) or (None,)
        self.tenant = array("B" if len(codes) <= 256 else "I",
                            tenant if tenant is not None else bytes(n))
        self.arrival = array("d", arrival.tobytes())
        self.prompt = array("q", prompt.tobytes())
        self.gen = array("q", gen.tobytes())
        self.session = (array("q", session.tobytes()) if session is not None
                        else array("q", [_NO_SESSION]) * n)
        self.turn = array("q", turn.tobytes())
        self.prefix = array("q", prefix.tobytes())
        self._index: dict[int, int] | None = None

    @classmethod
    def of(cls, requests) -> _RequestColumns:
        """Columns of a sequence of :class:`Request` objects."""
        rows = list(map(_FIELDS, requests))
        if not rows:
            raise ValueError("a trace needs at least one request")
        ids, arrival, prompt, gen, session, tenant, turn, prefix = zip(*rows)
        return cls(arrival, prompt, gen, request_id=ids, session=session,
                   tenant=tenant, turn_index=turn, shared_prefix_len=prefix)

    def locator(self) -> Callable[[int], int]:
        """The id -> position lookup: ``range.index`` for consecutive
        ids (ValueError on an unknown id), else one dict built on first
        use (KeyError)."""
        if isinstance(self.ids, range):
            return self.ids.index
        if self._index is None:
            self._index = {rid: pos for pos, rid in enumerate(self.ids)}
        return self._index.__getitem__

    def ids_at(self, positions: np.ndarray) -> list[int]:
        """The ids at ``positions``."""
        if isinstance(self.ids, range):
            return (positions + self.ids.start).tolist()
        return np.frombuffer(self.ids, np.int64)[positions].tolist()

    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self.arrival)
        pos = _as_index("trace index", i)
        if pos < 0:
            pos += n
        if not 0 <= pos < n:
            raise IndexError("trace index out of range")
        return _make_request(self.tenant_names, self.ids[pos],
                             self.arrival[pos], self.prompt[pos],
                             self.gen[pos], self.session[pos],
                             self.tenant[pos], self.turn[pos],
                             self.prefix[pos])

    def __iter__(self):
        return starmap(_make_request, zip(
            repeat(self.tenant_names), self.ids, self.arrival, self.prompt,
            self.gen, self.session, self.tenant, self.turn, self.prefix))

    def _key(self) -> tuple:
        return (self.ids, self.arrival, self.prompt, self.gen, self.session,
                [self.tenant_names[c] for c in self.tenant], self.turn,
                self.prefix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _RequestColumns):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash((len(self), self.arrival[0], self.arrival[-1]))

    def __repr__(self) -> str:
        return f"<{len(self)} requests>"


@dataclass(frozen=True)
class WorkloadTrace:
    """A reproducible request trace.

    ``requests`` may be any sequence of :class:`Request` objects; the
    trace keeps them as typed columns (see :class:`_RequestColumns`),
    checked once here, and ``requests`` becomes a read-only
    ``Sequence[Request]`` that builds each request when it is read.
    Simulators read the columns and key every per-request record on
    trace position.

    ``expert_skew`` annotates MoE traces with the Zipf-s gate skew the
    workload was synthesized under (``None`` = unknown/uniform); the
    tuners read it to decide whether skew-aware expert placement is
    worth sweeping.
    """

    requests: Sequence[Request]
    expert_skew: float | None = None

    @classmethod
    def from_columns(cls, arrival, prompt_len, gen_tokens, *,
                     session=None, tenant=None, turn_index=None,
                     shared_prefix_len=None,
                     expert_skew: float | None = None) -> WorkloadTrace:
        """A trace built from one array-like per :class:`Request` field,
        equally long and in arrival order, checked by the same rules
        without building a :class:`Request`. Request ids are ``0..n-1``;
        ``session`` entries may be ``None``; other omitted columns take
        :class:`Request`'s defaults."""
        return cls(_RequestColumns(
            arrival, prompt_len, gen_tokens, session=session, tenant=tenant,
            turn_index=turn_index, shared_prefix_len=shared_prefix_len),
            expert_skew=expert_skew)

    def __post_init__(self) -> None:
        if self.expert_skew is not None and not (
                math.isfinite(self.expert_skew) and self.expert_skew >= 0):
            raise ValueError("expert_skew must be finite and >= 0 when given")
        if not isinstance(self.requests, _RequestColumns):
            object.__setattr__(self, "requests",
                               _RequestColumns.of(self.requests))

    @property
    def duration(self) -> float:
        """Span of the arrival process."""
        arrival = self.requests.arrival
        return arrival[-1] - arrival[0]

    @property
    def total_gen_tokens(self) -> int:
        """Tokens the trace asks for."""
        return sum(self.requests.gen)


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
    if num_sessions is not None and _as_index(
            "num_sessions", num_sessions) < 1:
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
    return WorkloadTrace.from_columns(arrivals, prompts, gens,
                                      session=sessions,
                                      expert_skew=expert_skew)


class _RequestTimes(Mapping):
    """A report's read-only ``request id -> seconds`` view over one
    per-position float64 column, where NaN means "no value". Iterates
    in trace order; keyed reads go through the trace's one id ->
    position index. Equal to a ``dict`` holding the same items."""

    __slots__ = ("_requests", "_values", "_find", "_len")

    def __init__(self, requests: _RequestColumns, values: array) -> None:
        self._requests = requests
        self._values = values
        self._find = requests.locator()
        self._len = int(np.count_nonzero(~np.isnan(np.frombuffer(values))))

    def __getitem__(self, rid) -> float:
        try:
            t = self._values[self._find(rid)]
        except ValueError:  # not an id of the trace
            raise KeyError(rid) from None
        if t != t:
            raise KeyError(rid)
        return t

    def __contains__(self, rid) -> bool:
        try:
            t = self._values[self._find(rid)]
        except (KeyError, ValueError):
            return False
        return t == t

    def __len__(self) -> int:
        return self._len

    def _set(self) -> np.ndarray:
        """Positions holding a value, ascending."""
        return np.flatnonzero(~np.isnan(np.frombuffer(self._values)))

    def __iter__(self):
        return iter(self._requests.ids_at(self._set()))

    def values(self) -> ValuesView:
        return _TimesValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _TimesValues(ValuesView):
    def __iter__(self):
        m = self._mapping
        return iter(np.frombuffer(m._values)[m._set()].tolist())


def _report_times(requests: _RequestColumns,
                  out: _Outcomes) -> dict[str, Mapping[int, float]]:
    """The three per-request report fields, as views over ``out``."""
    return {"finish_times": _RequestTimes(requests, out.finish),
            "first_token_times": _RequestTimes(requests, out.first),
            "queue_delays": _RequestTimes(requests, out.delay)}


@dataclass(frozen=True)
class ServingReport(ReportStats):
    """Outcome of replaying one trace.

    ``finish_times``, ``first_token_times`` and ``queue_delays`` map
    request id to seconds. :func:`simulate_serving` fills them with
    read-only ``Mapping`` views over per-position arrays, iterating in
    trace order; they compare equal to plain dicts of the same items.

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
    finish_times: Mapping[int, float]
    first_token_times: Mapping[int, float]
    queue_delays: Mapping[int, float]
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
                  full: bool, first: Mapping[int, float],
                  finish: Mapping[int, float], *, index: int = 0,
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

    The report's ``finish_times``, ``first_token_times`` and
    ``queue_delays`` are read-only ``Mapping`` views over arrays the
    replica writes by trace position, iterating in trace order; the run
    builds no :class:`Request` (arrivals and fields come from the
    trace's columns).

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
    max_batch = _as_index("max_batch", max_batch)
    if not 1 <= max_batch:
        raise ValueError("max_batch must be >= 1")
    full = _full_detail(detail)
    kv = _KvTracker(block_size=kv_block_size, num_layers=kv_num_layers,
                    prefix_sharing=prefix_sharing)
    requests = trace.requests
    out = _Outcomes(len(requests))
    server = _Replica(0, requests=requests, out=out, max_batch=max_batch,
                      policy=policy, costs=costs, kv=kv,
                      on_complete=None)
    # Arrivals are delivered lazily: before each action the inbox holds
    # every arrival up to the time that action can start (now, or the
    # inbox head when idle) plus the first one after it, which is all
    # the replica reads of it. A lone server never holds a stretch, so
    # a delivery is a plain append.
    arrivals, inbox = requests.arrival, server.inbox
    n, k, last = len(arrivals), 0, -math.inf
    while True:
        while k < n and (not inbox or last <= server.now
                         or last <= inbox[0][0]):
            last = arrivals[k]
            inbox.append((last, k))
            k += 1
        if server.perform_action() is None:
            break
    times = _report_times(requests, out)
    return ServingReport(
        makespan=server.now,
        **times,
        total_tokens=server.tokens,
        prefix_hits=kv.hits,
        prefix_hit_tokens=kv.hit_tokens,
        kv_blocks_allocated=kv.allocated,
        kv_blocks_saved=kv.saved_blocks,
        peak_kv_blocks=kv.peak_blocks,
        scheduler=server.sched,
        timeline=_RenderedTimeline(partial(
            _draw_replica, log=server.log, costs=costs, full=full,
            first=times["first_token_times"],
            finish=times["finish_times"])),
    )
