"""The replica stepper: the one continuous-batching serving loop.

The paper's runtime serves with a single loop per server (Sec. IV-C1's
hybrid prompt+token scheduling): admit a queued request and run its
prompt pass with the live batch riding along, otherwise decode one token
for every live sequence. :class:`_Replica` is that loop split into
atomic actions, pricing the shared
:class:`~repro.engine.scheduler.Scheduler`'s decisions with a
:class:`~repro.engine.costs.StepCostModel` and keeping the analytical KV
ledger (:class:`_KvTracker`) and a log of one row per action, which
the reports draw as a :class:`~repro.simcore.trace.Timeline` when it is
read.

Requests are trace positions from end to end, and the loop holds no
object per request: a delivery enqueues the position, the scheduler's
table is the trace's columns, the ledger's ``live`` dict (position ->
KV length) is the replica's one record of its running batch, and each
request's delivery, queue delay, first-token and finish time go into
arrays shared by every replica of a run (:class:`_Outcomes`).

Both simulators drive it:
:func:`~repro.engine.serving_sim.simulate_serving` runs one replica to
completion, and :func:`~repro.fleet.sim.simulate_fleet` interleaves many
behind a router, adding crashes, recoveries, slowdowns and drains.

Decode is *event-compressed*: between scheduler-relevant events the
batch composition is frozen, so a whole stretch of decode iterations,
up to the next retirement, is priced at once and committed with one
bulk :meth:`~repro.engine.scheduler.Scheduler.record_tokens`. A priced
stretch is its step end times, the per-step clock's own left fold
(``now += cost``): read in O(1) off a pass-priced cost model's decode
grid (``_decode_grid``) and cut by one ``searchsorted``, or else (no
grid, a slowed replica, a stretch the grid cannot give exactly) folded
from its :meth:`~repro.engine.costs.StepCostModel.decode_run_cost` run,
in Python floats up to ``_FOLD_MAX`` steps and by one in-place
``np.add.accumulate`` beyond, and cut by one ``bisect_left``. Either
form is cut at the first step end that reaches a break, in the loop and
at a delivery alike, bit-for-bit as per-step stepping would.

Only events that can change a replica split its stretch: its own next
delivery, its slowdown onset and retirements, plus the fleet-wide
faults, joins and control epochs. An arrival routed to another replica
does not. In a fleet, a stretch that reaches past the next arrival is
priced in full and *held*: the replica is due again at the start of the
stretch's last step, the earliest point its completions can change what
the router reads, and commits the whole stretch then. A delivery before
that commits only the steps starting before the arrival, exactly where
a per-step replica would have seen it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from struct import Struct
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..model.config import _as_index
from ..simcore.trace import merged_length
from .costs import BatchState, PromptShape, StepCostModel
from .scheduler import Scheduler

if TYPE_CHECKING:
    from .serving_sim import _RequestColumns

_INF = math.inf
# The trace's session column holds this for "no session".
_NO_SESSION = -2**63
# Priced batch states and prompt shapes skip their classes' checks:
# their fields are valid by construction.
_new = object.__new__
_set_batch = BatchState.batch.__set__
_set_total_kv = BatchState.total_kv.__set__

# Action-log row kinds. Every row is ``(kind, start, end, a, b, c)``:
# an admission has a = request id, b = cached prefix tokens and c = the
# scheduler's arrival (_ADMIT_DONE: it retired in its prompt pass); a
# decode stretch has a = batch, b = steps and c = the live KV total at
# its start; _CRASH (a = requests requeued), _RECOVER and _RETIRE are
# instants (start == end). Ids and counts are exact below 2**53. A row
# is appended as one packed string (``_row``): ``frombytes`` copies it
# whole, where ``extend`` parses every item.
_ADMIT, _ADMIT_DONE, _DECODE, _CRASH, _RECOVER, _RETIRE = range(6)
_row = Struct("6d").pack
# A folded stretch of at most this many steps folds in Python floats, a
# longer one in NumPy (their measured crossover); the grid beat the fold
# at every length, so it takes every stretch it can (docs/GUIDE.md).
_FOLD_MAX = 32


def _grid_cut(grid: tuple, start: float, t: float) -> tuple[int, float]:
    """``(steps, end)`` of a stretch from ``start`` with clock ``grid``
    (a ``_decode_grid``) cut at ``t`` <= its end. Past ``start``, ``t`` is
    in the grid's binade, so ``(t - start) / u`` is an exact integer."""
    sums, c0, base, u, _ = grid
    k = c0 + 1 if t <= start else int(
        sums.searchsorted(base + (t - start) / u))
    return k - c0, start + float(sums[k] - base) * u


class _KvTracker:
    """Analytical KV-block accounting mirroring the functional paged
    allocator, including copy-on-write prefix sharing.

    The functional engine's cache for a request retired after ``G``
    tokens holds ``prompt + G - 1`` positions (the final emitted token
    is never appended), occupying ``num_layers * ceil(positions /
    block_size)`` pool blocks. With ``prefix_sharing`` on, a
    session-tagged retiree's cache is *parked*; the session's next turn
    forks it up to ``eff = min(shared_prefix_len, parked positions)``
    tokens — inheriting the covering blocks by aliasing instead of
    allocating them — and the parked parent is freed at the fork (its
    remaining blocks return to the pool, so no copy-on-write fires in
    this flow). The tracker replays exactly that arithmetic, so its
    counters equal the functional allocator's measurements.

    :attr:`live` maps each running request to its KV length (cached
    positions plus the token being generated), in admission order, keyed
    by trace position; a request of KV length ``n`` caches ``n - 1``
    positions.
    :attr:`total_kv` is the running sum of those lengths and
    :attr:`batch` their count, so the live batch's :class:`BatchState`
    is two reads.

    Stretch discipline: callers grow every live request (retirees
    included — they participate in all of a stretch's steps) *before*
    retiring, matching the functional order of operations within a
    decode step. Growth is lazy: :meth:`grow_all` only adds to
    ``_grown``, and one :meth:`_sync` walk applies it and counts its
    blocks, before anything frees blocks and when :attr:`peak_blocks`
    or :attr:`allocated` is read. Usage only rises between syncs, so
    the peak checked there is exact.
    """

    def __init__(
        self,
        *,
        block_size: int = 16,
        num_layers: int = 1,
        prefix_sharing: bool = True,
    ) -> None:
        # ``< 1`` alone lets NaN and fractional sizes through, which
        # make NaN or fractional block counts.
        block_size = _as_index("block_size", block_size)
        num_layers = _as_index("num_layers", num_layers)
        if block_size < 1 or num_layers < 1:
            raise ValueError("block_size and num_layers must be >= 1")
        self.block_size = block_size
        self.num_layers = num_layers
        self.prefix_sharing = prefix_sharing
        # session -> (parked cache positions, blocks it occupies)
        self._parked: dict[int, tuple[int, int]] = {}
        self._live: dict[int, int] = {}  # pos -> KV length - _grown
        self._grown = 0    # steps every live request grew since _sync
        self.total_kv = 0  # sum(live.values())
        self.batch = 0     # len(live)
        self._used = 0     # blocks in use, less the growth since _sync
        self._peak = 0
        self._allocated = 0
        self.hits = 0
        self.hit_tokens = 0
        self.saved_blocks = 0

    def _blocks(self, positions: int) -> int:
        return self.num_layers * (-(-positions // self.block_size))

    @property
    def live(self) -> dict[int, int]:
        """Trace position -> KV length, in admission order (a copy)."""
        return {pos: n + self._grown for pos, n in self._live.items()}

    @property
    def peak_blocks(self) -> int:
        """Most pool blocks in use at once."""
        self._sync()
        return self._peak

    @property
    def allocated(self) -> int:
        """Pool blocks allocated so far."""
        self._sync()
        return self._allocated

    def _sync(self) -> None:
        """Apply the growth since the last sync; check the peak."""
        steps = self._grown
        if steps:
            # ceil(p / bs) == (p - 1) // bs + 1 for p >= 1, so a request
            # caching p = n - 1 positions needs (n + steps - 2) // bs -
            # (n - 2) // bs more blocks.
            bs = self.block_size
            live = self._live
            grown = 0
            for pos, n in live.items():
                grown += (n + steps - 2) // bs - (n - 2) // bs
                live[pos] = n + steps
            self._grown = 0
            delta = self.num_layers * grown
            self._used += delta
            self._allocated += delta
        if self._used > self._peak:
            self._peak = self._used

    def _admit(self, pos: int, prompt_len: int, session: int | None,
               shared_prefix_len: int) -> int:
        """Account one admission; returns the effective shared prefix
        (0 = full prefill) for prefix-aware prompt pricing."""
        # ``session`` is None or _NO_SESSION when unset; a request with a
        # shared prefix always has one.
        eff = 0
        if (self.prefix_sharing and shared_prefix_len
                and session in self._parked):
            self._sync()  # the fork frees blocks
            ctx, parked_blocks = self._parked.pop(session)
            eff = min(shared_prefix_len, ctx)
            # Fork: the child aliases the prefix blocks; the parked
            # parent is freed, returning its suffix blocks to the pool.
            self._used -= parked_blocks - self._blocks(eff)
            self.hits += 1
            self.hit_tokens += eff
            self.saved_blocks += self._blocks(eff)
        # The blocks past the inherited prefix (``eff < prompt_len``).
        bs = self.block_size
        fresh = self.num_layers * (-(-prompt_len // bs) - (-(-eff // bs)))
        pending = self._grown
        if pending:  # take back the growth the next sync will count
            fresh -= self.num_layers * ((prompt_len - 1) // bs
                                        - (prompt_len - 1 - pending) // bs)
        self._used += fresh
        self._allocated += fresh
        self._live[pos] = prompt_len + 1 - pending
        self.total_kv += prompt_len + 1
        self.batch += 1
        return eff

    def grow_all(self, steps: int) -> None:
        """Every live request appends ``steps`` positions (one per
        decode iteration of a stretch), counted at the next :meth:`_sync`."""
        self._grown += steps
        self.total_kv += steps * self.batch

    def _retire(self, pos: int, session: int) -> None:
        """Release (or park) a finished request's cache."""
        self._sync()
        n = self._live.pop(pos)
        self.total_kv -= n
        self.batch -= 1
        pos = n - 1
        blocks = self.num_layers * (-(-pos // self.block_size))
        if self.prefix_sharing and session != _NO_SESSION:
            prev = self._parked.get(session)
            if prev is not None:  # newer turn supersedes the parked one
                self._used -= prev[1]
            self._parked[session] = (pos, blocks)
        else:
            self._used -= blocks

    def reset_live(self) -> None:
        """Drop all live (non-parked) accounting — a replica crash wipes
        in-flight caches; parked state dies with them too."""
        self._sync()
        for n in self._live.values():
            self._used -= self._blocks(n - 1)
        self._live.clear()
        self.total_kv = self.batch = 0
        for _, blocks in self._parked.values():
            self._used -= blocks
        self._parked.clear()


class _Outcomes:
    """Per-request state of one run, indexed by trace position: the time
    it last reached a replica, its queue delay (original arrival to the
    last admission), first-token and finish time, NaN until written,
    and the schedulers' shared duplicate-enqueue byte. Every replica of
    a run writes into the same arrays, so the last write is the serving
    replica's."""

    __slots__ = ("delay", "first", "finish", "delivered", "held")

    def __init__(self, n: int) -> None:
        nan = array("d", [math.nan])
        self.delay, self.first, self.finish = nan * n, nan * n, nan * n
        self.delivered = nan * n
        self.held = bytearray(n)


class _Replica:
    """One priced server: the continuous-batching loop as atomic actions
    (admit one request with its prompt pass, or decode a stretch), so a
    driver can run it alone or interleave it with others. Requests are
    positions in ``requests``, the trace's columns; results go to
    ``out``. The hot paths read the scheduler's queue, slot table and
    cached horizon (``Scheduler._queue``, ``_active``, ``_horizon``)
    directly, not through its properties.

    ``on_complete(index, pos, t)``, unless ``None``, is called for every
    request that finishes here (``pos`` is its trace position): the
    fleet releases the request's work from the router; a lone server,
    with no router to tell, passes ``None``."""

    def __init__(self, index: int, *, requests: _RequestColumns,
                 out: _Outcomes, max_batch: int, policy: str,
                 costs: StepCostModel, kv: _KvTracker,
                 on_complete: Callable[[int, int, float], None] | None,
                 join_time: float = 0.0,
                 ttft_sink: list[tuple[float, float]] | None = None) -> None:
        self.index = index
        self.requests = requests
        self.out = out
        self.on_complete = on_complete
        self.max_batch = max_batch
        self.policy = policy
        self.sched = Scheduler(max_batch, requests, policy=policy, held=out.held)
        self.costs = costs
        # The cost model's optional exact decode clock (else runs fold).
        self._grid = getattr(costs, "_decode_grid", None)
        # Per-replica KV pool accounting: parked session prefixes live
        # (and die) with this replica; counters span incarnations.
        self.kv = kv
        self.now = join_time
        self.alive = True
        self.draining = False   # unroutable; finishes assigned work
        self.retired = False    # drained dry: gone for good
        self.join_time = join_time
        self.retire_time: float | None = None
        self.slow_from = _INF
        self.slow_factor = 1.0
        self.crash_step: int | None = None
        self._mid_round = False
        # Delivered, unenqueued: (arrival, trace position).
        self.inbox: deque[tuple[float, int]] = deque()
        self.completed = 0  # requests that finished here
        self.completed_tokens = 0  # their tokens (the kept ones)
        self.tokens = 0  # every token generated here, kept or discarded
        self.log = array("d")  # six floats per action row
        # Closed up-time segments + the currently-open segment start;
        # crash/retire close a segment, recover opens the next.
        self.segments: list[tuple[float, float]] = []
        self.seg_open: float | None = join_time
        # Past incarnations: (scheduler, crash step) per crash that was
        # followed by a recovery; the functional replay re-runs each.
        self.past: list[tuple[Scheduler, int | None]] = []
        # When set, the fleet's autoscaler collects (time, ttft) samples
        # here; None keeps the non-autoscaled path allocation-free.
        self.ttft_sink = ttft_sink
        # A priced, uncommitted decode stretch (start, its step end
        # times, steps, end) and the start of its last step; see
        # perform_action's ``t_arrival``.
        self._plan: tuple | None = None
        self._plan_key = _INF

    # -- delivery --------------------------------------------------------

    def deliver(self, pos: int, t: float) -> None:
        """Hand over the request at trace position ``pos``, arriving at
        ``t`` (enqueued by the first action at or after ``t``).
        Deliveries must come in time order.

        A held decode stretch is first committed up to ``t`` by the
        loop's own cut, ``bisect_left`` over its step end times: only
        its steps starting strictly before ``t`` run, so the newcomer is
        seen exactly where a per-step replica would see it. The stretch
        is held only while ``t`` is at most its last step's start, so
        the cut retires nobody."""
        if self._plan is not None:
            start, ends, _, _ = self._plan
            self._plan = None
            if type(ends) is tuple:  # read off the cost model's grid
                n, now = _grid_cut(ends, start, t)
            else:
                n = bisect_left(ends, t) + 1
                now = float(ends[n - 1])
            self._commit(start, now, n)
        self.inbox.append((t, pos))

    # -- the action interface --------------------------------------------

    def next_action_time(self) -> float:
        """Start time of this replica's next atomic action (inf if idle);
        for a held decode stretch, the start of its last step."""
        if self._plan is not None:
            return self._plan_key
        if not self.alive or self.retired:
            return _INF
        sched = self.sched
        if sched._active or sched._queue:  # running or queued work
            return self.now
        if self.inbox:
            return max(self.now, self.inbox[0][0])  # idle fast-forward
        return _INF

    def perform_action(self, *, t_limit: float = _INF,
                       t_arrival: float = _INF,
                       max_steps: int | None = None) -> str | None:
        """Run one atomic action: admit one request (paying its prompt
        pass) if possible, else decode a whole *stretch* of iterations.
        Returns what ran, or ``None`` when there is nothing to do.

        ``t_limit`` bounds a decode stretch: only iterations *starting*
        strictly before it are committed (the fleet loop passes its next
        fault, join or control epoch, so a run splits exactly where a
        per-step replica would have yielded to the event loop). A
        replica's own inbox, the next length retirement, and a pending
        slowdown onset split the run the same way: the stretch ends at
        the first of its step end times that reaches the earliest break
        (one ``bisect_left``). ``max_steps`` caps the stretch (``1``
        recovers per-step stepping, used by :meth:`crash`).

        ``t_arrival`` is the fleet's next arrival, which may go to any
        replica. A stretch whose last step starts at or after it is
        *held* instead of committed: :meth:`next_action_time` reports
        that last step's start (where its completions become visible to
        the router), the next action commits the stretch whole, and a
        :meth:`deliver` before then commits only the steps starting
        before the delivery. Arrivals routed elsewhere never cut it.
        """
        plan = self._plan
        if plan is not None:
            start, _, n, now = plan
            self._plan = None
            self._commit(start, now, n)
            return "decode"
        if not self.alive or self.retired:
            return None
        sched = self.sched
        inbox = self.inbox
        if not (sched._active or sched._queue):
            if not inbox:
                return None
            if inbox[0][0] > self.now:  # idle fast-forward
                self.now = inbox[0][0]
        now = self.now
        while inbox and inbox[0][0] <= now:
            t, pos = inbox.popleft()
            self.out.delivered[pos] = t
            sched.enqueue(pos)
        kv = self.kv
        # A decode-only action (nothing queued, or no free slot) skips
        # the scheduler's admission pass.
        if sched._queue and kv.batch < self.max_batch:
            admitted = sched.admit(max_admit=1)
        else:
            admitted = None
        if admitted:
            pos = admitted[0]
            req = self.requests
            prompt_len = req.prompt[pos]
            self._mid_round = True
            start = self.now
            # The riders: the live batch before the newcomer joins it.
            riders = _new(BatchState)
            _set_batch(riders, kv.batch)
            _set_total_kv(riders, kv.total_kv)
            eff = kv._admit(pos, prompt_len, req.session[pos],
                            req.prefix[pos])
            # A prefix hit prices the unshared suffix only.
            shape = _new(PromptShape)
            d = shape.__dict__
            d["prompt_len"], d["shared_prefix_len"] = prompt_len, eff
            dt = self.costs.prompt_cost(riders, shape)
            if start >= self.slow_from:
                dt *= self.slow_factor
            if not 0.0 <= dt < _INF:
                raise ValueError(
                    f"replica {self.index}: prompt pass of request {req.ids[pos]} "
                    f"priced at {dt!r} s; step costs must be finite and >= 0")
            now = self.now = start + dt
            # Delay and TTFT run from the *original* arrival (a retried
            # request's clock ran through the crash).
            arrival = req.arrival[pos]
            self.out.delay[pos] = start - arrival
            self.out.first[pos] = now  # prompt pass yields token 1
            if self.ttft_sink is not None:
                self.ttft_sink.append((now, now - arrival))
            self.tokens += 1
            done = sched.record_token(pos) is not None
            self.log.frombytes(_row(_ADMIT_DONE if done else _ADMIT, start, now,
                                    req.ids[pos], eff, self.out.delivered[pos]))
            if done:
                self._finish(pos, now)
            return "admit"
        batch = kv.batch
        if not batch:
            return None
        start = self.now
        slow_from = self.slow_from
        # Iterations are committed only while every intermediate step
        # start stays strictly before each break time: the event-loop
        # limit, this replica's own next delivery, and — while still at
        # full speed — the slowdown onset.
        t_break = t_limit
        if inbox and inbox[0][0] < t_break:
            t_break = inbox[0][0]
        if start < slow_from < t_break:
            t_break = slow_from
        horizon = sched._horizon or sched.decode_horizon()  # None = stale
        if max_steps is not None and horizon > max_steps:
            horizon = max_steps
        n = horizon
        ends = (self._grid(batch, kv.total_kv, horizon, start)
                if start < slow_from and self._grid is not None else None)
        if ends is not None:
            now = ends[4]
            if now >= t_break:
                n, now = _grid_cut(ends, start, t_break)
        else:
            state = _new(BatchState)
            _set_batch(state, batch)
            _set_total_kv(state, kv.total_kv)
            run = self.costs.decode_run_cost(state, horizon)
            if start >= slow_from:  # unslowed replicas skip the multiply
                run *= self.slow_factor
            # The stretch's step end times, the per-step clock's own left
            # fold from ``start``: in Python floats up to _FOLD_MAX steps,
            # beyond it in place with one ``np.add.accumulate`` (no Python
            # work per step). Costs >= 0 keep the ends sorted for
            # ``bisect_left``; ``float`` keeps an array's items floats.
            if horizon <= _FOLD_MAX:
                ends = run.tolist()
                ends[0] += start
                ends = list(accumulate(ends))
            else:
                run[0] += start
                ends = np.add.accumulate(run, out=run)
            now = float(ends[-1])
            if now >= t_break:
                n = bisect_left(ends, t_break) + 1
                now = float(ends[n - 1])
        if not start <= now < _INF:
            raise ValueError(
                f"replica {self.index}: decode stretch of {n} steps x{batch} "
                f"from t={start!r} ends at {now!r}; step costs must be "
                f"finite and >= 0")
        if now >= t_arrival and n > 1:
            if type(ends) is tuple:  # the last step's start
                sums, c0, base, u, _ = ends
                last = start + float(sums[c0 + n - 1] - base) * u
            else:
                last = float(ends[n - 2])
            if last >= t_arrival:
                self._plan = (start, ends, n, now)
                self._plan_key = last
                return "decode"
        self._commit(start, now, n)
        return "decode"

    def _commit(self, start: float, now: float, n: int) -> None:
        """Commit the first ``n`` steps of a priced decode stretch from
        ``start``, ending at ``now``."""
        batch = self.kv.batch
        self.now = now
        retired = self.sched.record_tokens(n)
        self.tokens += n * batch
        self.log.frombytes(_row(_DECODE, start, now, batch, n,
                                self.kv.total_kv))
        # Caches grow before retirement (a retiree participates in every
        # step of the stretch — it retires *at* the last one).
        self.kv.grow_all(n)
        for pos in retired:
            self._finish(pos, now)
        self._mid_round = False

    def _finish(self, pos: int, now: float) -> None:
        """Record the request at ``pos`` finishing at ``now``."""
        req = self.requests
        self.kv._retire(pos, req.session[pos])
        self.out.finish[pos] = now
        self.completed += 1
        self.completed_tokens += req.gen[pos]
        if self.on_complete is not None:
            self.on_complete(self.index, pos, now)

    # -- crash handling --------------------------------------------------

    def crash(self, t_fault: float) -> list[tuple[float, int]]:
        """Kill the replica: finish the in-flight round so it dies at a
        scheduler step boundary, then surrender every unfinished request
        (queued, in flight, or undelivered) for requeueing. Returns
        ``(requeue_time, position)`` victims in scheduler order."""
        while self._mid_round:
            # Per-step stepping: the in-flight round must finish exactly
            # where a per-step replica would, not run a whole stretch.
            if self.perform_action(max_steps=1) is None:
                # The round cannot reach its decode (everything retired
                # in prompt passes); close the step so the event log
                # stays boundary-aligned for functional replay.
                self.sched.advance()
                self._mid_round = False
        self.alive = False
        self.crash_step = self.sched.step
        # The machine's KV pool dies with it: in-flight caches *and*
        # parked session prefixes are gone (counters survive — they
        # describe work that really happened here).
        self.kv.reset_live()
        t_requeue = max(self.now, t_fault)
        if self.seg_open is not None:
            self.segments.append((self.seg_open, t_requeue))
            self.seg_open = None
        # In flight (output discarded), then queued (never started).
        victims = [(t_requeue, pos) for pos in self.sched.surrender()]
        for t, pos in self.inbox:              # routed, never enqueued
            victims.append((max(t_requeue, t), pos))
        self.inbox.clear()
        self.log.frombytes(_row(_CRASH, t_requeue, t_requeue, len(victims),
                                0, 0))
        return victims

    def recover(self, t: float) -> None:
        """Reboot a crashed replica at time ``t``: a *fresh* scheduler
        (nothing of the dead incarnation's state survives the machine),
        empty batch, routable again unless it was draining (then it
        retires at once). The old scheduler and its crash step are
        archived for the functional replay; completion records survive
        because those requests really did finish here."""
        if self.alive:
            raise RuntimeError(
                f"replica {self.index} is alive; only a crashed replica "
                f"can recover")
        self.past.append((self.sched, self.crash_step))
        self.sched = Scheduler(self.max_batch, self.requests, policy=self.policy,
                               held=self.out.held)
        self.alive = True
        self.crash_step = None
        self._mid_round = False
        self.now = max(self.now, t)
        self.seg_open = self.now
        self.log.frombytes(_row(_RECOVER, self.now, self.now, 0, 0, 0))

    def maybe_retire(self, t: float) -> bool:
        """Retire a draining replica the moment it runs dry (no active,
        queued, or undelivered work). Returns whether it retired now.
        A draining replica takes no new work, so only its own actions, a
        crash and a recovery change it: the fleet calls this at drain
        start, after each of its actions, and at its recovery."""
        if (self.draining and self.alive and not self.retired
                and not self.sched.num_active and not self.sched.num_waiting
                and not self.inbox):
            self.retired = True
            self.retire_time = max(self.now, t)
            if self.seg_open is not None:
                self.segments.append((self.seg_open, self.retire_time))
                self.seg_open = None
            self.log.frombytes(_row(_RETIRE, self.retire_time,
                                    self.retire_time, 0, 0, 0))
            return True
        return False

    # -- reporting -------------------------------------------------------

    def busy_time(self) -> float:
        """Time in prompt passes and decode stretches (the server lane's
        :meth:`~repro.simcore.trace.Timeline.busy_time`)."""
        spans = np.array(self.log).reshape(-1, 6)
        spans = spans[spans[:, 0] < _CRASH]
        return merged_length(spans[:, 1].tolist(), spans[:, 2].tolist())

    def lifetime(self, makespan: float) -> tuple[tuple[float, float], ...]:
        """Up-time segments, the open one closed at ``makespan``."""
        segments = list(self.segments)
        if self.seg_open is not None:
            segments.append((self.seg_open, max(self.seg_open, makespan)))
        return tuple(segments)
