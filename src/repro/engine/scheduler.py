"""Shared request scheduler: one lifecycle authority for every backend.

Sec. IV-C1 motivates the dynamic token queue because autoregressive
sequences terminate independently; Sec. IV-B makes KV capacity the
limiter on how many may run at once. Both concerns are *scheduling*
decisions — who waits, who gets a slot, who retires — and they must not
be re-implemented per execution backend, or the functional engine and
the analytical simulator drift apart.

:class:`Scheduler` is that single authority. It is step-driven and knows
nothing about tensors or wall-clock pricing. Requests are rows of a
table of typed columns (the trace's own, or a :class:`RequestTable` the
functional session appends to), and the scheduler keeps only their
positions. Backends enqueue a row as it arrives, call :meth:`admit` to
fill free slots under a pluggable policy (which reads the columns),
report every generated token through :meth:`record_token` or a whole
decode stretch through :meth:`record_tokens` (both own EOS/length
retirement), and call :meth:`advance` once per decode iteration.

Every decision lands in the lifecycle log, the one lifecycle record
(typed columns of steps, event codes and request ids; ``events``
renders them): ``enqueue_steps``, ``admission_order`` and
``retirement_order`` each read it in one pass.

Both :class:`~repro.engine.generation.GenerationSession` (real tensors)
and :func:`~repro.engine.serving_sim.simulate_serving` (priced time)
consume this class, so on a shared trace they make identical admission
and retirement decisions by construction.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..model.config import _as_index

__all__ = [
    "RequestTable",
    "SchedulerEvent",
    "Scheduler",
    "ADMISSION_POLICIES",
    "TenantFairShare",
    "TenantPriority",
]


class RequestTable:
    """A growable request table, typed columns by row: int64 ``ids``,
    ``prompt`` and ``gen`` (``max_new_tokens``), ``tenant`` codes into
    ``tenant_names``, and the ``held`` byte of :class:`Scheduler`. A
    trace's columns have the same fields but ``held``."""

    __slots__ = ("ids", "prompt", "gen", "tenant", "tenant_names", "held")

    def __init__(self) -> None:
        self.ids, self.prompt, self.gen = array("q"), array("q"), array("q")
        self.tenant, self.held = array("I"), bytearray()
        self.tenant_names: list[str | None] = []

    def append(self, request_id: int, prompt_len: int, max_new_tokens: int,
               tenant: str | None) -> int:
        """Add a checked row (none on a failed check); returns its row."""
        # Integers only: ``< 1`` alone lets NaN and fractional lengths
        # through. The lifecycle log stores ids in an int64 column.
        rid = _as_index("request_id", request_id)
        if not -2**63 <= rid < 2**63:
            raise ValueError(f"request_id must fit in int64, got {rid!r}")
        if (_as_index("prompt_len", prompt_len) < 1
                or _as_index("max_new_tokens", max_new_tokens) < 1):
            raise ValueError("prompt_len and max_new_tokens must be >= 1")
        if tenant not in self.tenant_names:
            self.tenant_names.append(tenant)
        self.ids.append(rid)
        self.prompt.append(prompt_len)
        self.gen.append(max_new_tokens)
        self.tenant.append(self.tenant_names.index(tenant))
        self.held.append(0)
        return len(self.ids) - 1


@dataclass(frozen=True)
class SchedulerEvent:
    """One lifecycle decision: ``enqueue``, ``admit``, or ``retire``."""

    step: int
    kind: str
    request_id: int
    reason: str = ""


# Event codes of the lifecycle log, and the (kind, reason) each renders.
_ENQUEUE, _ADMIT, _RETIRE_LENGTH, _RETIRE_EOS = range(4)
_KIND_REASON = (("enqueue", ""), ("admit", ""), ("retire", "length"),
                ("retire", "eos"))


def _fcfs(queue: deque[int], table, active: Iterable[int]) -> int:
    """First come, first served: strict arrival/enqueue order."""
    return queue[0]


def _shortest_prompt(queue: deque[int], table, active: Iterable[int]) -> int:
    """Shortest prompt first (ties broken by enqueue order — ``min`` is
    stable). Prioritizes cheap admissions when slots are scarce."""
    return min(queue, key=table.prompt.__getitem__)


class _TenantPolicy:
    """Admission across tenants: the queued request whose tenant ranks
    lowest wins, ties broken by queue order. Subclasses supply only the
    rank, :meth:`_rank`, of a tenant holding ``held`` slots.

    ``slot_caps`` bounds a tenant's concurrent slots: capped tenants are
    *skipped* (their requests stay queued, in order, without blocking
    anyone else) and the pick is ``None`` — stopping admission — only
    when every queued request is capped out.

    Stateless: the pick is a pure function of (queue, table, active),
    so the analytical and functional backends sharing one instance make
    identical decisions. Untagged requests (``tenant=None``) form their
    own implicit tenant.
    """

    def __init__(self, slot_caps: dict[str, int] | None) -> None:
        # A NaN cap fails every ``held >= cap`` test, disabling the cap.
        for name, cap in (slot_caps or {}).items():
            if _as_index(f"slot cap of tenant {name!r}", cap) < 1:
                raise ValueError(f"slot cap of tenant {name!r} must be >= 1")
        self.slot_caps = dict(slot_caps or {})

    def _rank(self, tenant: str | None, held: int) -> float:
        raise NotImplementedError

    def __call__(self, queue: deque[int], table, active: Iterable[int]) -> int | None:
        names, codes = table.tenant_names, table.tenant
        held: dict[str | None, int] = {}
        for pos in active:
            tenant = names[codes[pos]]
            held[tenant] = held.get(tenant, 0) + 1
        best: int | None = None
        best_key: tuple[float, int] | None = None
        for i, pos in enumerate(queue):
            tenant = names[codes[pos]]
            n = held.get(tenant, 0)
            cap = self.slot_caps.get(tenant)
            if cap is not None and n >= cap:
                continue
            key = (self._rank(tenant, n), i)
            if best_key is None or key < best_key:
                best, best_key = pos, key
        return best


class TenantFairShare(_TenantPolicy):
    """Weighted fair-share admission across tenants.

    Picks the queued request whose tenant currently holds the fewest
    slots *per unit weight*, so a tenant flooding the queue cannot
    starve a light one: each admission goes to the most under-served
    tenant with work waiting. Unlisted tenants, untagged requests
    included, weigh 1. ``slot_caps`` bounds a tenant's concurrent
    slots; a capped tenant's requests wait, in order.
    """

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        *,
        slot_caps: dict[str, int] | None = None,
    ) -> None:
        # ``not w > 0`` alone would let NaN through, and a NaN-weighted
        # tenant would win every pick.
        for name, w in (weights or {}).items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(
                    f"weight of tenant {name!r} must be finite and > 0, "
                    f"got {w!r}")
        super().__init__(slot_caps)
        self.weights = dict(weights or {})

    def _rank(self, tenant: str | None, held: int) -> float:
        return held / self.weights.get(tenant, 1.0)


class TenantPriority(_TenantPolicy):
    """Strict-priority admission across tenants.

    Always admits from the highest-priority tenant with work queued
    (larger ``priorities`` value = more important; unlisted tenants get
    0); within a tenant, queue order. A capped
    tenant's requests wait without blocking lower-priority traffic.
    """

    def __init__(
        self,
        priorities: dict[str, int] | None = None,
        *,
        slot_caps: dict[str, int] | None = None,
    ) -> None:
        # A NaN priority fails every comparison, so the pick would
        # depend on queue order.
        for name, prio in (priorities or {}).items():
            if not -math.inf < prio < math.inf:
                raise ValueError(f"priority of tenant {name!r} must be "
                                 f"finite, got {prio!r}")
        super().__init__(slot_caps)
        self.priorities = dict(priorities or {})

    def _rank(self, tenant: str | None, held: int) -> float:
        return -self.priorities.get(tenant, 0)


#: Named admission policies. Every policy, custom ones too, is called as
#: ``policy(queue, table, active)`` with the queued rows (queue order),
#: the request table and the active rows (admission order), none to be
#: modified, and returns the row to admit next, or ``None`` to stop
#: admission (everything admissible is capped out). ``"tenant_fair"``
#: is an unweighted, uncapped :class:`TenantFairShare`; configured
#: instances are passed as the policy callable directly.
ADMISSION_POLICIES: dict[str, Callable[..., int | None]] = {
    "fcfs": _fcfs,
    "shortest_prompt": _shortest_prompt,
    "tenant_fair": TenantFairShare(),
}


class Scheduler:
    """Request lifecycle: queue -> bounded slots -> retirement.

    Requests are rows of ``table`` (a :class:`RequestTable`, or a
    trace's columns), and the scheduler holds only their positions: a
    queue, and one dict mapping each active row (admission order) to its
    token count minus ``_bulk``, the steps :meth:`record_tokens` has
    committed, so a stretch that retires nobody moves every count at
    once. A row leaves the dict when it retires.

    ``policy`` names an entry of :data:`ADMISSION_POLICIES` or is a
    callable with their signature. ``eos_token`` makes
    :meth:`record_token` retire a request the moment it emits that token
    (reason ``"eos"``); length retirement at the row's ``gen`` always
    applies. ``held``, one byte per row set at enqueue, is the O(1)
    duplicate-enqueue check; a fleet's replicas share one per run
    (:meth:`surrender` releases a crashed replica's rows). It defaults
    to the table's own ``held`` column.

    The lifecycle log is three parallel columns — ``array("q")`` steps,
    a ``bytearray`` of event codes and ``array("q")`` request ids, 17
    bytes per event. :attr:`events` is a rendered copy, not the log:
    appending to it changes nothing.
    """

    def __init__(
        self,
        max_slots: int,
        table,
        *,
        policy: str | Callable[..., int | None] = "fcfs",
        eos_token: int | None = None,
        held: bytearray | None = None,
    ) -> None:
        # ``< 1`` alone lets NaN and fractional counts through.
        max_slots = _as_index("max_slots", max_slots)
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if not callable(policy) and policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; "
                f"choose from {sorted(ADMISSION_POLICIES)} or pass a callable"
            )
        self._pick = policy if callable(policy) else ADMISSION_POLICIES[policy]
        self.max_slots = max_slots
        self.eos_token = eos_token
        self.table = table
        self._held = table.held if held is None else held
        self._queue: deque[int] = deque()
        self._active: dict[int, int] = {}  # row -> count - _bulk
        self._bulk = 0  # steps committed by record_tokens
        # Cached decode_horizon() of a non-empty active set; None = stale.
        self._horizon: int | None = None
        self._step = 0
        # The lifecycle log: every view below is read off it.
        self._log_steps = array("q")
        self._log_codes = bytearray()
        self._log_rids = array("q")

    # -- state views ---------------------------------------------------------

    @property
    def step(self) -> int:
        """Current decode iteration index."""
        return self._step

    @property
    def active(self) -> list[int]:
        """Rows holding slots, in admission order."""
        return list(self._active)

    @property
    def num_active(self) -> int:
        """Slots currently occupied."""
        return len(self._active)

    @property
    def num_waiting(self) -> int:
        """Requests queued for a slot."""
        return len(self._queue)

    def generated(self, pos: int) -> int:
        """Tokens recorded so far for the active row ``pos``."""
        return self._active[pos] + self._bulk

    @property
    def enqueue_steps(self) -> dict[int, int]:
        """Step at which each request was enqueued, in enqueue order (a
        copy).

        This is the replay interface: a driver that enqueues requests
        into a fresh scheduler-backed backend at these steps, in this
        order, reproduces this scheduler's queue evolution exactly (see
        the fleet layer's functional mode)."""
        return {rid: step for step, code, rid in zip(
            self._log_steps, self._log_codes, self._log_rids)
            if code == _ENQUEUE}

    @property
    def admission_order(self) -> list[int]:
        """Request ids in the order they were admitted (a copy)."""
        return [rid for code, rid in zip(self._log_codes, self._log_rids)
                if code == _ADMIT]

    @property
    def retirement_order(self) -> list[int]:
        """Request ids in the order they retired (a copy)."""
        return [rid for code, rid in zip(self._log_codes, self._log_rids)
                if code >= _RETIRE_LENGTH]

    @property
    def events(self) -> list[SchedulerEvent]:
        """The lifecycle log rendered as events, in log order (a fresh
        list on every read)."""
        events = []
        for step, code, rid in zip(
                self._log_steps, self._log_codes, self._log_rids):
            kind, reason = _KIND_REASON[code]
            events.append(SchedulerEvent(step, kind, rid, reason))
        return events

    # -- lifecycle -----------------------------------------------------------

    def enqueue(self, pos: int) -> None:
        """Add the table's row ``pos`` to the waiting queue."""
        if self._held[pos]:
            raise ValueError(f"request {self.table.ids[pos]} already scheduled")
        self._held[pos] = 1
        self._queue.append(pos)
        self._log_steps.append(self._step)
        self._log_codes.append(_ENQUEUE)
        self._log_rids.append(self.table.ids[pos])

    def surrender(self) -> list[int]:
        """A crashed replica's victims: the active rows, then the queued
        ones, their ``held`` bytes cleared for another scheduler. Slots,
        queue and log stay as they are, for replay."""
        rows = [*self._active, *self._queue]
        for pos in rows:
            self._held[pos] = 0
        return rows

    def admit(
        self,
        *,
        can_admit: Callable[[int], bool] | None = None,
        max_admit: int | None = None,
    ) -> list[int]:
        """Move queued rows into free slots under the policy.

        ``can_admit(pos)`` lets the backend veto the policy's candidate
        (e.g. not enough KV blocks); admission then *stops* rather than
        skipping ahead, so capacity pressure cannot starve or reorder
        requests. ``max_admit``, an integer ``>= 0``, caps how many are
        admitted. Returns the admitted rows in admission order.
        """
        active = self._active
        free = self.max_slots - len(active)
        if max_admit is not None:
            if type(max_admit) is not int:  # the replica's exact 1 skips it
                max_admit = _as_index("max_admit", max_admit)
            if max_admit < 0:
                raise ValueError(f"max_admit must be >= 0, got {max_admit}")
            if max_admit < free:
                free = max_admit
        queue, pick, table = self._queue, self._pick, self.table
        admitted: list[int] = []
        while queue and free > 0:
            pos = pick(queue, table, active)
            if pos is None:  # everything admissible is capped out
                break
            if can_admit is not None and not can_admit(pos):
                break
            if pos == queue[0]:  # FCFS and head-of-queue ties: O(1)
                queue.popleft()
            else:
                queue.remove(pos)
            gen = table.gen[pos]
            if not active:
                self._horizon = gen
            elif self._horizon is not None and gen < self._horizon:
                self._horizon = gen
            active[pos] = -self._bulk
            self._log_steps.append(self._step)
            self._log_codes.append(_ADMIT)
            self._log_rids.append(table.ids[pos])
            admitted.append(pos)
            free -= 1
        return admitted

    def record_token(self, pos: int, token: int | None = None) -> str | None:
        """Count one generated token for the active row ``pos``; decide
        and apply retirement.

        Returns ``"eos"`` / ``"length"`` when this token finishes the
        request (the slot is freed immediately), else ``None``. Backends
        without real tokens (the analytical simulator) pass no ``token``
        and rely on length retirement alone.
        """
        active = self._active
        stored = active[pos] + 1  # KeyError unless active
        left = self.table.gen[pos] - stored - self._bulk
        reason: str | None = None
        if self.eos_token is not None and token == self.eos_token:
            reason = "eos"
        elif left <= 0:
            reason = "length"
        if reason is None:
            active[pos] = stored
            if self._horizon is not None and left < self._horizon:
                self._horizon = left
        else:
            del active[pos]
            self._horizon = None  # the minimum may have left
            self._log_steps.append(self._step)
            self._log_codes.append(
                _RETIRE_EOS if reason == "eos" else _RETIRE_LENGTH)
            self._log_rids.append(self.table.ids[pos])
        return reason

    def advance(self) -> int:
        """End the current decode iteration; returns the new step index."""
        self._step += 1
        return self._step

    # -- bulk stepping ---------------------------------------------------

    def decode_horizon(self) -> int:
        """Decode iterations until the next *length* retirement.

        With the current batch left alone (no admissions, no EOS), every
        active request survives the next ``decode_horizon() - 1``
        iterations and at least one retires on the last. This is the
        longest stretch :meth:`record_tokens` may commit in one call.
        Returns 0 when no request is active. Kept incrementally by
        :meth:`admit`, :meth:`record_token` and :meth:`record_tokens`,
        so a call is O(1) except after a single-token retirement.
        """
        if not self._active:
            return 0
        if self._horizon is None:
            gen = self.table.gen
            self._horizon = min(gen[pos] - n for pos, n
                                in self._active.items()) - self._bulk
        return self._horizon

    def record_tokens(self, steps: int) -> list[int]:
        """Commit ``steps`` whole decode iterations in one call.

        Equivalent to ``steps`` rounds of :meth:`record_token` for every
        active request (no real tokens, so length retirement only)
        followed by :meth:`advance` — same generated counts, same event
        log, same step indices — without ``steps * batch`` Python
        round-trips. ``steps`` is an integer (a float is a TypeError) and
        must not exceed :meth:`decode_horizon`, so only the final
        iteration can retire anyone. Returns the rows
        retired by that final iteration, in admission order.
        A stretch that retires nobody is O(1) (it moves ``_bulk``); a
        retiring one walks the active set once.
        """
        if type(steps) is not int:  # the serving loop's exact ints skip it
            steps = _as_index("steps", steps)
        if steps < 1:
            raise ValueError("steps must be >= 1")
        horizon = self._horizon
        if horizon is None:
            horizon = self.decode_horizon()
        if not horizon:
            raise ValueError("no active requests to record tokens for")
        if steps > horizon:
            raise ValueError(
                f"steps={steps} overruns the decode horizon "
                f"({horizon}): a retirement would be skipped")
        bulk = self._bulk = self._bulk + steps
        if steps < horizon:  # nobody retires: every count moves alike
            self._horizon = horizon - steps
            self._step += steps
            return []
        self._step += steps - 1  # land on the retiring iteration
        active, gen, ids = self._active, self.table.gen, self.table.ids
        retired: list[int] = []
        survivors: int | None = None  # their horizon
        for pos, n in list(active.items()):
            left = gen[pos] - n - bulk
            if left <= 0:
                del active[pos]
                self._log_steps.append(self._step)
                self._log_codes.append(_RETIRE_LENGTH)
                self._log_rids.append(ids[pos])
                retired.append(pos)
            elif survivors is None or left < survivors:
                survivors = left
        self._horizon = survivors
        self._step += 1
        return retired
