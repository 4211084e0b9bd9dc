"""Shared request scheduler: one lifecycle authority for every backend.

Sec. IV-C1 motivates the dynamic token queue because autoregressive
sequences terminate independently; Sec. IV-B makes KV capacity the
limiter on how many may run at once. Both concerns are *scheduling*
decisions — who waits, who gets a slot, who retires — and they must not
be re-implemented per execution backend, or the functional engine and
the analytical simulator drift apart.

:class:`Scheduler` is that single authority. It is step-driven and knows
nothing about tensors or wall-clock pricing: backends enqueue requests
as they arrive, call :meth:`admit` to fill free slots under a pluggable
policy, report every generated token through :meth:`record_token` (which
owns EOS/length retirement), and call :meth:`advance` once per decode
iteration. Every decision lands in the lifecycle log, the one
lifecycle record (typed columns; ``events`` renders them):
``enqueue_steps``, ``admission_order``, ``retirement_order`` and
:meth:`to_timeline` (a :class:`~repro.simcore.trace.Timeline` for
``to_chrome_trace`` export) each read it in one pass.

Both :class:`~repro.engine.generation.GenerationSession` (real tensors)
and :func:`~repro.engine.serving_sim.simulate_serving` (priced time)
consume this class, so on a shared trace they make identical admission
and retirement decisions by construction.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..model.config import _as_index
from ..simcore.trace import Timeline

__all__ = [
    "SchedRequest",
    "SchedulerEvent",
    "Scheduler",
    "ADMISSION_POLICIES",
    "TenantFairShare",
    "TenantPriority",
]


@dataclass(frozen=True)
class SchedRequest:
    """Scheduling-relevant metadata of one request (no tensors).

    ``tenant`` tags the request with its traffic class for the
    tenant-aware admission policies (:class:`TenantFairShare`,
    :class:`TenantPriority`); ``None`` means untagged — tenant-blind
    policies never look at it.
    """

    request_id: int
    prompt_len: int
    max_new_tokens: int
    arrival: float = 0.0
    tenant: str | None = None

    def __post_init__(self) -> None:
        # Integers only: ``< 1`` alone lets NaN and fractional lengths
        # through. One try block keeps the common case to three calls.
        try:
            rid = operator.index(self.request_id)
            prompt_len = operator.index(self.prompt_len)
            max_new_tokens = operator.index(self.max_new_tokens)
        except TypeError:
            for name in ("request_id", "prompt_len", "max_new_tokens"):
                _as_index(name, getattr(self, name))
            raise
        # The lifecycle log stores ids in an int64 column.
        if not -2**63 <= rid < 2**63:
            raise ValueError(
                f"request_id must fit in int64, got {self.request_id!r}")
        if prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        # Written as a range test so that NaN fails it too.
        if not 0 <= self.arrival < math.inf:
            raise ValueError(
                f"arrival must be finite and >= 0, got {self.arrival!r}")


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


def _fcfs(queue: Sequence[SchedRequest]) -> SchedRequest:
    """First come, first served: strict arrival/enqueue order."""
    return queue[0]


def _shortest_prompt(queue: Sequence[SchedRequest]) -> SchedRequest:
    """Shortest prompt first (ties broken by enqueue order — ``min`` is
    stable). Prioritizes cheap admissions when slots are scarce."""
    return min(queue, key=lambda r: r.prompt_len)


class _TenantPolicy:
    """Admission across tenants: the queued request whose tenant ranks
    lowest wins, ties broken by queue order. Subclasses supply only the
    rank, :meth:`_rank`, of a tenant holding ``held`` slots.

    ``slot_caps`` bounds a tenant's concurrent slots: capped tenants are
    *skipped* (their requests stay queued, in order, without blocking
    anyone else) and the pick is ``None`` — stopping admission — only
    when every queued request is capped out.

    Stateless: the pick is a pure function of (queue, active), so the
    analytical and functional backends sharing one instance make
    identical decisions. Untagged requests (``tenant=None``) form their
    own implicit tenant.
    """

    tenant_aware = True

    def __init__(self, slot_caps: dict[str, int] | None) -> None:
        # A NaN cap fails every ``held >= cap`` test, disabling the cap.
        for name, cap in (slot_caps or {}).items():
            if _as_index(f"slot cap of tenant {name!r}", cap) < 1:
                raise ValueError(f"slot cap of tenant {name!r} must be >= 1")
        self.slot_caps = dict(slot_caps or {})

    def _rank(self, tenant: str | None, held: int) -> float:
        raise NotImplementedError

    def __call__(
        self,
        queue: Sequence[SchedRequest],
        active: Sequence[SchedRequest],
    ) -> SchedRequest | None:
        held: dict[str | None, int] = {}
        for r in active:
            held[r.tenant] = held.get(r.tenant, 0) + 1
        best: SchedRequest | None = None
        best_key: tuple[float, int] | None = None
        for i, r in enumerate(queue):
            n = held.get(r.tenant, 0)
            cap = self.slot_caps.get(r.tenant)
            if cap is not None and n >= cap:
                continue
            key = (self._rank(r.tenant, n), i)
            if best_key is None or key < best_key:
                best, best_key = r, key
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


#: Named admission policies. Plain entries are callables over the
#: waiting queue; policies with a truthy ``tenant_aware`` attribute are
#: called as ``policy(queue, active)`` and may return ``None`` to stop
#: admission (everything admissible is capped out). ``"tenant_fair"``
#: is an unweighted, uncapped :class:`TenantFairShare`; configured
#: instances (weights, caps, priorities) are passed as the policy
#: callable directly.
ADMISSION_POLICIES: dict[str, Callable[..., SchedRequest | None]] = {
    "fcfs": _fcfs,
    "shortest_prompt": _shortest_prompt,
    "tenant_fair": TenantFairShare(),
}


class Scheduler:
    """Request lifecycle: queue -> bounded slots -> retirement.

    ``policy`` names an entry of :data:`ADMISSION_POLICIES` or is a
    callable picking the next request to admit from the waiting queue.
    ``eos_token`` makes :meth:`record_token` retire a request the moment
    it emits that token (reason ``"eos"``); length retirement at
    ``max_new_tokens`` always applies.

    The lifecycle log is three parallel columns — ``array("q")`` steps,
    a ``bytearray`` of event codes and ``array("q")`` request ids, 17
    bytes per event. :attr:`events` is a rendered copy, not the log:
    appending to it changes nothing. Token counts are kept by offset: an
    active request's ``_generated`` entry is its count minus ``_bulk``,
    the steps :meth:`record_tokens` has committed (a retiree's is
    absolute), so a stretch that retires nobody moves every count at
    once. Per-token stepping leaves ``_bulk`` at 0.
    """

    def __init__(
        self,
        max_slots: int,
        *,
        policy: str | Callable[[Sequence[SchedRequest]], SchedRequest] = "fcfs",
        eos_token: int | None = None,
    ) -> None:
        # ``< 1`` alone lets NaN and fractional counts through.
        max_slots = _as_index("max_slots", max_slots)
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if callable(policy):
            self.policy_name = getattr(policy, "__name__", "custom")
            self._pick = policy
        else:
            if policy not in ADMISSION_POLICIES:
                raise ValueError(
                    f"unknown policy {policy!r}; "
                    f"choose from {sorted(ADMISSION_POLICIES)} or pass a callable"
                )
            self.policy_name = policy
            self._pick = ADMISSION_POLICIES[policy]
        # Tenant-aware policies see the active set too and may decline
        # (return None) when every queued request is capped out.
        self._tenant_aware = bool(getattr(self._pick, "tenant_aware", False))
        self.max_slots = max_slots
        self.eos_token = eos_token
        # deque is a registered Sequence, so policy callables index and
        # scan it exactly as they did the old list; FCFS admissions pop
        # the head in O(1) instead of list.remove's O(n) shift.
        self._queue: deque[SchedRequest] = deque()
        self._active: dict[int, SchedRequest] = {}  # admission order
        self._generated: dict[int, int] = {}  # active: minus _bulk
        self._bulk = 0  # steps committed by record_tokens
        # Cached decode_horizon() of a non-empty active set; None = stale.
        self._horizon: int | None = None
        self._step = 0
        # The lifecycle log: every view below is read off it.
        self._log_steps = array("q")
        self._log_codes = bytearray()
        self._log_rids = array("q")
        self._known: set[int] = set()  # O(1) duplicate-enqueue check

    # -- state views ---------------------------------------------------------

    @property
    def step(self) -> int:
        """Current decode iteration index."""
        return self._step

    @property
    def active(self) -> list[int]:
        """Request ids holding slots, in admission order."""
        return list(self._active)

    @property
    def num_active(self) -> int:
        """Slots currently occupied."""
        return len(self._active)

    @property
    def num_waiting(self) -> int:
        """Requests queued for a slot."""
        return len(self._queue)

    @property
    def waiting(self) -> list[int]:
        """Request ids still queued, in queue (enqueue) order.

        The fleet layer drains this on a replica crash to requeue the
        not-yet-admitted requests elsewhere."""
        return [r.request_id for r in self._queue]

    def generated(self, request_id: int) -> int:
        """Tokens recorded for a request so far."""
        if request_id in self._active:
            return self._generated[request_id] + self._bulk
        return self._generated.get(request_id, 0)

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

    def enqueue(self, req: SchedRequest) -> None:
        """Add a request to the waiting queue."""
        if req.request_id in self._known:
            raise ValueError(f"request {req.request_id} already scheduled")
        self._known.add(req.request_id)
        self._queue.append(req)
        self._log_steps.append(self._step)
        self._log_codes.append(_ENQUEUE)
        self._log_rids.append(req.request_id)

    def admit(
        self,
        *,
        can_admit: Callable[[SchedRequest], bool] | None = None,
        max_admit: int | None = None,
    ) -> list[SchedRequest]:
        """Move queued requests into free slots under the policy.

        ``can_admit`` lets the backend veto the policy's candidate (e.g.
        not enough KV blocks); admission then *stops* rather than skipping
        ahead, so capacity pressure cannot starve or reorder requests.
        ``max_admit``, an integer ``>= 0``, caps how many are admitted.
        Returns the admitted requests in admission order.
        """
        if max_admit is not None:
            if type(max_admit) is not int:  # the replica's exact 1 skips it
                max_admit = _as_index("max_admit", max_admit)
            if max_admit < 0:
                raise ValueError(f"max_admit must be >= 0, got {max_admit}")
        admitted: list[SchedRequest] = []
        while self._queue and len(self._active) < self.max_slots:
            if max_admit is not None and len(admitted) >= max_admit:
                break
            if self._tenant_aware:
                cand = self._pick(self._queue, tuple(self._active.values()))
                if cand is None:  # everything admissible is capped out
                    break
            else:
                cand = self._pick(self._queue)
            if can_admit is not None and not can_admit(cand):
                break
            if cand is self._queue[0]:  # FCFS and head-of-queue ties: O(1)
                self._queue.popleft()
            else:
                self._queue.remove(cand)
            if not self._active:
                self._horizon = cand.max_new_tokens
            elif self._horizon is not None \
                    and cand.max_new_tokens < self._horizon:
                self._horizon = cand.max_new_tokens
            self._active[cand.request_id] = cand
            self._generated[cand.request_id] = -self._bulk
            self._log_steps.append(self._step)
            self._log_codes.append(_ADMIT)
            self._log_rids.append(cand.request_id)
            admitted.append(cand)
        return admitted

    def record_token(self, request_id: int, token: int | None = None) -> str | None:
        """Count one generated token; decide and apply retirement.

        Returns ``"eos"`` / ``"length"`` when this token finishes the
        request (the slot is freed immediately), else ``None``. Backends
        without real tokens (the analytical simulator) pass no ``token``
        and rely on length retirement alone.
        """
        if request_id not in self._active:
            raise KeyError(f"request {request_id} is not active")
        req = self._active[request_id]
        stored = self._generated[request_id] + 1
        generated = stored + self._bulk
        reason: str | None = None
        if self.eos_token is not None and token == self.eos_token:
            reason = "eos"
        elif generated >= req.max_new_tokens:
            reason = "length"
        self._generated[request_id] = stored if reason is None else generated
        if reason is not None:
            del self._active[request_id]
            self._horizon = None  # the minimum may have left
            self._log_steps.append(self._step)
            self._log_codes.append(
                _RETIRE_EOS if reason == "eos" else _RETIRE_LENGTH)
            self._log_rids.append(request_id)
        elif self._horizon is not None \
                and req.max_new_tokens - generated < self._horizon:
            self._horizon = req.max_new_tokens - generated
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
            self._horizon = min(req.max_new_tokens - self._generated[rid]
                                for rid, req in self._active.items()
                                ) - self._bulk
        return self._horizon

    def record_tokens(self, steps: int) -> list[int]:
        """Commit ``steps`` whole decode iterations in one call.

        Equivalent to ``steps`` rounds of :meth:`record_token` for every
        active request (no real tokens, so length retirement only)
        followed by :meth:`advance` — same generated counts, same event
        log, same step indices — without ``steps * batch`` Python
        round-trips. ``steps`` is an integer (a float is a TypeError) and
        must not exceed :meth:`decode_horizon`, so only the final
        iteration can retire anyone. Returns the ids
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
        generated = self._generated
        retired: list[int] = []
        survivors: int | None = None  # their horizon
        for rid, req in list(self._active.items()):
            left = req.max_new_tokens - generated[rid] - bulk
            if left <= 0:
                generated[rid] += bulk
                del self._active[rid]
                self._log_steps.append(self._step)
                self._log_codes.append(_RETIRE_LENGTH)
                self._log_rids.append(rid)
                retired.append(rid)
            elif survivors is None or left < survivors:
                survivors = left
        self._horizon = survivors
        self._step += 1
        return retired

    # -- introspection ---------------------------------------------------

    def to_timeline(self) -> Timeline:
        """Render the event log as a step-indexed :class:`Timeline`.

        Each request gets a lane with its ``queued`` and ``active``
        phases (a retirement during step ``s`` ends the span at ``s+1``).
        """
        # One pass over the log: rid -> step of each lifecycle event.
        enqueued: dict[int, int] = {}
        admitted: dict[int, int] = {}
        retired: dict[int, int] = {}
        reason: dict[int, str] = {}
        at = (enqueued, admitted, retired, retired)  # by event code
        for step, code, rid in zip(
                self._log_steps, self._log_codes, self._log_rids):
            at[code][rid] = step
            if code >= _RETIRE_LENGTH:
                reason[rid] = _KIND_REASON[code][1]
        tl = Timeline()
        for rid in sorted(enqueued):
            lane = f"request-{rid}"
            enq = enqueued[rid]
            adm = admitted.get(rid, self._step)
            tl.record_instant(lane, enq, "enqueue")
            if adm > enq:
                tl.record(lane, enq, adm, "queued")
            if rid in admitted:
                end = retired.get(rid, self._step)
                tl.record(lane, adm, end + 1, "active")
            if rid in retired:
                tl.record_instant(lane, retired[rid] + 1,
                                  f"retire ({reason[rid]})")
        return tl
