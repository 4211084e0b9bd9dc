"""Functional generation serving: scheduler-driven continuous batching
with one batched forward per decode step.

Sec. IV-C1's dynamic-queue schedule exists because autoregressive
sequences *terminate independently*: a fixed-batch engine would idle on
finished sequences or stall new ones. This module is the functional
backend of that idea: request lifecycle (queueing, admission into
bounded slots, EOS/length retirement, admission policy) is owned by the
shared :class:`~repro.engine.scheduler.Scheduler` — the same object the
analytical :func:`~repro.engine.serving_sim.simulate_serving` replays —
while execution runs through a
:class:`~repro.model.ragged.RaggedDecoder`: every :meth:`step` decodes
the whole live batch in **one** model forward, and admissions prefill
together in one ragged pass. Each submit appends a row to the scheduler's
:class:`~repro.engine.scheduler.RequestTable`; scheduler and decoder key
requests by that row, so the decoder's row order is the session's only
record of the live batch.

KV memory is block-granular (Sec. IV-B): each request's cache is a
:class:`~repro.model.paged_kv.PagedKVCache` over one shared
:class:`~repro.model.paged_kv.BlockAllocator`, blocks are reserved at
admission (so the pool can never be oversubscribed) and returned the
moment a request retires. A reservation is the request's worst case,
recomputed from its prompt length and ``max_new_tokens`` when released.

Correctness contract (tested): every request's output equals running
``model.generate`` on that prompt alone, regardless of what else shares
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model.config import _as_index
from ..model.dense import DenseTransformer, check_tokens
from ..model.paged_kv import BlockAllocator, PagedKVCache, blocks_needed
from ..model.ragged import RaggedDecoder
from ..model.sampling import SamplingConfig, sample_next_token
from ..rng import SeedLike, as_generator
from .scheduler import RequestTable, Scheduler

__all__ = ["GenerationRequest", "GenerationSession"]

#: steps :meth:`GenerationSession.run` takes before it calls the run stuck
_MAX_RUN_STEPS = 10_000


@dataclass
class GenerationRequest:
    """One sequence moving through the session.

    ``session``/``tenant``/``turn`` metadata mirrors the trace
    :class:`~repro.engine.serving_sim.Request` fields;
    ``shared_prefix_len`` is the *declared* reusable prefix, while
    ``prefix_reused`` records what the engine actually inherited at
    admission (0 = full prefill). When a prefix was reused, ``prompt``
    holds the *adopted* prompt: its first ``prefix_reused`` tokens are
    the parked parent's actual context, which the shared KV blocks were
    computed from — the output contract (equal to solo generation) holds
    against this prompt.
    """

    request_id: int
    prompt: np.ndarray  # (seq,) int
    max_new_tokens: int
    generated: list[int] = field(default_factory=list)
    finish_reason: str | None = None
    session: int | None = None
    tenant: str | None = None
    shared_prefix_len: int = 0
    prefix_reused: int = 0

    @property
    def output_ids(self) -> np.ndarray:
        """Prompt + generated tokens."""
        return np.concatenate([self.prompt, np.array(self.generated, dtype=int)])


@dataclass
class _ParkedPrefix:
    """A retired session turn's cache, parked for the next turn to fork.

    ``tokens`` are exactly the positions the cache holds (the turn's
    prompt plus all generated tokens but the final one — that token is
    emitted, never appended); a forking child adopts ``tokens[:eff]`` as
    its prompt head so the aliased KV provably matches its prompt.
    ``charge`` is the pool-block footprint the parked cache keeps
    occupied, counted against admission headroom until the entry is
    consumed or evicted.
    """

    tokens: np.ndarray
    cache: object
    ctx: int
    charge: int


class GenerationSession:
    """Continuous-batching decoding over one functional model (greedy by
    default; pass a :class:`SamplingConfig` for stochastic decoding)."""

    def __init__(
        self,
        model: DenseTransformer,
        *,
        eos_token: int | None = None,
        max_concurrency: int = 8,
        sampling: SamplingConfig | None = None,
        seed: SeedLike = 0,
        policy: str | object = "fcfs",
        kv_block_size: int = 16,
        kv_pool_blocks: int | None = None,
        prefix_sharing: bool = False,
    ) -> None:
        """``policy`` picks the admission order (see
        :data:`~repro.engine.scheduler.ADMISSION_POLICIES`; a configured
        tenant-aware policy instance also works).

        ``kv_block_size``/``kv_pool_blocks`` shape the paged-KV pool
        (default pool: enough blocks for ``max_concurrency`` sequences of
        ``max_seq``).

        ``prefix_sharing`` keeps each session's most recent retired
        cache *parked* in the pool; the session's next turn (submitted
        with ``session=`` and ``shared_prefix_len=``) forks it —
        inheriting the shared prefix blocks by copy-on-write aliasing —
        and prefills only its unshared suffix. Parked blocks count
        against admission headroom and are evicted oldest-first under
        pool pressure."""
        self.model = model
        self.eos_token = eos_token
        self.max_concurrency = max_concurrency
        self.sampling = sampling or SamplingConfig(greedy=True)
        self.scheduler = Scheduler(max_concurrency, RequestTable(),
                                   policy=policy, eos_token=eos_token)
        self._rng = as_generator(seed)
        self._next_id = 0  # the next auto id: past every submitted id
        layers = model.config.layers
        per_seq = blocks_needed(model.config.max_seq,
                                block_size=kv_block_size, num_layers=layers)
        pool = (max_concurrency * per_seq if kv_pool_blocks is None
                else kv_pool_blocks)
        self.kv_allocator = BlockAllocator(pool)
        self.kv_block_size = kv_block_size
        self.decoder = RaggedDecoder(model, cache_factory=lambda: PagedKVCache(
            layers, self.kv_allocator, block_size=kv_block_size))
        self.prefix_sharing = prefix_sharing
        # session -> parked prefix, in park order (oldest first for
        # eviction); a session holds at most one parked turn.
        self._parked: dict[int, _ParkedPrefix] = {}
        self._parked_total = 0  # pool blocks held by parked caches
        self.prefix_hits = 0
        self.prefix_hit_tokens = 0
        self.kv_blocks_saved = 0
        self.prefix_evictions = 0
        self._reqs: list[GenerationRequest] = []  # by table row
        self._ids: set[int] = set()  # every submitted id
        self._reserved_total = 0  # blocks reserved by admitted requests
        self._finished: dict[int, GenerationRequest] = {}
        self.steps_run = 0
        self.tokens_generated = 0

    # -- request lifecycle ---------------------------------------------------

    def submit(self, prompt_ids, *, max_new_tokens: int,
               request_id: int | None = None, session: int | None = None,
               tenant: str | None = None,
               shared_prefix_len: int = 0) -> int:
        """Queue a request; returns its id.

        ``request_id`` lets a caller that already names its requests (the
        fleet layer routing a trace) keep its ids instead of the
        session-assigned ids, which continue past every submitted id;
        duplicates raise ``ValueError``. A submit that raises leaves the
        session unchanged.
        ``session``/``tenant`` tag the request for prefix sharing and
        tenant-aware admission; ``shared_prefix_len`` declares how many
        leading prompt tokens repeat the session's previous turn (the
        engine reuses at most that many, capped by what is actually
        parked — ignored unless the session was constructed with
        ``prefix_sharing=True``).
        """
        prompt = np.asarray(prompt_ids, dtype=int).ravel()
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        check_tokens(self.model.config, prompt, prompt.size)
        # ``< 1`` alone lets NaN and fractional counts through.
        max_new_tokens = _as_index("max_new_tokens", max_new_tokens)
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if not 0 <= shared_prefix_len < prompt.size:
            raise ValueError(
                "shared_prefix_len must satisfy 0 <= prefix < prompt length")
        if shared_prefix_len and session is None:
            raise ValueError("shared_prefix_len needs a session to share with")
        request_id = _as_index(
            "request_id", self._next_id if request_id is None else request_id)
        if request_id in self._ids:
            raise ValueError(f"request id {request_id} already submitted")
        req = GenerationRequest(
            request_id=request_id,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            session=session,
            tenant=tenant,
            shared_prefix_len=shared_prefix_len,
        )
        need = self._blocks_for(req)
        if need > self.kv_allocator.num_blocks:
            raise ValueError(
                f"request needs {need} KV blocks but the pool only has "
                f"{self.kv_allocator.num_blocks}; raise kv_pool_blocks "
                "or shorten prompt/max_new_tokens"
            )
        pos = self.scheduler.table.append(  # checks the id fits in int64
            request_id, prompt.size, max_new_tokens, tenant)
        self.scheduler.enqueue(pos)
        self._reqs.append(req)
        self._ids.add(request_id)
        self._next_id = max(self._next_id, request_id + 1)
        return request_id

    @property
    def num_active(self) -> int:
        """Sequences currently decoding."""
        return self.scheduler.num_active

    @property
    def num_waiting(self) -> int:
        """Requests queued for a slot."""
        return self.scheduler.num_waiting

    def result(self, request_id: int) -> GenerationRequest:
        """Fetch a finished request."""
        if request_id not in self._finished:
            raise KeyError(f"request {request_id} is not finished")
        return self._finished[request_id]

    # -- the engine loop -------------------------------------------------

    def _blocks_for(self, req: GenerationRequest) -> int:
        """Worst-case pool blocks the request can occupy (its cache never
        exceeds ``prompt + max_new_tokens`` positions, capped by max_seq)."""
        peak = min(req.prompt.size + req.max_new_tokens,
                   self.model.config.max_seq)
        return blocks_needed(peak, block_size=self.kv_block_size,
                             num_layers=self.model.config.layers)

    def _try_reserve(self, pos: int) -> bool:
        """Admission gate: reserve the request's worst-case blocks now, so
        candidates admitted in the same round see each other's claims.

        Parked prefix caches count against headroom too; under pressure
        they are evicted oldest-first (sparing, if possible, the parked
        turn this very request wants to fork) before admission is
        refused. The reservation is the *full* worst case even on a
        prefix hit: the fork transfers the prefix blocks to this request,
        so they end up inside its reservation, not on top of it.
        """
        req = self._reqs[pos]
        need = self._blocks_for(req)

        def headroom() -> int:
            return (self.kv_allocator.num_blocks
                    - self._reserved_total - self._parked_total)

        while need > headroom() and self._parked:
            own = req.session
            victim = next((s for s in self._parked if s != own), None)
            if victim is None:  # only our own parent left — correctness
                victim = own    # beats the hit; evict it and prefill fully
            entry = self._parked.pop(victim)
            entry.cache.free()
            self._parked_total -= entry.charge
            self.prefix_evictions += 1
        if need > headroom():
            return False
        self._reserved_total += need
        return True

    def _fork_prefix(self, req: GenerationRequest):
        """Consume the request's session's parked cache, if any: fork the
        shared prefix, adopt the parent's tokens under it, free the
        parent. Returns the forked child cache or ``None`` (full
        prefill)."""
        if (not self.prefix_sharing or req.session is None
                or not req.shared_prefix_len):
            return None
        parked = self._parked.pop(req.session, None)
        if parked is None:
            return None
        self._parked_total -= parked.charge
        eff = min(req.shared_prefix_len, parked.ctx)
        child = parked.cache.fork(eff)
        parked.cache.free()  # suffix blocks return; prefix now child-owned
        # Adopt the parent's actual context under the shared prefix: the
        # aliased KV was computed from exactly these tokens, so the
        # output contract (== solo generation on ``req.prompt``) holds.
        prompt = req.prompt.copy()
        prompt[:eff] = parked.tokens[:eff]
        req.prompt = prompt
        req.prefix_reused = eff
        self.prefix_hits += 1
        self.prefix_hit_tokens += eff
        self.kv_blocks_saved += blocks_needed(
            eff, block_size=self.kv_block_size,
            num_layers=self.model.config.layers)
        return child

    def _admit(self) -> list[int]:
        """Fill free slots per the scheduler's policy; prefill all
        admissions of a round together in one ragged forward (prefix
        hits prefill only their unshared suffix). Returns the ids of
        requests that finished on their first token."""
        finished: list[int] = []
        while True:
            admitted = self.scheduler.admit(can_admit=self._try_reserve)
            if not admitted:
                return finished
            reqs = [self._reqs[pos] for pos in admitted]
            prefixes = [self._fork_prefix(r) for r in reqs]
            try:
                logits = self.decoder.add_rows(
                    admitted, [r.prompt for r in reqs], prefixes=prefixes)
            except Exception:
                # add_rows frees every row cache (forked children
                # included) on failure; only the reservations remain.
                for req in reqs:
                    self._reserved_total -= self._blocks_for(req)
                raise
            finished += self._emit(admitted, sample_next_token(
                logits, self.sampling, self._rng))
            # Loop: same-step retirements (max_new_tokens == 1 / instant
            # EOS) free slots the queue can backfill immediately.

    @property
    def kv_blocks_in_use(self) -> int:
        """Pool blocks currently backing live sequences."""
        return self.kv_allocator.used_blocks

    @property
    def peak_kv_blocks(self) -> int:
        """High-water pool occupancy, parked prefix caches included."""
        return self.kv_allocator.peak_used

    @property
    def forward_calls(self) -> int:
        """Model forwards issued so far (prefills + one per decode step)."""
        return self.decoder.forward_calls

    def _emit(self, rows: list[int], tokens) -> list[int]:
        """Append one token to each row's request; retire those that
        finish and return their ids."""
        finished = []
        for pos, token in zip(rows, tokens.tolist()):
            req = self._reqs[pos]
            req.generated.append(token)
            self.tokens_generated += 1
            reason = self.scheduler.record_token(pos, token)
            if reason is not None:
                req.finish_reason = reason
                self._retire(pos)
                finished.append(req.request_id)
        return finished

    def _retire(self, pos: int) -> None:
        """Free the request's slot, row and KV memory.

        With prefix sharing on, a session-tagged request's cache is
        *parked* instead of freed — the session's next turn forks it —
        superseding any previous parked turn of the same session.
        """
        req = self._reqs[pos]
        if self.prefix_sharing and req.session is not None:
            cache = self.decoder.detach_row(pos)
            ctx = cache.seq_len()
            prev = self._parked.pop(req.session, None)
            if prev is not None:
                prev.cache.free()
                self._parked_total -= prev.charge
            charge = blocks_needed(ctx, block_size=self.kv_block_size,
                                   num_layers=self.model.config.layers)
            # The cache holds every token but the final emitted one.
            self._parked[req.session] = _ParkedPrefix(
                tokens=req.output_ids[:-1], cache=cache, ctx=ctx,
                charge=charge)
            self._parked_total += charge
        else:
            # Blocks return to the pool (Sec. IV-B pressure).
            self.decoder.drop_rows([pos])
        self._reserved_total -= self._blocks_for(req)
        self._finished[req.request_id] = req

    def step(self) -> list[int]:
        """Advance every live sequence one token; admit queued requests.

        The whole live batch decodes in **one** model forward, whatever
        its size. Returns the ids of requests that finished this step.
        """
        finished = self._admit()
        if self.decoder.batch:
            rows = self.decoder.row_ids
            logits = self.decoder.step(  # one batched forward
                [self._reqs[pos].generated[-1] for pos in rows])
            finished += self._emit(rows, sample_next_token(
                logits, self.sampling, self._rng))
        self.steps_run += 1
        self.scheduler.advance()
        finished += self._admit()  # backfill slots freed this step
        return sorted(finished)

    def run(self) -> dict[int, GenerationRequest]:
        """Step until every submitted request finishes."""
        steps = 0
        while self.scheduler.num_waiting or self.scheduler.num_active:
            self.step()
            steps += 1
            if steps > _MAX_RUN_STEPS:
                raise RuntimeError("generation did not terminate; check EOS "
                                   "and max_new_tokens settings")
        return dict(self._finished)
