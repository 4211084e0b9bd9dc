"""Per-step reference oracle for :func:`repro.engine.simulate_serving`.

The serving loop prices whole decode stretches with one vectorized
``decode_run_cost`` call (:class:`repro.engine.replica._Replica`). This
module keeps the loop that compression replaced, written independently
of it: one Python round-trip per decode iteration, a ``BatchState``
rebuilt from the scheduler per pricing call, always-full timelines. The
equivalence tests (and the speed benchmark's baseline leg) hold
``simulate_serving`` bit-for-bit against it — report, scheduler event
log and timeline, including the prefix-sharing KV counters.
"""

from __future__ import annotations

from repro.engine.costs import BatchState, PromptShape, StepCostModel
from repro.engine.replica import _KvTracker
from repro.engine.scheduler import SchedRequest, Scheduler
from repro.engine.serving_sim import ServingReport, WorkloadTrace
from repro.simcore.trace import Timeline


def batch_state_of(
    sched: Scheduler,
    prompt_lens: dict[int, int],
    *,
    exclude: int | None = None,
) -> BatchState:
    """The live batch's :class:`BatchState` as seen by the scheduler.

    Each active sequence's KV length is its prompt plus the tokens
    recorded so far; ``exclude`` drops one request id (used to price a
    prompt pass against the *riders*, not the newcomer itself).
    """
    return BatchState.of(
        prompt_lens[rid] + sched.generated(rid)
        for rid in sched.active if rid != exclude
    )


def simulate_serving_reference(
    trace: WorkloadTrace,
    *,
    costs: StepCostModel,
    max_batch: int,
    policy: str = "fcfs",
    kv_block_size: int = 16,
    kv_num_layers: int = 1,
    prefix_sharing: bool = True,
) -> ServingReport:
    """Replay ``trace`` one decode iteration at a time; the arguments
    mean what they mean for ``simulate_serving``."""
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    plens = {r.request_id: r.prompt_len for r in trace.requests}
    sched = Scheduler(max_batch, policy=policy)
    timeline = Timeline()
    requests = trace.requests
    by_id = {r.request_id: r for r in requests}
    kv = _KvTracker(block_size=kv_block_size, num_layers=kv_num_layers,
                    prefix_sharing=prefix_sharing)
    cursor = 0  # arrival cursor: O(1) per drain, no per-call trace copy
    admit_at: dict[int, float] = {}
    now = 0.0
    finish: dict[int, float] = {}
    first: dict[int, float] = {}
    delays: dict[int, float] = {}
    total_tokens = 0

    def enqueue_arrived() -> None:
        nonlocal cursor
        while cursor < len(requests) and requests[cursor].arrival <= now:
            r = requests[cursor]
            cursor += 1
            sched.enqueue(SchedRequest(
                request_id=r.request_id,
                prompt_len=r.prompt_len,
                max_new_tokens=r.gen_tokens,
                arrival=r.arrival,
                tenant=r.tenant,
            ))

    while cursor < len(requests) or sched.num_waiting or sched.num_active:
        # Fast-forward to the next arrival when idle.
        if (not sched.num_active and not sched.num_waiting
                and cursor < len(requests)
                and requests[cursor].arrival > now):
            now = requests[cursor].arrival
        enqueue_arrived()
        # Admit one at a time, paying each prompt pass, so requests
        # arriving *during* a prompt pass can join this round's queue.
        while True:
            admitted = sched.admit(max_admit=1)
            if not admitted:
                break
            s = admitted[0]
            delays[s.request_id] = now - s.arrival
            start = now
            eff = kv.admit(by_id[s.request_id])
            shape = (PromptShape(s.prompt_len, shared_prefix_len=eff)
                     if eff else s)
            now += costs.prompt_cost(
                batch_state_of(sched, plens, exclude=s.request_id), shape)
            label = (f"prefill r{s.request_id} (+{eff} cached)" if eff
                     else f"prefill r{s.request_id}")
            timeline.record("server", start, now, label)
            timeline.record(f"req-{s.request_id}", s.arrival, start, "queued")
            admit_at[s.request_id] = now
            first[s.request_id] = now  # prompt pass yields token 1
            total_tokens += 1
            if sched.record_token(s.request_id) is not None:
                finish[s.request_id] = now
                kv.retire(by_id[s.request_id])
                timeline.record(f"req-{s.request_id}", start, now, "decode")
            enqueue_arrived()
        if not sched.num_active:
            continue
        # One decode iteration for every live sequence — priced once,
        # whatever the batch size (the batched-forward semantics).
        batch = sched.num_active
        start = now
        now += costs.decode_cost(batch_state_of(sched, plens))
        timeline.record("server", start, now, f"decode x{batch}")
        total_tokens += batch
        kv.grow_all(1)  # every live cache appends this step's token
        for rid in sched.active:
            if sched.record_token(rid) is not None:
                finish[rid] = now
                kv.retire(by_id[rid])
                timeline.record(f"req-{rid}", admit_at[rid], now, "decode")
        sched.advance()

    return ServingReport(
        makespan=now,
        finish_times=finish,
        first_token_times=first,
        queue_delays=delays,
        total_tokens=total_tokens,
        prefix_hits=kv.hits,
        prefix_hit_tokens=kv.hit_tokens,
        kv_blocks_allocated=kv.allocated,
        kv_blocks_saved=kv.saved_blocks,
        peak_kv_blocks=kv.peak_blocks,
        scheduler=sched,
        timeline=timeline,
    )
