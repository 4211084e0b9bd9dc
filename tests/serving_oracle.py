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
from repro.engine.scheduler import Scheduler
from repro.engine.serving_sim import ServingReport, WorkloadTrace
from repro.simcore.trace import Timeline


def batch_state_of(
    sched: Scheduler,
    *,
    exclude: int | None = None,
) -> BatchState:
    """The live batch's :class:`BatchState` as seen by the scheduler.

    Each active sequence's KV length is its prompt plus the tokens
    recorded so far; ``exclude`` drops one row (used to price a prompt
    pass against the *riders*, not the newcomer itself).
    """
    prompt = sched.table.prompt
    return BatchState.of(
        prompt[pos] + sched.generated(pos)
        for pos in sched.active if pos != exclude
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
    requests = trace.requests
    sched = Scheduler(max_batch, requests, policy=policy,
                      held=bytearray(len(requests)))
    timeline = Timeline()
    kv = _KvTracker(block_size=kv_block_size, num_layers=kv_num_layers,
                    prefix_sharing=prefix_sharing)
    cursor = 0  # arrival cursor: the next trace position to enqueue
    admit_at: dict[int, float] = {}
    now = 0.0
    finish: dict[int, float] = {}
    first: dict[int, float] = {}
    delays: dict[int, float] = {}
    total_tokens = 0

    def enqueue_arrived() -> None:
        nonlocal cursor
        while cursor < len(requests) and requests[cursor].arrival <= now:
            sched.enqueue(cursor)
            cursor += 1

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
            pos = admitted[0]
            r = requests[pos]
            rid = r.request_id
            delays[rid] = now - r.arrival
            start = now
            eff = kv._admit(pos, r.prompt_len, requests.session[pos],
                            r.shared_prefix_len)
            now += costs.prompt_cost(
                batch_state_of(sched, exclude=pos),
                PromptShape(r.prompt_len, shared_prefix_len=eff))
            label = (f"prefill r{rid} (+{eff} cached)" if eff
                     else f"prefill r{rid}")
            timeline.record("server", start, now, label)
            timeline.record(f"req-{rid}", r.arrival, start, "queued")
            admit_at[rid] = now
            first[rid] = now  # prompt pass yields token 1
            total_tokens += 1
            if sched.record_token(pos) is not None:
                finish[rid] = now
                kv._retire(pos, requests.session[pos])
                timeline.record(f"req-{rid}", start, now, "decode")
            enqueue_arrived()
        if not sched.num_active:
            continue
        # One decode iteration for every live sequence — priced once,
        # whatever the batch size (the batched-forward semantics).
        batch = sched.num_active
        start = now
        now += costs.decode_cost(batch_state_of(sched))
        timeline.record("server", start, now, f"decode x{batch}")
        total_tokens += batch
        kv.grow_all(1)  # every live cache appends this step's token
        for pos in sched.active:
            if sched.record_token(pos) is not None:
                r = requests[pos]
                finish[r.request_id] = now
                kv._retire(pos, requests.session[pos])
                timeline.record(f"req-{r.request_id}",
                                admit_at[r.request_id], now, "decode")
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
