"""Inference pipeline schedules (Sec. IV-C1, Figs. 2 and 3), simulated.

Three schedules are modeled, all over the same discrete-event machinery
so their differences are purely the scheduling policy:

* **token-lockstep (baseline)** — Fig. 2a: generation proceeds at batch
  granularity; every micro-batch must finish token ``t`` before any
  starts token ``t+1``, re-incurring a fill/drain bubble of ``P - 1``
  stage-times per generated token.
* **dynamic queue (DeepSpeed)** — Fig. 2b: a micro-batch's next token is
  queued the moment its previous token leaves the last stage, amortizing
  a single fill/drain bubble over the entire generation.
* **hybrid** — Fig. 3: prompt processing (compute-bound, bubble-dominated)
  uses many micro-batches; token generation (bandwidth-bound, where each
  extra micro-batch re-reads all weights) uses few. Prompt micro-batches
  regroup into generation micro-batches at the phase boundary.

The stage-time inputs come from the kernel cost model (see
:mod:`repro.engine.latency`); this module is policy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simcore import (
    Acquire,
    Event,
    Release,
    Simulator,
    SlotResource,
    Timeline,
    Timeout,
    Wait,
)

__all__ = [
    "ScheduleKind",
    "ScheduleResult",
    "simulate_pipeline",
    "fill_drain_span",
    "dynamic_queue_span",
]


class ScheduleKind:
    """Names of the three schedules."""

    LOCKSTEP = "token-lockstep"
    DYNAMIC = "dynamic-queue"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one pipeline-schedule simulation."""

    kind: str
    timeline: Timeline
    makespan: float
    prompt_done: float
    num_stages: int

    @property
    def generation_time(self) -> float:
        """Time spent after the last prompt micro-batch drained."""
        return self.makespan - self.prompt_done

    def stage_utilization(self, stage: int) -> float:
        """Busy fraction of one stage over the makespan."""
        return self.timeline.utilization(f"stage{stage}")

    @property
    def mean_utilization(self) -> float:
        """Average stage utilization — 1 minus the bubble fraction."""
        return sum(
            self.stage_utilization(s) for s in range(self.num_stages)
        ) / self.num_stages


def fill_drain_span(num_stages: int, microbatches: int, stage_time: float) -> float:
    """Closed form for one fill/drain pass of M micro-batches over P stages."""
    return (num_stages + microbatches - 1) * stage_time


def dynamic_queue_span(
    num_stages: int, microbatches: int, tokens: int, stage_time: float
) -> float:
    """Closed form for dynamic-queue generation: one fill, then every stage
    processes M micro-batches per token back to back (when M >= P)."""
    rounds = tokens * max(microbatches, 1)
    return (rounds + num_stages - 1) * stage_time


def _per_stage(value, num_stages: int, name: str) -> list[float]:
    """Normalize a scalar or per-stage sequence of stage times."""
    if np_isscalar(value):
        times = [float(value)] * num_stages
    else:
        times = [float(v) for v in value]
        if len(times) != num_stages:
            raise ValueError(f"{name} must have one entry per stage")
    if not all(0 < t < math.inf for t in times):
        raise ValueError(f"{name} entries must be finite and positive")
    return times


def np_isscalar(value) -> bool:
    """True for plain numbers (sequence-vs-scalar dispatch)."""
    return isinstance(value, (int, float))


def simulate_pipeline(
    *,
    num_stages: int,
    prompt_microbatches: int,
    gen_microbatches: int,
    gen_tokens: int,
    prompt_stage_time,
    gen_stage_time,
    p2p_time: float = 0.0,
    lockstep_generation: bool = False,
) -> ScheduleResult:
    """Simulate prompt processing followed by token generation.

    ``prompt_microbatches`` and ``gen_microbatches`` may differ (hybrid
    scheduling); the former must be a multiple of the latter so prompt
    micro-batches regroup cleanly. ``lockstep_generation`` selects the
    baseline Fig. 2a policy. Stage times may be scalars (uniform stages)
    or per-stage sequences (uneven layer splits make stage times
    heterogeneous, and the slowest stage paces the pipeline).
    """
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if prompt_microbatches < 1 or gen_microbatches < 1:
        raise ValueError("micro-batch counts must be >= 1")
    if prompt_microbatches % gen_microbatches:
        raise ValueError(
            "prompt_microbatches must be a multiple of gen_microbatches"
        )
    if gen_tokens < 0:
        raise ValueError("gen_tokens must be >= 0")
    prompt_times = _per_stage(prompt_stage_time, num_stages, "prompt_stage_time")
    gen_times = _per_stage(gen_stage_time, num_stages, "gen_stage_time")

    sim = Simulator()
    timeline = Timeline()
    stages = [SlotResource(1, name=f"stage{s}") for s in range(num_stages)]

    prompt_done = [Event(f"prompt-{p}") for p in range(prompt_microbatches)]
    group = prompt_microbatches // gen_microbatches

    # Token-lockstep barrier machinery.
    round_done = [Event(f"round-{t}") for t in range(gen_tokens + 1)]
    finished_count = [0] * (gen_tokens + 1)
    prompt_finish_time = [0.0]

    def traverse(label: str, stage_times: list[float]):
        """Process fragment: move one micro-batch through all stages."""
        for s in range(num_stages):
            yield Acquire(stages[s])
            start = sim.now
            yield Timeout(stage_times[s])
            timeline.record(f"stage{s}", start, sim.now, label)
            yield Release(stages[s])
            if s < num_stages - 1 and p2p_time > 0:
                yield Timeout(p2p_time)

    def prompt_proc(p: int):
        yield from traverse(f"P{p}", prompt_times)
        prompt_finish_time[0] = max(prompt_finish_time[0], sim.now)
        sim.trigger(prompt_done[p])

    def gen_proc(g: int):
        # Wait for this generation micro-batch's prompt constituents.
        for p in range(g * group, (g + 1) * group):
            yield Wait(prompt_done[p])
        for t in range(gen_tokens):
            if lockstep_generation and t > 0:
                yield Wait(round_done[t - 1])
            yield from traverse(f"G{g}.t{t}", gen_times)
            finished_count[t] += 1
            if finished_count[t] == gen_microbatches:
                sim.trigger(round_done[t])

    for p in range(prompt_microbatches):
        sim.spawn(prompt_proc(p), name=f"prompt-{p}")
    for g in range(gen_microbatches):
        sim.spawn(gen_proc(g), name=f"gen-{g}")

    makespan = sim.run()
    kind = (
        ScheduleKind.LOCKSTEP
        if lockstep_generation
        else (
            ScheduleKind.HYBRID
            if prompt_microbatches != gen_microbatches
            else ScheduleKind.DYNAMIC
        )
    )
    return ScheduleResult(
        kind=kind,
        timeline=timeline,
        makespan=makespan,
        prompt_done=prompt_finish_time[0],
        num_stages=num_stages,
    )
