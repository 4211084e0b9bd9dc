"""Inference pipeline schedules (Sec. IV-C1, Figs. 2 and 3), timed.

Three schedules are modeled, all by the same first-in-first-out stage
recurrence, so their differences are purely the scheduling policy:

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

import numpy as np

from ..model.config import _as_index
from ..simcore import Timeline

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
    """Outcome of one timed pipeline schedule."""

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
    if np.ndim(value) == 0:
        times = [float(value)] * num_stages
    else:
        times = [float(v) for v in value]
        if len(times) != num_stages:
            raise ValueError(f"{name} must have one entry per stage")
    if not all(0 < t < math.inf for t in times):
        raise ValueError(f"{name} entries must be finite and positive")
    return times


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
    """Time prompt processing followed by token generation.

    ``prompt_microbatches`` and ``gen_microbatches`` may differ (hybrid
    scheduling); the former must be a multiple of the latter so prompt
    micro-batches regroup cleanly. ``lockstep_generation`` selects the
    baseline Fig. 2a policy. Stage times may be scalars (uniform stages)
    or per-stage sequences (uneven layer splits make stage times
    heterogeneous, and the slowest stage paces the pipeline).
    ``p2p_time`` is paid between consecutive stages.
    """
    for name, count in (("num_stages", num_stages),
                        ("prompt_microbatches", prompt_microbatches),
                        ("gen_microbatches", gen_microbatches),
                        ("gen_tokens", gen_tokens)):
        _as_index(name, count)
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
    if not 0 <= p2p_time < math.inf:
        raise ValueError("p2p_time must be finite and >= 0")
    prompt_times = _per_stage(prompt_stage_time, num_stages, "prompt_stage_time")
    gen_times = _per_stage(gen_stage_time, num_stages, "gen_stage_time")

    # Every stage serves micro-batches first in, first out, stage times
    # are positive and every micro-batch visits the stages in order, so
    # none overtakes another: the service order is fixed before timing.
    # All prompts enter stage 0 at t=0, before any generation micro-batch
    # is ready. A micro-batch's next token enters stage 0 only after its
    # previous token leaves the last stage, which puts it behind every
    # earlier entry; so generation runs round-robin, token by token.
    # Bubbles come out of the ``max`` terms below.
    timeline = Timeline()
    free = [0.0] * num_stages  # when each stage finishes its last entry

    def traverse(label: str, t: float, stage_times: list[float]) -> float:
        """Pass one micro-batch ready at ``t`` through every stage and
        return when it leaves the last one."""
        for s, stage_time in enumerate(stage_times):
            if s:
                t += p2p_time
            start = max(t, free[s])
            t = free[s] = start + stage_time
            timeline.record(f"stage{s}", start, t, label)
        return t

    prompt_finish = [traverse(f"P{p}", 0.0, prompt_times)
                     for p in range(prompt_microbatches)]
    group = prompt_microbatches // gen_microbatches
    ready = [max(prompt_finish[g * group:(g + 1) * group])
             for g in range(gen_microbatches)]
    for t in range(gen_tokens):
        if lockstep_generation and t > 0:
            ready = [max(ready)] * gen_microbatches  # the round's barrier
        ready = [traverse(f"G{g}.t{t}", r, gen_times)
                 for g, r in enumerate(ready)]

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
        makespan=max(free),
        prompt_done=max(prompt_finish),
        num_stages=num_stages,
    )
