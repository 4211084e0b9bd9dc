"""Full-deployment execution traces: what every GPU does, when.

The paper explains its schedules with timeline diagrams (Figs. 2, 3);
this module generates the equivalent for any dense deployment: one lane
per (stage, tensor-rank) GPU plus lanes for the TP all-reduce phases and
inter-stage transfers, built by replaying the deployment's workload
through the schedule simulator with per-component times from the latency
model. The result is a :class:`~repro.simcore.Timeline` — inspect it
programmatically or export Chrome/Perfetto JSON via ``to_chrome_trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcore import Timeline
from .latency import DenseLatencyModel, Workload

__all__ = ["DeploymentTrace", "trace_generation"]


@dataclass(frozen=True)
class DeploymentTrace:
    """A generated execution timeline plus its summary numbers."""

    timeline: Timeline
    makespan: float
    tp: int
    pp: int

    def gpu_lane(self, stage: int, tp_rank: int) -> str:
        """Lane name of one GPU."""
        return f"stage{stage}/tp{tp_rank}"

    def mean_gpu_utilization(self) -> float:
        """Average busy fraction across all GPU lanes."""
        lanes = [l for l in self.timeline.lanes() if l.startswith("stage")]
        if not lanes:
            return 0.0
        return sum(
            self.timeline.utilization(l, self.makespan) for l in lanes
        ) / len(lanes)

    def to_chrome_trace(self) -> list[dict]:
        """Perfetto/chrome://tracing events for the whole deployment."""
        return self.timeline.to_chrome_trace()


def trace_generation(
    model: DenseLatencyModel, workload: Workload
) -> DeploymentTrace:
    """Trace one prompt+generation workload on ``model``'s deployment.

    Every micro-batch pass through a stage becomes, on each of that
    stage's ``tp`` GPU lanes, a kernel span followed by an all-reduce
    span (when tp > 1); inter-stage hops appear on ``p2p`` lanes. The
    schedule is :meth:`DenseLatencyModel.pipeline_schedule`, the one the
    pipelined estimate reads, so the trace *is* the estimate, visualized.
    """
    pp, tp = model.pp, model.tp
    result, mb_batch, pmb_batch = model.pipeline_schedule(workload)

    # Expand each stage span onto its tp GPU lanes, splitting the span
    # into the kernel portion and the all-reduce portion.
    gk, gc = model.layer_time(mb_batch, 1,
                              workload.prompt_len + workload.gen_tokens)
    comm_frac_gen = gc / (gk + gc) if (gk + gc) > 0 else 0.0
    pk, pc = model.layer_time(pmb_batch, workload.prompt_len,
                              workload.prompt_len)
    comm_frac_prompt = pc / (pk + pc) if (pk + pc) > 0 else 0.0

    out = Timeline()
    for stage in range(pp):
        for span in result.timeline.spans(f"stage{stage}"):
            frac = comm_frac_prompt if span.label.startswith("P") else comm_frac_gen
            split = span.start + span.duration * (1.0 - frac)
            for r in range(tp):
                lane = f"stage{stage}/tp{r}"
                out.record(lane, span.start, split, f"{span.label}:kernels")
                if frac > 0:
                    out.record(lane, split, span.end, f"{span.label}:allreduce")
    # Inter-stage transfers: the gap between a micro-batch leaving stage s
    # and entering stage s+1 (when the schedule inserted p2p time).
    for stage in range(pp - 1):
        ups = result.timeline.spans(f"stage{stage}")
        downs = {
            s.label: s for s in result.timeline.spans(f"stage{stage + 1}")
        }
        for s in ups:
            d = downs.get(s.label)
            if d is not None and d.start > s.end:
                out.record(f"p2p{stage}->{stage + 1}", s.end,
                           min(d.start, s.end + (d.start - s.end)),
                           f"{s.label}:send")

    return DeploymentTrace(
        timeline=out, makespan=result.makespan, tp=tp, pp=pp
    )
