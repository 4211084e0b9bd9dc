"""Throughput search: the best-batch sweep behind Fig. 8.

Sec. VII-C runs each system at "batch sizes that give the best
performance for each configuration". This module sweeps feasible batch
sizes (bounded by :func:`repro.engine.offload.max_batch_size`) and
returns the best-throughput operating point for a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .latency import DenseLatencyModel, LatencyReport, Workload
from .offload import kv_offload_stall_per_step, max_batch_size

__all__ = ["ThroughputPoint", "best_throughput", "candidate_batches"]


@dataclass(frozen=True)
class ThroughputPoint:
    """Best operating point found by the batch sweep.

    ``stall_per_step`` is the per-token PCIe stall from KV offloading
    (zero when the cache fits on-GPU); it is already included in
    :attr:`tokens_per_second`.
    """

    batch: int
    report: LatencyReport
    stall_per_step: float = 0.0

    @property
    def total_latency(self) -> float:
        """Workload latency including offload stalls."""
        return (
            self.report.total_latency
            + self.stall_per_step * self.report.workload.gen_tokens
        )

    @property
    def tokens_per_second(self) -> float:
        """Generated-token throughput at the chosen batch."""
        if self.total_latency <= 0:
            return 0.0
        return self.report.workload.generated_tokens / self.total_latency


def candidate_batches(max_batch: int) -> list[int]:
    """Power-of-two sweep up to ``max_batch`` (plus ``max_batch`` itself)."""
    if max_batch < 1:
        return []
    out = []
    b = 1
    while b <= max_batch:
        out.append(b)
        b *= 2
    if out[-1] != max_batch:
        out.append(max_batch)
    return out


def best_throughput(
    model: DenseLatencyModel,
    *,
    prompt_len: int,
    gen_tokens: int,
    offload_activations: bool = False,
    offload_scheme: str = "odd_even",
) -> ThroughputPoint:
    """Sweep batch sizes and return the highest-throughput point.

    ``offload_activations`` raises the feasible batch ceiling (Sec. IV-C2),
    but each offloaded step pays a PCIe round-trip for the overflow KV;
    the sweep includes that stall, so an interior optimum batch emerges.
    ``offload_scheme`` selects naive vs odd/even PCIe scheduling
    (Sec. IV-C3) — together these produce the Fig. 10b bars.
    """
    seq = prompt_len + gen_tokens
    cap = max_batch_size(
        model.config,
        model.cluster,
        tp=model.tp,
        pp=model.pp,
        seq_len=seq,
        offload_activations=offload_activations,
    )
    if cap < 1:
        raise ValueError(
            f"{model.config.name} cannot run even batch 1 on this deployment"
        )
    candidates = candidate_batches(cap)
    if offload_activations:
        # The GPU-resident ceiling is always a candidate: offloading must
        # never look worse than not offloading.
        resident_cap = max_batch_size(
            model.config, model.cluster, tp=model.tp, pp=model.pp,
            seq_len=seq, offload_activations=False,
        )
        if 1 <= resident_cap <= cap and resident_cap not in candidates:
            candidates = sorted(set(candidates) | {resident_cap})
    best: ThroughputPoint | None = None
    for b in candidates:
        report = model.estimate(Workload(batch=b, prompt_len=prompt_len,
                                         gen_tokens=gen_tokens))
        stall = 0.0
        if offload_activations:
            stall = kv_offload_stall_per_step(
                model.config,
                model.cluster,
                tp=model.tp,
                pp=model.pp,
                batch=b,
                seq_len=seq,
                step_time=report.token_latency,
                scheme=offload_scheme,
            )
        point = ThroughputPoint(batch=b, report=report, stall_per_step=stall)
        if best is None or point.tokens_per_second > best.tokens_per_second:
            best = point
    assert best is not None
    return best
