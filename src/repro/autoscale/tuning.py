"""Sweep autoscaler knobs against one trace: ``tune_autoscaler``.

The offline companion to the online loop: given a workload trace and a
deployment cost model, grid-search the control knobs that actually move
the needle (control interval, overload watermark, sustain patience) and
pick the cheapest configuration that meets the TTFT SLO — ties broken
by tail latency. The sweep is exhaustive and deterministic; every
candidate's outcome comes back in the result table so a caller can plot
the trade-off rather than trust the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .controller import AutoscaleConfig

__all__ = ["AutoscaleCandidate", "AutoscaleTuningResult", "tune_autoscaler"]


@dataclass(frozen=True)
class AutoscaleCandidate:
    """One swept configuration and its simulated outcome."""

    config: AutoscaleConfig
    ttft_p99_s: float
    avg_replicas: float
    makespan: float
    meets_slo: bool
    num_actions: int


@dataclass(frozen=True)
class AutoscaleTuningResult:
    """Outcome of :func:`tune_autoscaler`."""

    best: AutoscaleCandidate
    candidates: tuple[AutoscaleCandidate, ...]

    @property
    def table(self) -> list[dict]:
        """Row-per-candidate summary (JSON-friendly)."""
        return [
            {
                "epoch_s": c.config.epoch_s,
                "queue_high_depth": c.config.queue_high_depth,
                "sustain_epochs": c.config.sustain_epochs,
                "ttft_p99_s": c.ttft_p99_s,
                "avg_replicas": c.avg_replicas,
                "meets_slo": c.meets_slo,
                "num_actions": c.num_actions,
            }
            for c in self.candidates
        ]


def tune_autoscaler(
    trace,
    base: AutoscaleConfig,
    *,
    costs,
    max_batch: int,
    num_replicas: int | None = None,
    epoch_grid: Sequence[float] | None = None,
    queue_high_grid: Sequence[float] | None = None,
    sustain_grid: Sequence[int] = (1, 2, 3),
) -> AutoscaleTuningResult:
    """Grid-search autoscaler knobs for ``trace`` under ``base``.

    Sweeps ``epoch_s`` x ``queue_high_depth`` x ``sustain_epochs``
    around the base config (grids default to scaled variants of the
    base values), simulating the fleet once per candidate. Preference
    order: meet the SLO, then fewest average replicas (GPU cost), then
    lowest P99 TTFT. ``num_replicas`` seeds the fleet (defaults to the
    budget floor). Every candidate admits FCFS and routes to the least
    outstanding replica.
    """
    # Local import: repro.fleet imports repro.autoscale at module level,
    # so the reverse edge must stay function-scoped.
    from ..fleet.sim import simulate_fleet

    if epoch_grid is None:
        epoch_grid = (0.5 * base.epoch_s, base.epoch_s, 2.0 * base.epoch_s)
    if queue_high_grid is None:
        queue_high_grid = (0.5 * base.queue_high_depth,
                           base.queue_high_depth,
                           2.0 * base.queue_high_depth)
    for name, grid in (("epoch_grid", epoch_grid),
                       ("queue_high_grid", queue_high_grid),
                       ("sustain_grid", sustain_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty; give at least one value")
    start_replicas = (base.min_replicas if num_replicas is None
                      else num_replicas)

    candidates: list[AutoscaleCandidate] = []
    for epoch_s in epoch_grid:
        for high_depth in queue_high_grid:
            for sustain in sustain_grid:
                cfg = replace(
                    base,
                    epoch_s=epoch_s,
                    queue_high_depth=high_depth,
                    queue_low_depth=min(base.queue_low_depth, high_depth),
                    sustain_epochs=sustain,
                )
                report = simulate_fleet(
                    trace,
                    num_replicas=start_replicas,
                    costs=costs,
                    max_batch=max_batch,
                    routing="least_outstanding",
                    autoscaler=cfg,
                )
                p99 = report.ttft_percentile(trace, 99.0)
                candidates.append(AutoscaleCandidate(
                    config=cfg,
                    ttft_p99_s=p99,
                    avg_replicas=report.avg_replicas,
                    makespan=report.makespan,
                    meets_slo=p99 <= base.ttft_slo_s,
                    num_actions=len(report.autoscale_log),
                ))

    best = min(
        candidates,
        key=lambda c: (not c.meets_slo, c.avg_replicas, c.ttft_p99_s))
    return AutoscaleTuningResult(best=best, candidates=tuple(candidates))
