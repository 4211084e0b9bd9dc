"""Fleet-level deployment tuning: replicas x TP x max_batch under a
GPU budget and a tail-latency SLA.

The paper tunes one instance (TP/PP/batch, Sec. I); an operator sizing
a fleet holds a *GPU budget* and must split it between scale-up (more
GPUs per replica via TP: lower per-token latency, fewer replicas) and
scale-out (more replicas: more aggregate slots, more failure
isolation). :func:`tune_fleet_deployment` searches that split by
replaying the reference trace through :func:`~repro.fleet.sim
.simulate_fleet` for every candidate — optionally under a
:class:`~repro.fleet.faults.FaultPlan`, so the returned deployment can
be required to hold its SLA *through* a replica loss.

This is the one trace-level tuner. Its one-replica candidates are
single servers (a one-replica fleet simulates bit-for-bit like
:func:`~repro.engine.serving_sim.simulate_serving`), so its winner is
never worse than the best single server within the same budget. Every
candidate is priced at its live batches' true KV lengths, the model the
simulators run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.serving_sim import WorkloadTrace
from ..engine.throughput import candidate_batches
from ..engine.tuner import _check_sla, _serving_cost_candidates
from ..hardware.topology import ClusterSpec
from ..model.config import ModelConfig, _as_index
from .faults import FaultPlan
from .sim import simulate_fleet

__all__ = ["FleetTuningResult", "tune_fleet_deployment"]


@dataclass(frozen=True)
class FleetTuningResult:
    """Winning fleet deployment for one trace."""

    replicas: int
    tp: int
    max_batch: int
    routing: str
    tokens_per_second: float
    ttft_p99: float
    latency_p99: float
    num_gpus: int
    replication: int = 1  # expert replication factor (MoE, skewed traces)


def tune_fleet_deployment(
    config: ModelConfig,
    cluster: ClusterSpec,
    trace: WorkloadTrace,
    *,
    gpu_budget: int,
    ttft_sla: float | None = None,
    policy: str = "fcfs",
    fault_plan: FaultPlan | None = None,
) -> FleetTuningResult:
    """Search replicas x TP x max_batch for the best fleet throughput
    whose P99 time-to-first-token meets ``ttft_sla`` (seconds; ``None``
    = no bound) within ``gpu_budget`` GPUs.

    Each candidate prices every replica with a
    :class:`~repro.engine.costs.StepCostModel` — dense models a
    ``tp``-way :class:`~repro.engine.costs.DenseStepCost` (replicas are
    TP-only islands — decode pipelining is not priced at serving
    granularity), MoE models a
    :class:`~repro.engine.costs.MoEStepCost` over a Table II-shaped
    MP x EP deployment (``tp`` then reports the MP degree) — and
    replays ``trace`` through the fleet simulator under least-outstanding
    routing, the admission ``policy`` and the optional ``fault_plan``. The
    winner's numbers are exactly what :func:`~repro.fleet.sim
    .simulate_fleet` reports for that deployment priced the same way.
    Ties on throughput go to the cheaper deployment. Raises
    ``ValueError`` when nothing feasible meets the SLA.
    """
    if _as_index("gpu_budget", gpu_budget) < 1:
        raise ValueError("gpu_budget must be >= 1")
    _check_sla("ttft_sla", ttft_sla)
    seq = max(r.prompt_len + r.gen_tokens for r in trace.requests)

    best: FleetTuningResult | None = None
    for tp, gpus_per_replica, cap, costs, replication in (
            _serving_cost_candidates(
                config, cluster, max_gpus=gpu_budget, seq=seq,
                expert_skew=trace.expert_skew)):
        batches = tuple(candidate_batches(cap))
        for replicas in range(1, gpu_budget // gpus_per_replica + 1):
            if fault_plan is not None:
                try:
                    # Out-of-pool faults or no-survivor windows (net of
                    # recoveries) make this fleet size infeasible.
                    fault_plan.validate_against(replicas)
                except ValueError:
                    continue
            for max_batch in batches:
                rep = simulate_fleet(
                    trace, num_replicas=replicas, costs=costs,
                    max_batch=max_batch, policy=policy,
                    routing="least_outstanding", fault_plan=fault_plan,
                )
                ttft = rep.ttft_percentile(trace, 99)
                if ttft_sla is not None and ttft > ttft_sla:
                    continue
                cand = FleetTuningResult(
                    replicas=replicas, tp=tp, max_batch=max_batch,
                    routing="least_outstanding",
                    tokens_per_second=rep.tokens_per_second,
                    ttft_p99=ttft,
                    latency_p99=rep.latency_percentile(trace, 99),
                    num_gpus=replicas * gpus_per_replica,
                    replication=replication,
                )
                if best is None or (
                    (cand.tokens_per_second, -cand.num_gpus)
                    > (best.tokens_per_second, -best.num_gpus)
                ):
                    best = cand
    if best is None:
        raise ValueError(
            f"no fleet deployment of {config.name} on {cluster.name} meets "
            f"ttft_sla={ttft_sla} within {gpu_budget} GPUs"
        )
    return best
