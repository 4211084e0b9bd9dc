"""Deployment auto-tuning: pick TP/PP/batch/schedule for a workload.

The paper frames production inference as throughput maximization *under
a latency SLA* (Sec. I, "Throughput Challenges"). This tuner searches
the deployment space the paper's systems expose — tensor-parallel degree
(powers of two dividing the head count), pipeline depth, hybrid-schedule
prompt factor, and batch size — and returns the best throughput whose
per-token latency meets the SLA.

Trace-level tuning — replaying an arrival trace for every candidate and
optimizing sustained tokens/sec under a tail time-to-first-token SLA —
is :func:`repro.fleet.tuning.tune_fleet_deployment`, which also splits a
GPU budget between tensor-parallel scale-up and replica scale-out. This
module supplies its deployment candidates
(:func:`_serving_cost_candidates`), each priced by the same step-cost
model the simulators run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.topology import ClusterSpec
from ..model.config import ModelConfig, MoEParallelism, _as_index
from .costs import DenseStepCost, MoEStepCost
from .latency import DenseLatencyModel, Workload
from .moe import MoELatencyModel
from .offload import max_batch_size, moe_max_batch_size
from .throughput import candidate_batches

__all__ = [
    "TuningResult",
    "tune_dense_deployment",
]


@dataclass(frozen=True)
class TuningResult:
    """Winning configuration of one tuning run."""

    tp: int
    pp: int
    batch: int
    hybrid_prompt_factor: int
    token_latency: float
    tokens_per_second: float
    num_gpus: int


def _tp_candidates(config: ModelConfig, cluster: ClusterSpec, max_gpus: int):
    """Power-of-two TP degrees that divide the head count and fit one
    node — shared with the fleet tuner (:mod:`repro.fleet.tuning`)."""
    tp = 1
    while tp <= min(cluster.node.gpus_per_node, max_gpus):
        if config.heads % tp == 0:
            yield tp
        tp *= 2


def _moe_parallelism_candidates(
    config: ModelConfig, cluster: ClusterSpec, max_gpus: int
):
    """Table II-shaped deployments fitting ``max_gpus``: each tensor
    (MP) degree paired with the largest power-of-two expert-parallel
    degree ``>= mp`` the budget allows (``num_gpus = ep_degree``, the
    MP groups nest inside the EP ranks, Sec. V-A)."""
    for mp in _tp_candidates(config, cluster, max_gpus):
        ep, best_ep = 1, None
        while ep <= min(config.moe.num_experts, max_gpus):
            if ep >= mp:
                best_ep = ep
            ep *= 2
        if best_ep is None:
            continue
        par = MoEParallelism(mp_degree=mp, ep_degree=best_ep,
                             expert_slicing=1, num_gpus=best_ep)
        if par.num_gpus <= cluster.num_gpus:
            yield par


#: Expert replication factors the MoE sweep tries on skewed traces.
_REPLICATION_CANDIDATES = (1, 2, 4)


def _skewed_moe_costs(config, model, par, *, expert_skew: float, cap: int):
    """Yield ``(replication, costs)`` for one MoE deployment on a skewed
    trace: replication 1 prices the uniform placement under the skew's
    straggler ratio; higher factors replicate the hot experts
    (:func:`~repro.moe_placement.plan_placement`) and carry a prefetch
    hit rate calibrated against a short synthetic gate stream."""
    from ..moe_placement import (
        SkewedDispatchSpec,
        calibrated_dispatch,
        plan_placement,
        synthesize_gate_stream,
        uniform_placement,
        zipf_expert_probs,
    )

    num_experts = config.moe.num_experts
    top_k = config.moe.top_k
    probs = zipf_expert_probs(num_experts, expert_skew, seed=0)
    stream = synthesize_gate_stream(32, max(8, cap) * top_k, probs, seed=1)
    for replication in _REPLICATION_CANDIDATES:
        if replication > par.ep_degree:
            break
        if replication == 1:
            spec = SkewedDispatchSpec(
                probs=probs,
                placement=uniform_placement(num_experts, par.ep_degree),
                top_k=top_k,
            )
        else:
            plan = plan_placement(probs, par.ep_degree,
                                  replication=replication)
            spec = calibrated_dispatch(
                probs, plan, stream, top_k=top_k,
                expert_fetch_time=model.expert_fetch_time(),
            )
        yield replication, MoEStepCost(model, skew=spec)


def _check_sla(name: str, sla: float | None) -> None:
    """An SLA is ``None`` (no bound) or in ``(0, inf]``; NaN would pass
    every ``latency > sla`` test and so read as no bound."""
    if sla is not None and not 0 < sla <= math.inf:
        raise ValueError(f"{name} must be None or in (0, inf], got {sla!r}")


def _serving_cost_candidates(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    max_gpus: int,
    seq: int,
    expert_skew: float | None = None,
):
    """Yield ``(tp, num_gpus, batch_cap, costs, replication)`` candidates
    for :func:`repro.fleet.tuning.tune_fleet_deployment`.

    Dense models sweep TP priced by :class:`DenseStepCost`; MoE models
    sweep the MP degree of Table II-shaped deployments priced by
    :class:`MoEStepCost`, both at true KV lengths. When the trace
    declares an ``expert_skew``, each MoE deployment is additionally
    swept over expert replication factors with skew-aware dispatch
    pricing (the paper's uniform assumption is the ``replication=1``
    row).
    """
    if config.moe is None:
        for tp in _tp_candidates(config, cluster, max_gpus):
            cap = max_batch_size(config, cluster, tp=tp, pp=1, seq_len=seq)
            if cap < 1:
                continue
            model = DenseLatencyModel(config, cluster, tp=tp)
            yield tp, tp, cap, DenseStepCost(model), 1
    else:
        for par in _moe_parallelism_candidates(config, cluster, max_gpus):
            cap = moe_max_batch_size(config, cluster, par, seq_len=seq)
            if cap < 1:
                continue
            model = MoELatencyModel(config, cluster, par, optimized=True)
            if expert_skew is None:
                yield par.mp_degree, par.num_gpus, cap, MoEStepCost(model), 1
                continue
            for replication, costs in _skewed_moe_costs(
                    config, model, par, expert_skew=expert_skew, cap=cap):
                yield par.mp_degree, par.num_gpus, cap, costs, replication


def tune_dense_deployment(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    prompt_len: int,
    gen_tokens: int,
    latency_sla: float | None = None,
    max_gpus: int | None = None,
    hybrid_factors: tuple[int, ...] = (1, 2, 4),
) -> TuningResult:
    """Search TP x PP x batch x hybrid-factor for the best SLA-compliant
    throughput.

    ``latency_sla`` bounds the steady-state per-token latency in seconds
    (None = throughput-oriented, no bound). Raises ``ValueError`` when no
    feasible configuration exists.
    """
    if (_as_index("prompt_len", prompt_len) < 1
            or _as_index("gen_tokens", gen_tokens) < 1):
        raise ValueError("prompt_len and gen_tokens must be >= 1")
    _check_sla("latency_sla", latency_sla)
    max_gpus = cluster.num_gpus if max_gpus is None else max_gpus
    if _as_index("max_gpus", max_gpus) < 1:
        raise ValueError("max_gpus must be >= 1")
    seq = prompt_len + gen_tokens

    best: TuningResult | None = None
    for tp in _tp_candidates(config, cluster, max_gpus):
        for pp in range(1, max_gpus // tp + 1):
            if pp > config.layers:
                break
            cap = max_batch_size(config, cluster, tp=tp, pp=pp, seq_len=seq)
            if cap < 1:
                continue
            factors = hybrid_factors if pp > 1 else (1,)
            for hf in factors:
                model = DenseLatencyModel(
                    config, cluster, tp=tp, pp=pp, hybrid_prompt_factor=hf
                )
                for batch in candidate_batches(cap):
                    r = model.estimate(
                        Workload(batch=batch, prompt_len=prompt_len,
                                 gen_tokens=gen_tokens)
                    )
                    if latency_sla is not None and r.token_latency > latency_sla:
                        continue
                    cand = TuningResult(
                        tp=tp, pp=pp, batch=batch, hybrid_prompt_factor=hf,
                        token_latency=r.token_latency,
                        tokens_per_second=r.tokens_per_second,
                        num_gpus=tp * pp,
                    )
                    if best is None or (
                        cand.tokens_per_second > best.tokens_per_second
                    ):
                        best = cand
            # Deeper pipelines only pay once shallow ones stop fitting or
            # the SLA binds; keep searching — the space is small.
    if best is None:
        raise ValueError(
            f"no feasible deployment of {config.name} on {cluster.name} "
            f"meets the constraints (sla={latency_sla}, max_gpus={max_gpus})"
        )
    return best
