"""Parallelism planning: fit a model onto a cluster (Sec. IV intro).

The paper's placement rules are explicit: tensor parallelism stays inside
the NVLink island of a node (Sec. IV-A); pipeline parallelism spans nodes
(Sec. IV-B); MoE models add expert parallelism per Table II. The planner
encodes those rules and the memory arithmetic that drives them, raising
a diagnosable error when a model cannot fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import DType
from ..hardware.topology import ClusterSpec
from ..model.config import ModelConfig

__all__ = ["ParallelPlan", "PlanError", "plan_dense", "memory_per_gpu"]


class PlanError(RuntimeError):
    """Raised when no feasible placement exists on the given cluster."""


@dataclass(frozen=True)
class ParallelPlan:
    """A dense-model placement: TP within nodes, PP across them."""

    tp: int
    pp: int
    gpus: int
    weight_bytes_per_gpu: float
    kv_bytes_per_gpu: float

    @property
    def memory_per_gpu(self) -> float:
        """Modeled steady-state footprint per GPU."""
        return self.weight_bytes_per_gpu + self.kv_bytes_per_gpu


def memory_per_gpu(
    config: ModelConfig,
    tp: int,
    pp: int,
    *,
    batch: int,
    seq_len: int,
) -> tuple[float, float]:
    """(FP16 weight bytes, KV bytes) per GPU for a TP x PP placement.

    Weights divide across both axes; the KV cache divides by TP (heads are
    sharded) and by PP (each stage caches only its layers).
    """
    if min(tp, pp, batch, seq_len) < 1:
        raise ValueError("tp, pp, batch and seq_len must be >= 1")
    weights = config.total_params * DType.FP16.itemsize / (tp * pp)
    # First stage also holds embeddings; amortize rather than special-case.
    kv = batch * seq_len * config.kv_bytes_per_token(DType.FP16) / (tp * pp)
    return weights, kv


def plan_dense(
    config: ModelConfig,
    cluster: ClusterSpec,
    *,
    batch: int = 1,
    seq_len: int = 2048,
) -> ParallelPlan:
    """Choose the smallest TP x PP placement that fits FP16 weights.

    Strategy, mirroring the paper: grow TP in powers of two up to the
    node size (aggregate bandwidth cuts latency, Sec. IV-A); if a full
    node still cannot hold the model, add pipeline stages node by node
    (Sec. IV-B).
    """
    per_gpu_budget = cluster.gpu.usable_bytes
    node_gpus = cluster.node.gpus_per_node

    # Attention heads shard across tensor ranks, so tp must divide them.
    tp_options = [t for t in (1, 2, 4, 8, 16, 32)
                  if t <= node_gpus and config.heads % t == 0]

    for tp in tp_options:
        w, kv = memory_per_gpu(config, tp, 1, batch=batch, seq_len=seq_len)
        if w + kv <= per_gpu_budget:
            return ParallelPlan(tp=tp, pp=1, gpus=tp,
                                weight_bytes_per_gpu=w, kv_bytes_per_gpu=kv)

    # A pipeline stage is one tensor-parallel group; small TP degrees allow
    # several stages per node (the paper's placements happen to be
    # node-aligned, but nothing requires it).
    tp = tp_options[-1]
    for pp in range(2, min(cluster.num_gpus // tp, config.layers) + 1):
        w, kv = memory_per_gpu(config, tp, pp, batch=batch, seq_len=seq_len)
        if w + kv <= per_gpu_budget:
            return ParallelPlan(tp=tp, pp=pp, gpus=tp * pp,
                                weight_bytes_per_gpu=w, kv_bytes_per_gpu=kv)

    need = config.param_bytes(DType.FP16) / 1e9
    have = cluster.aggregate_gpu_memory / 1e9
    raise PlanError(
        f"{config.name} ({need:.0f} GB of weights) does not fit on "
        f"{cluster.name} ({have:.0f} GB aggregate GPU memory) at batch "
        f"{batch}, seq {seq_len}"
    )
