"""PCC: Parallelism Coordinated Communication for MoE (Sec. V-B).

When tensor parallelism (degree ``L``) and expert parallelism coexist,
the all-reduce of tensor slicing leaves activations *replicated* across
the L tensor-parallel ranks. PCC exploits that replication: instead of an
all-to-all over all ``p`` expert-parallel GPUs (latency O(p)), each
tensor-slicing rank runs an all-to-all only within the ``p / L`` devices
that share its slicing rank. When the expert-parallel operator is
followed by a tensor-sliced operator, an intra-MP all-gather (O(L))
re-replicates the result:

* TP -> EP direction:  O(p)            ->  O(p / L)
* EP -> TP direction:  O(p)            ->  O(p / L) + O(L)

The paper's example: 128 GPUs with 8-way tensor slicing cuts the
all-to-all latency constant from ``128 C1 + C2`` to ``16 C1 + C2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.topology import ClusterSpec
from .primitives import CollectiveCost, allgather_time, alltoall_time

__all__ = ["PCCCost", "pcc_alltoall", "baseline_alltoall"]

# One local split/transform kernel (steps 1 and 4 in Fig. 5): fused
# on-GPU data-layout work, effectively constant.
_TRANSFORM_TIME = 2e-6


@dataclass(frozen=True)
class PCCCost:
    """Cost breakdown of one expert dispatch/combine communication."""

    alltoall: CollectiveCost
    allgather: CollectiveCost
    local_transform: float

    @property
    def total(self) -> float:
        """End-to-end seconds."""
        return self.alltoall.total + self.allgather.total + self.local_transform


def _validate(total_ranks: int, tp_degree: int) -> None:
    if tp_degree < 1:
        raise ValueError("tp_degree must be >= 1")
    if total_ranks < 1:
        raise ValueError("total_ranks must be >= 1")
    if total_ranks % tp_degree:
        raise ValueError(
            f"tp_degree {tp_degree} must divide total ranks {total_ranks}"
        )


def baseline_alltoall(
    cluster: ClusterSpec, nbytes: float, total_ranks: int
) -> PCCCost:
    """Plain all-to-all over every expert-parallel GPU — the O(p) scheme."""
    _validate(total_ranks, 1)
    link = (
        cluster.node.intra_link
        if total_ranks <= cluster.node.gpus_per_node
        else cluster.inter_link
    )
    a2a = alltoall_time(link, nbytes, total_ranks)
    return PCCCost(a2a, CollectiveCost(0.0, 0.0), 0.0)


def pcc_alltoall(
    cluster: ClusterSpec,
    nbytes: float,
    total_ranks: int,
    tp_degree: int,
    *,
    direction: str = "tp_to_ep",
) -> PCCCost:
    """PCC-optimized all-to-all.

    Parameters
    ----------
    nbytes:
        Per-rank payload (the replicated activation block).
    total_ranks:
        All GPUs participating in expert parallelism (``p``).
    tp_degree:
        Tensor-slicing degree (``L``); the all-to-all shrinks to
        ``p / L`` participants.
    direction:
        ``"tp_to_ep"`` (expert dispatch after a tensor-sliced operator; no
        all-gather needed) or ``"ep_to_tp"`` (combine before a
        tensor-sliced operator; requires the intra-MP all-gather).

    Either direction runs two local transform kernels.
    """
    _validate(total_ranks, tp_degree)
    if direction not in ("tp_to_ep", "ep_to_tp"):
        raise ValueError(f"unknown direction {direction!r}")

    sub_ranks = total_ranks // tp_degree
    sub_link = (
        cluster.node.intra_link
        if sub_ranks <= cluster.node.gpus_per_node
        else cluster.inter_link
    )
    # Each subgroup member exchanges 1/L of the replicated payload.
    a2a = alltoall_time(sub_link, nbytes / tp_degree, sub_ranks)

    if direction == "ep_to_tp" and tp_degree > 1:
        # Re-replicate across the (intra-node) tensor-parallel group.
        ag = allgather_time(cluster.node.intra_link, nbytes, tp_degree)
    else:
        ag = CollectiveCost(0.0, 0.0)

    return PCCCost(a2a, ag, 2 * _TRANSFORM_TIME)
