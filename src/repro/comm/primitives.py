"""Alpha-beta cost models for the collectives DeepSpeed Inference relies on.

Sec. IV-A uses NCCL all-reduce for tensor parallelism; Sec. IV-C uses
point-to-point sends between pipeline stages; Sec. V uses all-to-all for
expert parallelism and all-gather inside the PCC optimization. The cost
model is the standard alpha-beta (latency-bandwidth) formulation:

* ring all-reduce of ``n`` bytes over ``p`` ranks moves ``2 (p-1)/p * n``
  bytes through each rank's slowest link in ``2 (p-1)`` latency steps;
* ring all-gather / reduce-scatter are each half of that;
* all-to-all exchanges a distinct ``n/p`` block with every peer — its
  latency term grows linearly with ``p`` (the O(p) the paper's PCC
  optimization attacks, Sec. V-B).

All functions take *total payload bytes per rank* and return seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import LinkSpec

__all__ = [
    "CollectiveCost",
    "p2p_time",
    "allreduce_time",
    "allgather_time",
    "reduce_scatter_time",
    "alltoall_time",
    "naive_alltoall_time",
]


@dataclass(frozen=True)
class CollectiveCost:
    """Breakdown of a collective's modeled execution time."""

    latency_term: float
    bandwidth_term: float

    @property
    def total(self) -> float:
        """End-to-end time in seconds."""
        return self.latency_term + self.bandwidth_term


def _check(nbytes: float, ranks: int) -> None:
    if not 0 <= nbytes < math.inf:
        raise ValueError("nbytes must be finite and >= 0")
    if ranks < 1:
        raise ValueError("ranks must be >= 1")


def p2p_time(link: LinkSpec, nbytes: float) -> float:
    """Point-to-point send of ``nbytes`` (pipeline stage boundary)."""
    _check(nbytes, 1)
    return link.transfer_time(nbytes)


def allreduce_time(link: LinkSpec, nbytes: float, ranks: int) -> CollectiveCost:
    """Ring all-reduce (reduce-scatter + all-gather)."""
    _check(nbytes, ranks)
    if ranks == 1:
        return CollectiveCost(0.0, 0.0)
    steps = 2 * (ranks - 1)
    moved = 2.0 * (ranks - 1) / ranks * nbytes
    return CollectiveCost(steps * link.latency, moved / link.bandwidth)


def allgather_time(link: LinkSpec, nbytes: float, ranks: int) -> CollectiveCost:
    """Ring all-gather; ``nbytes`` is the resulting full-tensor size."""
    _check(nbytes, ranks)
    if ranks == 1:
        return CollectiveCost(0.0, 0.0)
    steps = ranks - 1
    moved = (ranks - 1) / ranks * nbytes
    return CollectiveCost(steps * link.latency, moved / link.bandwidth)


def reduce_scatter_time(link: LinkSpec, nbytes: float, ranks: int) -> CollectiveCost:
    """Ring reduce-scatter; ``nbytes`` is the pre-reduction full size."""
    # Same data-movement structure as all-gather, reversed.
    return allgather_time(link, nbytes, ranks)


def alltoall_time(link: LinkSpec, nbytes: float, ranks: int) -> CollectiveCost:
    """Pairwise-exchange all-to-all of ``nbytes`` held per rank.

    Each rank exchanges a distinct ``nbytes / p`` block with each of the
    ``p - 1`` peers; with pairwise scheduling the latency term is
    ``(p - 1) * alpha`` — linear in ``p``, which is exactly the scaling
    bottleneck Sec. V-B identifies for expert parallelism at hundreds of
    GPUs.
    """
    _check(nbytes, ranks)
    if ranks == 1:
        return CollectiveCost(0.0, 0.0)
    steps = ranks - 1
    moved = (ranks - 1) / ranks * nbytes
    return CollectiveCost(steps * link.latency, moved / link.bandwidth)


def naive_alltoall_time(
    link: LinkSpec, nbytes: float, ranks: int, *, overhead_per_peer: float
) -> CollectiveCost:
    """All-to-all issued as p-1 individual send/recv pairs from a framework
    loop (the PyTorch-MoE baseline of Sec. VII-A1), with per-peer launch and
    framework overhead on top of the wire alpha."""
    _check(nbytes, ranks)
    if ranks == 1:
        return CollectiveCost(0.0, 0.0)
    steps = ranks - 1
    moved = (ranks - 1) / ranks * nbytes
    return CollectiveCost(
        steps * (link.latency + overhead_per_peer), moved / link.bandwidth
    )
