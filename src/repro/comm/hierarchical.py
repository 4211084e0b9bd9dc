"""Topology-aware collectives over NVLink islands joined by InfiniBand.

Modern clusters have a two-level network (Sec. I, Sec. II-c): fast
NVLink/NVSwitch inside a node, slower InfiniBand across nodes. NCCL
exploits this with hierarchical algorithms; the planner needs their cost
to decide where tensor parallelism stops being profitable (Sec. IV-A
confines TP to a node for exactly this reason).

The hierarchical all-reduce decomposes into: intra-node reduce-scatter,
inter-node all-reduce of the 1/g shard, intra-node all-gather.
"""

from __future__ import annotations

from ..hardware.topology import ClusterSpec
from .primitives import (
    CollectiveCost,
    allgather_time,
    allreduce_time,
    reduce_scatter_time,
)

__all__ = ["CommGroup", "hierarchical_allreduce_time"]


class CommGroup:
    """A set of global ranks participating in one collective.

    Splits the group into its intra-node and inter-node structure against
    a :class:`ClusterSpec` so cost models can pick per-level links.
    """

    def __init__(self, cluster: ClusterSpec, ranks: list[int]) -> None:
        if not ranks:
            raise ValueError("a communication group needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in group")
        self.cluster = cluster
        self.ranks = sorted(ranks)
        self.devices = [cluster.device(r) for r in self.ranks]
        nodes: dict[int, int] = {}
        for d in self.devices:
            nodes[d.node] = nodes.get(d.node, 0) + 1
        self._per_node = nodes

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.ranks)

    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes the group spans."""
        return len(self._per_node)

    @property
    def is_single_node(self) -> bool:
        """True when the whole group shares NVLink."""
        return self.num_nodes == 1

    @property
    def is_balanced(self) -> bool:
        """True when every spanned node contributes the same rank count."""
        counts = set(self._per_node.values())
        return len(counts) == 1

    @property
    def ranks_per_node(self) -> int:
        """Group ranks per node (requires a balanced group)."""
        if not self.is_balanced:
            raise ValueError("group is not balanced across nodes")
        return next(iter(self._per_node.values()))


def hierarchical_allreduce_time(group: CommGroup, nbytes: float) -> CollectiveCost:
    """All-reduce of ``nbytes`` over ``group`` using the 2-level algorithm."""
    cluster = group.cluster
    if group.size == 1:
        return CollectiveCost(0.0, 0.0)
    if group.is_single_node:
        return allreduce_time(cluster.node.intra_link, nbytes, group.size)
    if not group.is_balanced:
        raise ValueError("hierarchical all-reduce requires a balanced group")
    g = group.ranks_per_node
    n_nodes = group.num_nodes
    intra = cluster.node.intra_link
    inter = cluster.inter_link
    rs = reduce_scatter_time(intra, nbytes, g)
    # Each rank owns a 1/g shard for the inter-node phase.
    ar = allreduce_time(inter, nbytes / g, n_nodes)
    ag = allgather_time(intra, nbytes, g)
    return CollectiveCost(
        rs.latency_term + ar.latency_term + ag.latency_term,
        rs.bandwidth_term + ar.bandwidth_term + ag.bandwidth_term,
    )
