"""Combined tensor + expert (+ data) parallel MoE execution — Fig. 4,
functionally.

DeepSpeed-MoE orchestrates three process groups over the same ranks
(Sec. V-A):

* **tensor-parallel groups** of size ``mp`` slice the attention (and any
  dense FFN) weights;
* **expert parallelism** spreads experts over all ranks, with each
  tensor-parallel group's *first* axis carrying distinct experts and the
  data replicated across the tensor ranks (which is precisely the
  replication PCC exploits, Sec. V-B);
* **data parallelism** replicates the non-expert parameters across the
  expert-parallel dimension at no communication cost.

:func:`hybrid_moe_block` runs one MoE transformer block under this
orchestration on the in-process communicator: attention is
tensor-parallel within the ``mp`` subgroup, then each tensor rank
dispatches tokens over the expert-parallel subgroup it belongs to (the
ranks sharing its tensor-slicing rank — PCC's subgroup). The test suite
verifies the result equals the single-process reference for every
(mp, ep) factorization of the world.
"""

from __future__ import annotations

import functools

import numpy as np

from ..comm.functional import Communicator
from ..model.dense import (DenseTransformer, attention_sublayer,
                           cached_attention, mlp_sublayer)
from ..model.moe import MoELayer
from .expert_parallel import ep_moe_forward
from .tensor_parallel import shard_layer

__all__ = ["HybridGroups", "make_hybrid_groups", "hybrid_moe_block"]


class HybridGroups:
    """The two sub-communicators of one rank under MP x EP orchestration."""

    def __init__(self, comm: Communicator, mp: int) -> None:
        if comm.size % mp:
            raise ValueError(
                f"mp={mp} must divide world size {comm.size}"
            )
        self.world = comm
        self.mp = mp
        self.ep = comm.size // mp
        # Ranks [k*mp, (k+1)*mp) form tensor-parallel group k.
        self.tp_comm = comm.split(color=("tp", comm.rank // mp))
        # Ranks sharing a tensor-slicing rank form one expert-parallel
        # group — exactly PCC's all-to-all subgroup (Sec. V-B).
        self.ep_comm = comm.split(color=("ep", comm.rank % mp))

    @property
    def tp_rank(self) -> int:
        """This rank's position within its tensor-parallel group."""
        return self.tp_comm.rank

    @property
    def ep_rank(self) -> int:
        """This rank's position within its expert-parallel group."""
        return self.ep_comm.rank


def make_hybrid_groups(comm: Communicator, mp: int) -> HybridGroups:
    """Build the MP/EP sub-communicators for this rank."""
    return HybridGroups(comm, mp)


def hybrid_moe_block(
    groups: HybridGroups,
    model: DenseTransformer,
    moe: MoELayer,
    layer_idx: int,
    x: np.ndarray,
    cache=None,
) -> np.ndarray:
    """One transformer block: TP attention + EP mixture-of-experts FFN.

    ``x`` is the (replicated) activation every rank holds — data
    parallelism replicates the batch across expert-parallel groups, and
    the tensor-parallel all-reduce keeps it replicated within each group.
    """
    cfg = model.config
    lw = model.layer_weights(layer_idx)
    sw = shard_layer(lw, cfg.heads, groups.tp_rank, groups.mp)
    attend = functools.partial(cached_attention(cfg, cache), layer_idx)
    x = attention_sublayer(x, sw, cfg.heads, attend, groups.tp_comm.allreduce)

    # MoE FFN: the activation is replicated across tensor ranks after the
    # attention all-reduce, so each tensor rank dispatches over only its
    # own expert-parallel subgroup (PCC's insight) and all arrive at the
    # same answer with no further synchronization.
    return mlp_sublayer(
        x, lw, functools.partial(ep_moe_forward, groups.ep_comm, moe))
