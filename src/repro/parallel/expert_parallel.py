"""Expert parallelism: distributed MoE dispatch over all-to-all (Sec. V-A).

Experts partition across ranks; every rank routes its own tokens (gating
is data-parallel and local), sends each token to the rank owning its
expert with an all-to-all, receives foreign tokens for its local experts,
applies the expert FFNs, and returns results with a second all-to-all.

Distribution must not change the math: the test suite checks each rank's
output equals running the full (single-process) MoE layer on that rank's
tokens.
"""

from __future__ import annotations

import numpy as np

from ..comm.functional import Communicator
from ..model.config import expert_partition
from ..model.dense import ffn
from ..model.moe import MoELayer

__all__ = ["ep_moe_forward", "expert_sliced_ffn"]


def expert_sliced_ffn(
    comm: Communicator, layer: MoELayer, expert: int, tokens: np.ndarray
) -> np.ndarray:
    """One expert's FFN tensor-sliced across ``comm`` — Table II's
    "expert-slicing" (Sec. V-A: expert parameters split like tensor
    slicing when a single expert exceeds one GPU's bandwidth budget).

    Column-shards the up-projection (GeLU stays local to the shard),
    row-shards the down-projection, and all-reduces the partial outputs —
    the same two-shard structure as a Megatron FFN, applied to one
    expert: the shared :func:`~repro.model.dense.ffn` over weight slices,
    reduced by the all-reduce.
    """
    if not 0 <= expert < layer.num_experts:
        raise IndexError(f"expert {expert} out of range")
    m = layer.w_fc.shape[2]
    if m % comm.size:
        raise ValueError(
            f"FFN width {m} not divisible by slicing degree {comm.size}"
        )
    cols = m // comm.size
    lo, hi = comm.rank * cols, (comm.rank + 1) * cols
    return ffn(tokens, layer.w_fc[expert][:, lo:hi], layer.b_fc[expert][lo:hi],
               layer.w_proj[expert][lo:hi, :], layer.b_proj[expert],
               comm.allreduce)


def _ep_dispatch(
    comm: Communicator,
    layer: MoELayer,
    x2d: np.ndarray,
    token_expert: np.ndarray,
    weights: np.ndarray,
    out2d: np.ndarray,
) -> None:
    """One dispatch/compute/combine round for a flat token->expert map.

    ``token_expert[t] == -1`` marks dropped tokens. Results accumulate
    into ``out2d`` scaled by ``weights`` (supports top-k accumulation).
    """
    parts = expert_partition(layer.num_experts, comm.size)
    starts = np.array([p.start for p in parts], dtype=np.int64)
    owner = np.where(
        token_expert >= 0,
        np.searchsorted(starts, token_expert, side="right") - 1,
        -1,
    )

    # Step 1+2 of Fig. 5: local split by destination rank, then all-to-all.
    send_tokens, send_experts, local_idx = [], [], []
    for dst in range(comm.size):
        idx = np.flatnonzero(owner == dst)
        local_idx.append(idx)
        send_tokens.append(x2d[idx])
        send_experts.append(
            (token_expert[idx] - starts[dst]).astype(np.int64)
        )
    recv_tokens = comm.alltoall(send_tokens)
    recv_experts = comm.alltoall(send_experts)

    # Local expert computation, preserving each source block's row order.
    replies = []
    for src in range(comm.size):
        toks = recv_tokens[src]
        exps = recv_experts[src]
        out = np.zeros_like(toks)
        for local_e in np.unique(exps) if len(exps) else []:
            sel = exps == local_e
            out[sel] = layer.expert_ffn(
                int(local_e) + int(starts[comm.rank]), toks[sel]
            )
        replies.append(out)

    # Return trip: the combine all-to-all.
    returned = comm.alltoall(replies)
    for dst in range(comm.size):
        idx = local_idx[dst]
        if idx.size:
            out2d[idx] += returned[dst] * weights[idx, None]


def ep_moe_forward(
    comm: Communicator, layer: MoELayer, x_local: np.ndarray, *, k: int = 1
) -> np.ndarray:
    """Run ``layer`` with experts sharded across ``comm``'s ranks.

    ``x_local`` is this rank's ``(tokens, hidden)`` (or ``(..., hidden)``)
    slice of the batch — the data parallelism of Sec. V-A that scales the
    non-expert computation "at no communication overhead". ``k > 1``
    routes each token to its top-k experts (one dispatch round per
    choice rank, weighted combine).
    """
    if comm.size > layer.num_experts:
        raise ValueError(
            f"cannot spread {layer.num_experts} experts over {comm.size} ranks"
        )
    shape = x_local.shape
    x2d = x_local.reshape(-1, shape[-1])
    out2d = np.zeros_like(x2d)

    if k == 1:
        gating = layer.route(x2d)
        weights = np.where(gating.dropped, 0.0, gating.gate_prob)
        _ep_dispatch(comm, layer, x2d, gating.token_expert, weights, out2d)
    else:
        gating = layer.route_topk(x2d, k)
        for choice in range(k):
            _ep_dispatch(
                comm,
                layer,
                x2d,
                gating.token_expert[:, choice],
                gating.gate_weight[:, choice],
                out2d,
            )
    return out2d.reshape(shape)
