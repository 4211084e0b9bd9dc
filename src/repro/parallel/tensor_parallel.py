"""Tensor (model) parallelism: Megatron-style sharded execution (Sec. IV-A).

Each transformer block splits across ``tp`` ranks:

* QKV projection — *column parallel*, sharded by attention heads so each
  rank computes attention for its own heads with no communication;
* attention output projection — *row parallel*: each rank holds the rows
  matching its heads and produces a partial sum; one all-reduce combines;
* FFN up-projection — column parallel (+ its bias and GeLU stay local);
* FFN down-projection — row parallel, second all-reduce.

Two all-reduces per layer, exactly as the paper (and Megatron-LM) state.
The functions here both *shard weights* and *execute* the sharded model
over the in-process communicator, and are tested to reproduce the dense
reference logits exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.functional import Communicator, spmd
from ..kernels.functional import (
    apply_rotary,
    gelu,
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from ..model.dense import DenseTransformer, LayerWeights
from ..model.kvcache import KVCache

__all__ = ["ShardedLayerWeights", "shard_layer", "tp_forward", "tp_spmd_forward"]


@dataclass
class ShardedLayerWeights:
    """One rank's slice of a transformer block under ``tp``-way slicing."""

    rank: int
    tp: int
    local_heads: int
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w_qkv: np.ndarray  # (h, 3h/tp) — this rank's heads for q, k and v
    b_qkv: np.ndarray
    w_out: np.ndarray  # (h/tp, h) — rows matching this rank's heads
    b_out: np.ndarray  # applied once (by convention after the all-reduce)
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_fc: np.ndarray  # (h, mult*h/tp)
    b_fc: np.ndarray
    w_proj: np.ndarray  # (mult*h/tp, h)
    b_proj: np.ndarray


def _head_columns(w: np.ndarray, heads: int, rank: int, tp: int) -> np.ndarray:
    """Columns of ``w`` belonging to ``rank``'s contiguous head block."""
    h_out = w.shape[1]
    head_dim = h_out // heads
    per_rank = heads // tp
    lo = rank * per_rank * head_dim
    hi = (rank + 1) * per_rank * head_dim
    return w[:, lo:hi]


def shard_layer(
    lw: LayerWeights, heads: int, rank: int, tp: int
) -> ShardedLayerWeights:
    """Slice one layer's weights for ``rank`` of ``tp``."""
    if tp < 1 or not 0 <= rank < tp:
        raise ValueError("need 0 <= rank < tp")
    if heads % tp:
        raise ValueError("heads must divide evenly across tensor-parallel ranks")
    h = lw.w_qkv.shape[0]
    wq, wk, wv = np.split(lw.w_qkv, 3, axis=1)
    bq, bk, bv = np.split(lw.b_qkv, 3)
    take_w = lambda w: _head_columns(w, heads, rank, tp)  # noqa: E731
    take_b = lambda b: _head_columns(b[None, :], heads, rank, tp)[0]  # noqa: E731
    rows = h // tp
    mult_h = lw.w_fc.shape[1]
    cols = mult_h // tp
    return ShardedLayerWeights(
        rank=rank,
        tp=tp,
        local_heads=heads // tp,
        ln1_g=lw.ln1_g,
        ln1_b=lw.ln1_b,
        w_qkv=np.concatenate([take_w(wq), take_w(wk), take_w(wv)], axis=1),
        b_qkv=np.concatenate([take_b(bq), take_b(bk), take_b(bv)]),
        w_out=lw.w_out[rank * rows : (rank + 1) * rows, :],
        b_out=lw.b_out,
        ln2_g=lw.ln2_g,
        ln2_b=lw.ln2_b,
        w_fc=lw.w_fc[:, rank * cols : (rank + 1) * cols],
        b_fc=lw.b_fc[rank * cols : (rank + 1) * cols],
        w_proj=lw.w_proj[rank * cols : (rank + 1) * cols, :],
        b_proj=lw.b_proj,
    )


def _tp_attention(
    x: np.ndarray,
    sw: ShardedLayerWeights,
    comm: Communicator,
    layer_idx: int,
    cache: KVCache | None,
    *,
    rotary: bool = False,
) -> np.ndarray:
    normed = layer_norm(x, sw.ln1_g, sw.ln1_b)
    qkv = linear(normed, sw.w_qkv, sw.b_qkv)
    q, k, v = np.split(qkv, 3, axis=-1)
    q, k, v = (split_heads(t, sw.local_heads) for t in (q, k, v))
    offset = 0
    if cache is not None:
        offset = cache.seq_len(layer_idx)
    if rotary:  # head-local rotation: sharding by heads commutes with RoPE
        q = apply_rotary(q, position_offset=offset)
        k = apply_rotary(k, position_offset=offset)
    if cache is not None:
        k, v = cache.append(layer_idx, k, v)
    ctx = scaled_dot_product_attention(q, k, v, causal=True, query_offset=offset)
    partial = merge_heads(ctx) @ sw.w_out  # row-parallel partial sum
    full = comm.allreduce(partial)  # the layer's first all-reduce
    return x + full + sw.b_out


def _tp_mlp(x: np.ndarray, sw: ShardedLayerWeights, comm: Communicator) -> np.ndarray:
    normed = layer_norm(x, sw.ln2_g, sw.ln2_b)
    inter = gelu(linear(normed, sw.w_fc, sw.b_fc))
    partial = inter @ sw.w_proj
    full = comm.allreduce(partial)  # the layer's second all-reduce
    return x + full + sw.b_proj


def tp_forward(
    comm: Communicator,
    model: DenseTransformer,
    token_ids: np.ndarray,
    cache: KVCache | None = None,
    *,
    layer_range: tuple[int, int] | None = None,
    hidden_in: np.ndarray | None = None,
    return_hidden: bool = False,
) -> np.ndarray:
    """Run ``model`` tensor-parallel on this rank.

    Every rank holds the full model object but uses only its shard of each
    layer (sharding is done on the fly; a real system would materialize
    only the shard — :func:`shard_layer` is also exposed for that).

    ``layer_range``/``hidden_in``/``return_hidden`` let pipeline stages
    reuse this as their stage-local executor.
    """
    cfg = model.config
    lo, hi = layer_range if layer_range is not None else (0, cfg.layers)
    if hidden_in is None:
        token_ids = np.atleast_2d(token_ids)
        pos0 = cache.seq_len(lo) if cache is not None else 0
        x = model.embed(token_ids, pos0)
    else:
        x = hidden_in
    rotary = cfg.pos_encoding == "rotary"
    for i in range(lo, hi):
        sw = shard_layer(model.layers[i], cfg.heads, comm.rank, comm.size)
        x = _tp_attention(x, sw, comm, i, cache, rotary=rotary)
        x = _tp_mlp(x, sw, comm)
    if return_hidden:
        return x
    x = layer_norm(x, model.lnf_g, model.lnf_b)
    return x @ model.wte.T


def tp_spmd_forward(
    tp: int, model: DenseTransformer, token_ids: np.ndarray
) -> np.ndarray:
    """Convenience: run :func:`tp_forward` across ``tp`` in-process ranks
    and return rank 0's logits (all ranks agree by construction)."""
    results = spmd(tp, tp_forward, model, token_ids)
    return results[0]
