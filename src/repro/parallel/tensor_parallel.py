"""Tensor (model) parallelism: Megatron-style sharded execution (Sec. IV-A).

Each transformer block splits across ``tp`` ranks:

* QKV projection — *column parallel*, sharded by attention heads so each
  rank computes attention for its own heads with no communication;
* attention output projection — *row parallel*: each rank holds the rows
  matching its heads and produces a partial sum; one all-reduce combines;
* FFN up-projection — column parallel (+ its bias and GeLU stay local);
* FFN down-projection — row parallel, second all-reduce.

Two all-reduces per layer, exactly as the paper (and Megatron-LM) state.
:func:`shard_layer` slices one layer's weights for a rank, and
:func:`tp_forward` runs the dense model's own layer loop over those
slices with the all-reduce as its row-parallel reduction. At degree 1 the
logits equal the dense reference bit for bit; above it they differ only
by the all-reduce's re-association of the partial sums (tested to 1e-10).
"""

from __future__ import annotations

import numpy as np

from ..comm.functional import Communicator, spmd
from ..model.dense import (DenseTransformer, LayerWeights, cached_attention,
                           lm_head, run_layers)
from ..model.kvcache import KVCache

__all__ = ["shard_layer", "tp_forward", "tp_spmd_forward"]


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
) -> LayerWeights:
    """Slice one layer's weights for ``rank`` of ``tp``: this rank's
    heads' QKV columns (column parallel), the matching ``w_out`` rows
    (row parallel), and one ``tp``-th of the FFN's columns and rows. The
    norms and the two output biases stay whole; each bias is added once,
    after its all-reduce."""
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
    return LayerWeights(
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


class _RankShard:
    """``model`` as one tensor-parallel rank runs it: the same layer loop,
    with each layer's weights read through the model's accessor and
    sliced to this rank's shard."""

    def __init__(self, model, comm: Communicator) -> None:
        self.model = model
        self.comm = comm
        self.config = model.config
        self.moe_layers = model.moe_layers

    def layer_weights(self, layer: int) -> LayerWeights:
        return shard_layer(self.model.layer_weights(layer), self.config.heads,
                           self.comm.rank, self.comm.size)


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
    x = run_layers(_RankShard(model, comm), x, range(lo, hi),
                   cached_attention(cfg, cache), comm.allreduce)
    if return_hidden:
        return x
    return lm_head(model, x)


def tp_spmd_forward(
    tp: int, model: DenseTransformer, token_ids: np.ndarray
) -> np.ndarray:
    """Convenience: run :func:`tp_forward` across ``tp`` in-process ranks
    and return rank 0's logits (all ranks agree by construction)."""
    results = spmd(tp, tp_forward, model, token_ids)
    return results[0]
