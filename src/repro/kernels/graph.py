"""Build the operator chain of a transformer layer.

The chain mirrors Fig. 1(c): input layer-norm, QKV GeMM (+bias), head
transpose, attention (scores, softmax, context), output projection,
bias+residual, post-attention layer-norm, intermediate (4h) GeMM, GeLU,
output (4h -> h) GeMM, bias+residual. Every op carries its flops and byte
footprint so the cost model and the fusion partitioner can act on it.

Shapes are parameterized the way inference sees them (Sec. IV-B):

* ``batch`` sequences, each contributing ``tokens_per_seq`` *new* tokens
  this step (the full prompt during prompt processing, 1 during token
  generation),
* ``kv_len`` total attention span per sequence (prompt + generated so
  far) — the KV-cache read that training-oriented kernels do not model,
* ``tp_degree`` tensor-parallel ways: weights, heads and attention work
  divide by it; activations at region boundaries do not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import DType
from ..model.config import _as_index
from .ops import HEAD, HIDDEN, Op, OpKind, TOKEN

__all__ = ["LayerShape", "transformer_layer_ops", "moe_expert_ffn_ops"]


@dataclass(frozen=True)
class LayerShape:
    """Shape of one transformer-layer invocation on one tensor-parallel rank."""

    hidden: int
    heads: int
    batch: int
    tokens_per_seq: int
    kv_len: int
    dtype: DType = DType.FP16
    tp_degree: int = 1
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        for name in ("hidden", "heads", "batch", "tokens_per_seq", "kv_len",
                     "tp_degree", "ffn_mult"):
            _as_index(name, getattr(self, name))
        if min(self.hidden, self.heads, self.batch, self.tokens_per_seq) < 1:
            raise ValueError("hidden, heads, batch and tokens_per_seq must be >= 1")
        if self.kv_len < self.tokens_per_seq:
            raise ValueError("kv_len must include the tokens being processed")
        if self.hidden % self.heads:
            raise ValueError("hidden must be divisible by heads")
        if self.tp_degree < 1 or self.heads % self.tp_degree:
            raise ValueError("heads must be divisible by tp_degree")

    @property
    def tokens(self) -> int:
        """Total new tokens processed in this invocation."""
        return self.batch * self.tokens_per_seq

    @property
    def act_bytes(self) -> float:
        """Bytes of one full hidden-state activation tensor."""
        return self.tokens * self.hidden * self.dtype.itemsize

    @property
    def head_dim(self) -> int:
        """Per-head feature dimension."""
        return self.hidden // self.heads


def _gemm(
    name: str,
    shape: LayerShape,
    in_features: int,
    out_features: int,
    *,
    weight_dtype: DType | None = None,
    shard_out: bool = True,
) -> Op:
    """A linear layer GeMM on one TP rank.

    Megatron-style sharding (Sec. IV-A): column-parallel layers shard the
    output dimension, row-parallel layers shard the input dimension; both
    divide weights and flops by ``tp_degree``.
    """
    tp = shape.tp_degree
    wdtype = weight_dtype or shape.dtype
    w_bytes = in_features * out_features / tp * wdtype.itemsize
    t = shape.tokens
    local_out = out_features // tp if shard_out else out_features
    local_in = in_features if shard_out else in_features // tp
    # A row-parallel GeMM (shard_out=False) under TP emits *partial sums*
    # that an all-reduce must combine before any consumer runs, so its
    # downstream fusion is illegal (the paper's region 4, bias+residual,
    # is a separate kernel for exactly this reason).
    downstream_fusable = shard_out or tp == 1
    return Op(
        name=name,
        kind=OpKind.GEMM,
        flops=2.0 * t * in_features * out_features / tp,
        weight_bytes=w_bytes,
        act_in_bytes=t * local_in * shape.dtype.itemsize,
        act_out_bytes=t * local_out * shape.dtype.itemsize,
        tile_dims=frozenset({TOKEN, HIDDEN}),
        tile_local_dep=downstream_fusable,
    )


def transformer_layer_ops(shape: LayerShape, *, ffn: bool = True) -> list[Op]:
    """Operator chain of one dense transformer decoder layer (Fig. 1c).

    ``ffn=False`` stops after the post-attention layer-norm: the dense
    part of an MoE layer, whose FFN is the routed experts (Sec. V).
    """
    h, tp = shape.hidden, shape.tp_degree
    t = shape.tokens
    d = shape.dtype.itemsize
    local_heads = shape.heads // tp
    act = shape.act_bytes
    local_attn_act = t * (h // tp) * d

    ops: list[Op] = []

    ops.append(
        Op(
            "input_layernorm",
            OpKind.REDUCTION,
            flops=8.0 * t * h,
            weight_bytes=2 * h * d,
            act_in_bytes=act,
            act_out_bytes=act,
            tile_dims=frozenset({TOKEN}),
        )
    )
    ops.append(_gemm("qkv_gemm", shape, h, 3 * h))
    ops.append(
        Op(
            "qkv_bias",
            OpKind.ELEMENTWISE,
            flops=3.0 * t * h / tp,
            weight_bytes=3 * h / tp * d,
            act_in_bytes=3 * local_attn_act,
            act_out_bytes=3 * local_attn_act,
            tile_dims=frozenset({TOKEN, HIDDEN}),
        )
    )
    ops.append(
        Op(
            "head_transpose",
            OpKind.TRANSPOSE,
            flops=0.0,
            weight_bytes=0.0,
            act_in_bytes=3 * local_attn_act,
            act_out_bytes=3 * local_attn_act,
            tile_dims=frozenset({TOKEN, HEAD}),
        )
    )
    # Attention contractions: QK^T (t x kv per head) then scores @ V. The
    # KV-cache of kv_len tokens is re-read each step (Sec. II-d, IV-B).
    kv_bytes = 2.0 * shape.batch * shape.kv_len * (h // tp) * d
    score_elems = shape.batch * local_heads * shape.tokens_per_seq * shape.kv_len
    ops.append(
        Op(
            "attention_scores",
            OpKind.ATTENTION,
            flops=2.0 * shape.batch * local_heads * shape.tokens_per_seq
            * shape.kv_len * shape.head_dim,
            weight_bytes=0.0,
            act_in_bytes=local_attn_act + kv_bytes / 2,
            act_out_bytes=score_elems * d,
            tile_dims=frozenset({TOKEN, HEAD}),
        )
    )
    ops.append(
        Op(
            "softmax",
            OpKind.REDUCTION,
            flops=5.0 * score_elems,
            weight_bytes=0.0,
            act_in_bytes=score_elems * d,
            act_out_bytes=score_elems * d,
            tile_dims=frozenset({TOKEN, HEAD}),
        )
    )
    ops.append(
        Op(
            "attention_context",
            OpKind.ATTENTION,
            flops=2.0 * shape.batch * local_heads * shape.tokens_per_seq
            * shape.kv_len * shape.head_dim,
            weight_bytes=0.0,
            act_in_bytes=score_elems * d + kv_bytes / 2,
            act_out_bytes=local_attn_act,
            tile_dims=frozenset({TOKEN, HEAD}),
        )
    )
    ops.append(
        Op(
            "context_transpose",
            OpKind.TRANSPOSE,
            flops=0.0,
            weight_bytes=0.0,
            act_in_bytes=local_attn_act,
            act_out_bytes=local_attn_act,
            tile_dims=frozenset({TOKEN, HEAD}),
        )
    )
    ops.append(_gemm("attn_output_gemm", shape, h, h, shard_out=False))
    # The residual-sum output feeds two consumers (the next layer-norm and
    # the following residual hop), so it must materialize in HBM: no
    # downstream fusion (this is why bias+residual is its own region, the
    # paper's region 4).
    ops.append(
        Op(
            "attn_bias_residual",
            OpKind.ELEMENTWISE,
            flops=2.0 * t * h,
            weight_bytes=h * d,
            act_in_bytes=2 * act,  # projected output + residual stream
            act_out_bytes=act,
            tile_dims=frozenset({TOKEN, HIDDEN}),
            tile_local_dep=False,
        )
    )
    ops.append(
        Op(
            "post_attn_layernorm",
            OpKind.REDUCTION,
            flops=8.0 * t * h,
            weight_bytes=2 * h * d,
            act_in_bytes=act,
            act_out_bytes=act,
            tile_dims=frozenset({TOKEN}),
        )
    )
    if not ffn:
        return ops
    ops.append(_gemm("mlp_h_to_4h_gemm", shape, h, shape.ffn_mult * h))
    ops.append(
        Op(
            "gelu_bias",
            OpKind.ELEMENTWISE,
            flops=9.0 * t * shape.ffn_mult * h / tp,
            weight_bytes=shape.ffn_mult * h / tp * d,
            act_in_bytes=t * shape.ffn_mult * h / tp * d,
            act_out_bytes=t * shape.ffn_mult * h / tp * d,
            tile_dims=frozenset({TOKEN, HIDDEN}),
        )
    )
    ops.append(_gemm("mlp_4h_to_h_gemm", shape, shape.ffn_mult * h, h, shard_out=False))
    ops.append(
        Op(
            "mlp_bias_residual",
            OpKind.ELEMENTWISE,
            flops=2.0 * t * h,
            weight_bytes=h * d,
            act_in_bytes=2 * act,
            act_out_bytes=act,
            tile_dims=frozenset({TOKEN, HIDDEN}),
            tile_local_dep=False,
        )
    )
    return ops


def moe_expert_ffn_ops(shape: LayerShape, *, expert_slicing: int = 1) -> list[Op]:
    """Operator chain of one expert's FFN on one expert-parallel rank.

    Expert parameters may additionally be sliced ``expert_slicing`` ways
    ("expert-slicing", Sec. V-A / Table II); like tensor slicing it divides
    weights and flops.
    """
    if expert_slicing < 1:
        raise ValueError("expert_slicing must be >= 1")
    h = shape.hidden
    t = shape.tokens
    d = shape.dtype.itemsize
    es = expert_slicing
    f = shape.ffn_mult
    return [
        _gemm(
            "expert_h_to_4h",
            LayerShape(
                hidden=h,
                heads=shape.heads,
                batch=shape.batch,
                tokens_per_seq=shape.tokens_per_seq,
                kv_len=shape.kv_len,
                dtype=shape.dtype,
                tp_degree=es,
                ffn_mult=f,
            ),
            h,
            f * h,
        ),
        Op(
            "expert_gelu",
            OpKind.ELEMENTWISE,
            flops=9.0 * t * f * h / es,
            weight_bytes=f * h / es * d,
            act_in_bytes=t * f * h / es * d,
            act_out_bytes=t * f * h / es * d,
            tile_dims=frozenset({TOKEN, HIDDEN}),
        ),
        _gemm(
            "expert_4h_to_h",
            LayerShape(
                hidden=h,
                heads=shape.heads,
                batch=shape.batch,
                tokens_per_seq=shape.tokens_per_seq,
                kv_len=shape.kv_len,
                dtype=shape.dtype,
                tp_degree=es,
                ffn_mult=f,
            ),
            f * h,
            h,
            shard_out=False,
        ),
    ]
