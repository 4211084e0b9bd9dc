"""Functional dense GPT model: the reference the parallel engines must match.

A straightforward pre-LayerNorm GPT-2-style decoder in NumPy. It is the
semantic ground truth for the whole repo: tensor-parallel, pipeline-
parallel, quantized and fusion-reordered executions are all tested for
(near-)exact agreement with this model's logits, and KV-cached decoding
is tested against full recomputation.

The decoder is written once, as the pieces every functional executor
composes: :func:`attention_sublayer` (Fig. 1c's regions 1, 2 and 4 around
an executor-supplied attention core), :func:`ffn` and
:func:`mlp_sublayer` (region 3, the down-projection and the residual),
the layer loop :func:`run_layers` and the LM head :func:`lm_head`. Each
executor adds only what is its own: cache layout (ragged rows, paged
blocks), weight residency (layer streaming), sharding and collectives
(tensor and expert parallelism). Every GEMM runs through
:func:`~repro.kernels.functional.linear`.

Weights are float64 by default so equivalence tests are tight; pass
``np.float32`` to halve memory for bigger test models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..kernels.functional import (
    apply_rotary,
    bias_residual,
    fused_bias_gelu,
    fused_layernorm_qkv,
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from ..rng import SeedLike, as_generator
from .config import ModelConfig
from .kvcache import KVCache

__all__ = ["LayerWeights", "DenseTransformer", "init_layer_weights",
           "check_tokens", "attention_sublayer", "ffn", "mlp_sublayer",
           "cached_attention", "run_layers", "lm_head"]


@dataclass
class LayerWeights:
    """Parameters of one transformer block (shapes as in Fig. 1c)."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w_qkv: np.ndarray  # (h, 3h)
    b_qkv: np.ndarray
    w_out: np.ndarray  # (h, h)
    b_out: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_fc: np.ndarray  # (h, mult*h)
    b_fc: np.ndarray
    w_proj: np.ndarray  # (mult*h, h)
    b_proj: np.ndarray

    @property
    def num_params(self) -> int:
        """Element count across all tensors."""
        return sum(
            getattr(self, f).size for f in self.__dataclass_fields__
        )


def init_layer_weights(
    hidden: int, ffn_mult: int, rng: np.random.Generator, dtype=np.float64
) -> LayerWeights:
    """Small-variance random initialization (inference only; scale just
    needs to keep activations sane through many layers)."""
    s = 0.02

    def w(*shape):
        return (rng.standard_normal(shape) * s).astype(dtype)

    h = hidden
    return LayerWeights(
        ln1_g=np.ones(h, dtype=dtype),
        ln1_b=np.zeros(h, dtype=dtype),
        w_qkv=w(h, 3 * h),
        b_qkv=np.zeros(3 * h, dtype=dtype),
        w_out=w(h, h),
        b_out=np.zeros(h, dtype=dtype),
        ln2_g=np.ones(h, dtype=dtype),
        ln2_b=np.zeros(h, dtype=dtype),
        w_fc=w(h, ffn_mult * h),
        b_fc=np.zeros(ffn_mult * h, dtype=dtype),
        w_proj=w(ffn_mult * h, h),
        b_proj=np.zeros(h, dtype=dtype),
    )


def check_tokens(config: ModelConfig, token_ids, end: int) -> None:
    """The one input check of every decoder entry point: every id lies in
    the vocabulary, and ``end`` (the position after the last token) does
    not pass ``max_seq``."""
    token_ids = np.asarray(token_ids)
    if token_ids.max(initial=0) >= config.vocab or token_ids.min(initial=0) < 0:
        raise ValueError("token id out of vocabulary range")
    if end > config.max_seq:
        raise ValueError("sequence exceeds max_seq")


def attention_sublayer(x, lw: LayerWeights, heads: int, core, reduce=None):
    """Regions 1, 2 and 4 of Fig. 1c around the executor's attention core.

    Region 1 is the fused layer-norm + QKV GeMM + bias. The heads split at
    the width of ``lw.w_qkv``, so a tensor-parallel shard holding
    ``heads / tp`` heads' columns splits into exactly those. Region 2 is
    ``core(q, k, v)``: the executor's attention over its own cache layout,
    positions and masks. The merged context runs the output GeMM;
    ``reduce`` (a row-parallel shard's all-reduce) sums the partial
    products before region 4 adds the bias and the residual.
    """
    qkv = fused_layernorm_qkv(x, lw.ln1_g, lw.ln1_b, lw.w_qkv, lw.b_qkv)
    local_heads = heads * lw.w_qkv.shape[1] // (3 * lw.w_qkv.shape[0])
    q, k, v = (split_heads(t, local_heads) for t in np.split(qkv, 3, axis=-1))
    out = linear(merge_heads(core(q, k, v)), lw.w_out)
    if reduce is not None:
        out = reduce(out)
    return bias_residual(out, lw.b_out, x)


def ffn(x, w_fc, b_fc, w_proj, b_proj, reduce=None):
    """The position-wise FFN: up-projection GeMM, the bias + GeLU
    epilogue, down-projection GeMM, ``reduce`` over a row-parallel
    shard's partial sums, then the output bias. Dense layers and MoE
    experts run it alike; a column/row slice of the weights plus an
    all-reduce runs it sliced."""
    out = linear(fused_bias_gelu(linear(x, w_fc), b_fc), w_proj)
    if reduce is not None:
        out = reduce(out)
    return out + b_proj


def mlp_sublayer(x, lw: LayerWeights, experts, reduce=None):
    """Post-attention layer-norm, the FFN (or ``experts``, an MoE block
    over the normed tokens, in its place), and the residual."""
    normed = layer_norm(x, lw.ln2_g, lw.ln2_b)
    if experts is not None:
        return x + experts(normed)
    return x + ffn(normed, lw.w_fc, lw.b_fc, lw.w_proj, lw.b_proj, reduce)


def cached_attention(config: ModelConfig, cache: KVCache | None):
    """The decoder's attention core over an optional contiguous KV cache,
    as ``attend(layer_idx, q, k, v)``.

    New tokens sit after the cached ones: rotary positions rotate at the
    absolute offset (cached keys were rotated at their own positions
    once; the rotation is head-local, so head sharding commutes with it),
    the new K/V append to the cache, and the queries attend causally to
    the whole cache.
    """
    rotary = config.pos_encoding == "rotary"

    def attend(layer_idx, q, k, v):
        offset = cache.seq_len(layer_idx) if cache is not None else 0
        if rotary:
            q = apply_rotary(q, position_offset=offset)
            k = apply_rotary(k, position_offset=offset)
        if cache is not None:
            k, v = cache.append(layer_idx, k, v)
        return scaled_dot_product_attention(q, k, v, causal=True,
                                            query_offset=offset)

    return attend


def run_layers(model, x, layers, attend, reduce=None):
    """The one decoder layer loop: layers ``layers`` over activations
    ``x``, each reading its weights through ``model.layer_weights(i)`` (so
    a wrapper that streams or shards weights runs this same loop) and
    attending through ``attend(i, q, k, v)``. ``reduce`` is the
    row-parallel all-reduce of a tensor-parallel rank."""
    heads = model.config.heads
    for i in layers:
        lw = model.layer_weights(i)
        x = attention_sublayer(x, lw, heads, functools.partial(attend, i),
                               reduce)
        x = mlp_sublayer(x, lw, model.moe_layers.get(i), reduce)
    return x


def lm_head(model, x):
    """Final layer-norm, then the logits GeMM against the tied token
    embedding."""
    return linear(layer_norm(x, model.lnf_g, model.lnf_b), model.wte.T)


class DenseTransformer:
    """A runnable GPT-style decoder built from a :class:`ModelConfig`."""

    def __init__(
        self,
        config: ModelConfig,
        *,
        seed: SeedLike = 0,
        dtype=np.float64,
        moe_layers: dict | None = None,
    ) -> None:
        self.config = config
        self.dtype = dtype
        rng = as_generator(seed)
        h = config.hidden
        self.wte = (rng.standard_normal((config.vocab, h)) * 0.02).astype(dtype)
        self.wpe = (rng.standard_normal((config.max_seq, h)) * 0.01).astype(dtype)
        self.layers = [
            init_layer_weights(h, config.ffn_mult, rng, dtype)
            for _ in range(config.layers)
        ]
        self.lnf_g = np.ones(h, dtype=dtype)
        self.lnf_b = np.zeros(h, dtype=dtype)
        # Optional per-layer-index MoE blocks installed by repro.model.moe.
        self.moe_layers = moe_layers or {}

    def layer_weights(self, layer: int) -> LayerWeights:
        """Layer ``layer``'s weights: the one accessor :func:`run_layers`
        reads them through, so a wrapper that manages residency (a
        layer-streamed executor) or slices them (a tensor-parallel rank)
        runs the same loop."""
        return self.layers[layer]

    def embed(self, token_ids: np.ndarray, pos0: int = 0) -> np.ndarray:
        """Input activations of ``(batch, seq)`` ids placed at positions
        ``pos0..pos0+seq-1``: learned positions are added here, rotary
        ones are applied inside attention."""
        x = self.wte[token_ids]
        if self.config.pos_encoding == "learned":
            x = x + self.wpe[pos0 : pos0 + token_ids.shape[1]]
        return x

    # -- forward / generate ------------------------------------------------

    def forward(
        self, token_ids: np.ndarray, cache: KVCache | None = None
    ) -> np.ndarray:
        """Logits for ``(batch, seq)`` token ids; appends to ``cache``."""
        token_ids = np.atleast_2d(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        pos0 = cache.seq_len(0) if cache is not None else 0
        check_tokens(self.config, token_ids, pos0 + token_ids.shape[1])
        x = self.embed(token_ids, pos0)
        x = run_layers(self, x, range(self.config.layers),
                       cached_attention(self.config, cache))
        return lm_head(self, x)

    def generate(
        self, prompt_ids: np.ndarray, num_tokens: int, *, use_cache: bool = True
    ) -> np.ndarray:
        """Greedy decoding of ``num_tokens`` continuations per sequence."""
        if num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        prompt_ids = np.atleast_2d(prompt_ids)
        out = prompt_ids.copy()
        cache = KVCache(self.config.layers) if use_cache else None
        step_input = prompt_ids
        for _ in range(num_tokens):
            if use_cache:
                logits = self.forward(step_input, cache)
            else:
                logits = self.forward(out)
            nxt = logits[:, -1].argmax(axis=-1)[:, None]
            out = np.concatenate([out, nxt], axis=1)
            step_input = nxt
        return out
