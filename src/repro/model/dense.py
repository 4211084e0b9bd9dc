"""Functional dense GPT model: the reference the parallel engines must match.

A straightforward pre-LayerNorm GPT-2-style decoder in NumPy. It is the
semantic ground truth for the whole repo: tensor-parallel, pipeline-
parallel, quantized and fusion-reordered executions are all tested for
(near-)exact agreement with this model's logits, and KV-cached decoding
is tested against full recomputation.

Weights are float64 by default so equivalence tests are tight; pass
``np.float32`` to halve memory for bigger test models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.functional import (
    apply_rotary,
    bias_residual,
    gelu,
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from ..rng import SeedLike, as_generator
from .config import ModelConfig
from .kvcache import KVCache

__all__ = ["LayerWeights", "DenseTransformer", "init_layer_weights"]


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

    # -- building blocks ---------------------------------------------------

    def layer_weights(self, layer: int) -> LayerWeights:
        """Layer ``layer``'s weights: the one accessor every forward loop
        reads them through, so a wrapper that manages residency (a
        layer-streamed executor) runs the same loop."""
        return self.layers[layer]

    def embed(self, token_ids: np.ndarray, pos0: int = 0) -> np.ndarray:
        """Input activations of ``(batch, seq)`` ids placed at positions
        ``pos0..pos0+seq-1``: learned positions are added here, rotary
        ones are applied inside attention."""
        x = self.wte[token_ids]
        if self.config.pos_encoding == "learned":
            x = x + self.wpe[pos0 : pos0 + token_ids.shape[1]]
        return x

    def attention_block(
        self,
        x: np.ndarray,
        lw: LayerWeights,
        layer_idx: int,
        cache: KVCache | None,
    ) -> np.ndarray:
        """LN -> QKV -> (cached) attention -> output projection + residual."""
        heads = self.config.heads
        qkv = linear(layer_norm(x, lw.ln1_g, lw.ln1_b), lw.w_qkv, lw.b_qkv)
        q, k, v = np.split(qkv, 3, axis=-1)
        q, k, v = (split_heads(t, heads) for t in (q, k, v))
        offset = 0
        if cache is not None:
            offset = cache.seq_len(layer_idx)
        if self.config.pos_encoding == "rotary":
            # Rotate at absolute positions; cached keys were rotated at
            # their own positions already (RoPE + KV-cache compatibility).
            q = apply_rotary(q, position_offset=offset)
            k = apply_rotary(k, position_offset=offset)
        if cache is not None:
            k, v = cache.append(layer_idx, k, v)
        ctx = scaled_dot_product_attention(q, k, v, causal=True, query_offset=offset)
        proj = linear(merge_heads(ctx), lw.w_out)
        return bias_residual(proj, lw.b_out, x)

    def mlp_block(self, x: np.ndarray, lw: LayerWeights, layer_idx: int) -> np.ndarray:
        """LN -> FFN (or the layer's MoE block) + residual."""
        normed = layer_norm(x, lw.ln2_g, lw.ln2_b)
        if layer_idx in self.moe_layers:
            out = self.moe_layers[layer_idx](normed)
        else:
            out = linear(gelu(linear(normed, lw.w_fc, lw.b_fc)), lw.w_proj)
            out = out + lw.b_proj
        return x + out

    # -- forward / generate ------------------------------------------------

    def forward(
        self, token_ids: np.ndarray, cache: KVCache | None = None
    ) -> np.ndarray:
        """Logits for ``(batch, seq)`` token ids; appends to ``cache``."""
        token_ids = np.atleast_2d(token_ids)
        if token_ids.ndim != 2:
            raise ValueError("token_ids must be (batch, seq)")
        if token_ids.max(initial=0) >= self.config.vocab or token_ids.min(initial=0) < 0:
            raise ValueError("token id out of vocabulary range")
        pos0 = cache.seq_len(0) if cache is not None else 0
        seq = token_ids.shape[1]
        if pos0 + seq > self.config.max_seq:
            raise ValueError("sequence exceeds max_seq")
        x = self.embed(token_ids, pos0)
        for i in range(self.config.layers):
            lw = self.layer_weights(i)
            x = self.attention_block(x, lw, i, cache)
            x = self.mlp_block(x, lw, i)
        x = layer_norm(x, self.lnf_g, self.lnf_b)
        return x @ self.wte.T

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
