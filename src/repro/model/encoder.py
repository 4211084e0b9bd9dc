"""Functional encoder transformer (BERT-class models, Fig. 12).

The paper's kernels "support encoder, decoder, and sparsely gated MoE
models" (Sec. VII-E6); the E.T. comparison runs on DistilBERT/BERT.
An encoder block is the same op chain as a decoder block with
bidirectional (non-causal) attention and no KV cache — which is exactly
how this class composes the decoder's shared sublayers: its own
padding-masked attention core inside
:func:`~repro.model.dense.attention_sublayer`, then
:func:`~repro.model.dense.mlp_sublayer`.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import layer_norm, scaled_dot_product_attention
from ..rng import SeedLike, as_generator
from .config import ModelConfig
from .dense import (LayerWeights, attention_sublayer, check_tokens,
                    init_layer_weights, mlp_sublayer)

__all__ = ["EncoderTransformer"]


class EncoderTransformer:
    """A runnable BERT-style bidirectional encoder with float64 weights."""

    def __init__(self, config: ModelConfig, *, seed: SeedLike = 0) -> None:
        if config.decoder:
            raise ValueError(
                f"{config.name} is a decoder config; EncoderTransformer "
                "expects decoder=False"
            )
        if config.pos_encoding != "learned":
            raise ValueError(
                f"{config.name}: EncoderTransformer supports only "
                f"pos_encoding='learned', got {config.pos_encoding!r}"
            )
        self.config = config
        rng = as_generator(seed)
        h = config.hidden
        self.wte = rng.standard_normal((config.vocab, h)) * 0.02
        self.wpe = rng.standard_normal((config.max_seq, h)) * 0.01
        self.layers: list[LayerWeights] = [
            init_layer_weights(h, config.ffn_mult, rng)
            for _ in range(config.layers)
        ]
        self.lnf_g = np.ones(h)
        self.lnf_b = np.zeros(h)

    def encoder_block(
        self, x: np.ndarray, lw: LayerWeights, key_mask: np.ndarray | None
    ) -> np.ndarray:
        """One block: bidirectional attention + FFN, pre-LN residuals."""

        def core(q, k, v):
            return scaled_dot_product_attention(q, k, v, causal=False,
                                                key_mask=key_mask)

        x = attention_sublayer(x, lw, self.config.heads, core)
        return mlp_sublayer(x, lw, None)

    def encode(
        self, token_ids: np.ndarray, attention_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Contextual embeddings ``(batch, seq, hidden)``.

        ``attention_mask`` is an optional ``(batch, seq)`` boolean array
        marking real (non-padding) tokens; padded positions neither give
        nor (in pooling) receive contribution.
        """
        token_ids = np.atleast_2d(token_ids)
        check_tokens(self.config, token_ids, token_ids.shape[1])
        if attention_mask is not None and attention_mask.shape != token_ids.shape:
            raise ValueError("attention_mask must match token_ids shape")
        x = self.wte[token_ids] + self.wpe[: token_ids.shape[1]]
        for lw in self.layers:
            x = self.encoder_block(x, lw, attention_mask)
        return layer_norm(x, self.lnf_g, self.lnf_b)

    def pooled(
        self, token_ids: np.ndarray, attention_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Mean-pooled sequence embedding ``(batch, hidden)`` (mask-aware)."""
        out = self.encode(token_ids, attention_mask)
        if attention_mask is None:
            return out.mean(axis=1)
        w = attention_mask.astype(out.dtype)
        denom = np.maximum(w.sum(axis=1, keepdims=True), 1.0)
        return (out * w[:, :, None]).sum(axis=1) / denom
