"""Functional (NumPy) transformer kernels.

These implement the math whose *performance* the cost model predicts.
Functional executors write no bare ``@`` (the one exception is the INT8
GeMM's integer-exact accumulate in :mod:`repro.kernels.quant`): every
GEMM runs through :func:`linear` and every attention through
:func:`scaled_dot_product_attention`, so the work an executor does can be
recorded and held to the priced op chain. The fused region kernels are
the executed code path, not only references: the shared decoder
sublayers in :mod:`repro.model.dense` run region 1 as
:func:`fused_layernorm_qkv` and the FFN's epilogue as
:func:`fused_bias_gelu`, and each fused kernel computes exactly what its
unfused op chain computes. :func:`fused_layernorm_mlp` is region 3's
reference: the one FFN also serves MoE experts, whose tokens arrive
already normed, so it starts after the layer-norm.

Conventions: activations are ``(tokens, hidden)`` or
``(batch, seq, hidden)`` float32/float64 arrays (float64 default keeps
equivalence tests tight); weights are ``(in_features, out_features)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "layer_norm",
    "gelu",
    "softmax",
    "linear",
    "bias_residual",
    "split_heads",
    "merge_heads",
    "apply_rotary",
    "scaled_dot_product_attention",
    "fused_layernorm_qkv",
    "fused_layernorm_mlp",
    "fused_bias_gelu",
]


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Layer normalization over the last axis (epsilon 1e-5)."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gamma + beta


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation, as GPT uses)."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight + bias`` with ``weight: (in, out)``."""
    y = x @ weight
    if bias is not None:
        y = y + bias
    return y


def bias_residual(x: np.ndarray, bias: np.ndarray | None, residual: np.ndarray) -> np.ndarray:
    """The paper's fused region 4: bias add + residual add."""
    if bias is not None:
        return x + bias + residual
    return x + residual


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``(batch, seq, hidden) -> (batch, heads, seq, head_dim)`` — the
    head-wise data-layout transformation Deep-Fusion folds into the
    attention region."""
    b, s, h = x.shape
    if h % heads:
        raise ValueError("hidden not divisible by heads")
    return x.reshape(b, s, heads, h // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`."""
    b, n, s, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, n * d)


def apply_rotary(
    x: np.ndarray,
    *,
    position_offset: int = 0,
    positions: np.ndarray | None = None,
) -> np.ndarray:
    """Rotary position embedding (RoPE, base 10000) over ``(batch, heads,
    seq, hd)``.

    Pairs of feature dimensions rotate by a position-dependent angle;
    because rotations compose, the Q.K inner product depends only on the
    *relative* distance between positions — the property GPT-J/GPT-NeoX
    (Table I) rely on. ``position_offset`` places the tokens on the
    absolute timeline, which is what makes RoPE compatible with KV
    caching: cached keys were rotated at their own positions once and
    never need re-rotation. ``positions`` (``(batch, seq)``) overrides
    the uniform timeline for ragged batches where rows sit at different
    absolute positions.
    """
    if x.ndim != 4:
        raise ValueError("expected (batch, heads, seq, head_dim)")
    hd = x.shape[-1]
    if hd % 2:
        raise ValueError("head_dim must be even for rotary embeddings")
    half = hd // 2
    inv_freq = 10000.0 ** (-np.arange(half) / half)
    if positions is None:
        pos = np.arange(x.shape[2]) + position_offset
        angles = pos[:, None] * inv_freq[None, :]  # (seq, half)
        cos = np.cos(angles)
        sin = np.sin(angles)
    else:
        positions = np.asarray(positions)
        if positions.shape != (x.shape[0], x.shape[2]):
            raise ValueError("positions must be (batch, seq)")
        angles = positions[:, :, None] * inv_freq[None, None, :]
        cos = np.cos(angles)[:, None, :, :]  # (b, 1, seq, half)
        sin = np.sin(angles)[:, None, :, :]
    x1, x2 = x[..., :half], x[..., half:]
    out = np.empty_like(x)
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    return out


def scaled_dot_product_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    causal: bool = True,
    query_offset: int = 0,
    key_mask: np.ndarray | None = None,
    query_positions: np.ndarray | None = None,
    key_positions: np.ndarray | None = None,
) -> np.ndarray:
    """Attention over ``(batch, heads, seq, head_dim)`` tensors.

    ``query_offset`` positions the queries within the key timeline: during
    token generation queries start at position ``kv_len - new_tokens``
    (they attend to the whole cache), which is how KV-cached decoding
    preserves causality.

    ``key_mask`` is an optional ``(batch, kv_len)`` boolean array marking
    *valid* key positions; padded positions receive zero attention
    weight (ragged-batch support).

    ``query_positions``/``key_positions`` (``(batch, sq)``/``(batch,
    sk)``) give each row its own timeline; when provided, causality is
    ``key_position > query_position`` per row — what ragged batches with
    per-row offsets need. Both must be given together.
    """
    d = q.shape[-1]
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(d)
    if (query_positions is None) != (key_positions is None):
        raise ValueError("query_positions and key_positions come together")
    if causal:
        if query_positions is not None:
            qpos = np.asarray(query_positions)[:, None, :, None]
            kpos = np.asarray(key_positions)[:, None, None, :]
            mask = kpos > qpos
        else:
            sq, sk = q.shape[2], k.shape[2]
            qp = np.arange(sq)[:, None] + query_offset
            kp = np.arange(sk)[None, :]
            mask = kp > qp
        scores = np.where(mask, -1e30, scores)
    if key_mask is not None:
        if key_mask.shape != (q.shape[0], k.shape[2]):
            raise ValueError("key_mask must be (batch, kv_len)")
        scores = np.where(key_mask[:, None, None, :], scores, -1e30)
    return softmax(scores, axis=-1) @ v


# --------------------------------------------------------------------------
# Fused-region kernels. Each computes, in one call, exactly what its
# constituent ops compute — the functional counterpart of Deep-Fusion's
# guarantee that fusion changes data movement, not semantics. The
# decoder sublayers call them as the regions they execute.
# --------------------------------------------------------------------------


def fused_layernorm_qkv(
    x: np.ndarray,
    ln_gamma: np.ndarray,
    ln_beta: np.ndarray,
    w_qkv: np.ndarray,
    b_qkv: np.ndarray | None,
) -> np.ndarray:
    """Region 1 of Fig. 1c: input layer-norm + QKV GeMM + bias."""
    return linear(layer_norm(x, ln_gamma, ln_beta), w_qkv, b_qkv)


def fused_layernorm_mlp(
    x: np.ndarray,
    ln_gamma: np.ndarray,
    ln_beta: np.ndarray,
    w_fc: np.ndarray,
    b_fc: np.ndarray | None,
) -> np.ndarray:
    """Region 3 of Fig. 1c: post-attention layer-norm + intermediate GeMM
    (+ the GeLU epilogue)."""
    return gelu(linear(layer_norm(x, ln_gamma, ln_beta), w_fc, b_fc))


def fused_bias_gelu(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """GeMM epilogue: bias add followed by GeLU in one pass."""
    return gelu(x + bias)
