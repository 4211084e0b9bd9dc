"""Token sampling strategies for generation.

Greedy decoding is what the equivalence tests pin down (deterministic);
production engines also sample. These are the standard strategies —
temperature, top-k, nucleus (top-p) — implemented deterministically
against a caller-supplied generator so distributed and local runs can be
compared seed-for-seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..kernels.functional import softmax

__all__ = ["SamplingConfig", "sample_next_token"]


@dataclass(frozen=True)
class SamplingConfig:
    """Decode-time sampling policy.

    ``temperature=0`` (or ``greedy=True``) selects argmax; ``top_k`` and
    ``top_p`` restrict the candidate set before renormalizing.
    """

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    greedy: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.top_p is not None and not 0 < self.top_p <= 1:
            raise ValueError("top_p must lie in (0, 1]")


def _restrict_top_k(probs: np.ndarray, k: int) -> np.ndarray:
    if k >= probs.shape[-1]:
        return probs
    kept = np.argsort(-probs, axis=-1)[:, :k]
    out = np.zeros_like(probs)
    rows = np.arange(probs.shape[0])[:, None]
    out[rows, kept] = probs[rows, kept]
    return out


def _restrict_top_p(probs: np.ndarray, p: float) -> np.ndarray:
    order = np.argsort(-probs, axis=-1)
    sorted_p = np.take_along_axis(probs, order, axis=-1)
    cum = np.cumsum(sorted_p, axis=-1)
    # Keep the smallest prefix whose mass reaches p (always >= 1 token).
    keep_sorted = cum - sorted_p < p
    keep_sorted[:, 0] = True
    out = np.zeros_like(probs)
    rows = np.arange(probs.shape[0])[:, None]
    out[rows, order] = np.where(keep_sorted, sorted_p, 0.0)
    return out


def sample_next_token(
    logits: np.ndarray,
    config: SamplingConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample one token id per row of ``(batch, vocab)`` logits."""
    logits = np.atleast_2d(logits)
    if logits.ndim != 2:
        raise ValueError("logits must be (batch, vocab)")
    if config.greedy or config.temperature == 0:
        return logits.argmax(axis=-1)
    if rng is None:
        raise ValueError("stochastic sampling needs an rng")
    probs = softmax(logits / config.temperature, axis=-1)
    if config.top_k is not None:
        probs = _restrict_top_k(probs, config.top_k)
    if config.top_p is not None:
        probs = _restrict_top_p(probs, config.top_p)
    norm = probs.sum(axis=-1, keepdims=True)
    probs = probs / norm
    # Inverse-CDF sampling, one uniform draw per row (deterministic order).
    u = rng.random(size=(logits.shape[0], 1))
    cdf = np.cumsum(probs, axis=-1)
    return (cdf < u).sum(axis=-1)
