"""Skewed gate distributions and reproducible gate streams.

The paper's MoE serving results (Table II, Fig. 15) price dispatch as if
tokens spread evenly over experts; measured gate statistics are heavily
Zipf-skewed ("Fast MoE Inference via Predictive Prefetching and Expert
Replication"). This module synthesizes that skew reproducibly: a
Zipf(s) probability vector over experts (with a seeded permutation
deciding *which* experts are hot), per-step token-count streams drawn
from it, and skewed gate logits for exercising the gating kernels —
all seeded through :mod:`repro.rng` so benchmarks and tests replay
bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SeedLike, as_generator

__all__ = [
    "zipf_expert_probs",
    "synthesize_gate_stream",
    "zipf_gate_logits",
]


def zipf_expert_probs(
    num_experts: int, skew: float, *, seed: SeedLike = 0
) -> np.ndarray:
    """Stationary per-expert gate probabilities under Zipf(``skew``).

    Expert popularity follows ``rank**-skew`` (normalized); ``skew=0``
    is the uniform distribution every expert-parallel cost model assumed
    before this module. The seeded permutation assigns popularity ranks
    to expert ids, so two call sites sharing a seed agree on which
    experts are hot.
    """
    if num_experts < 1:
        raise ValueError("num_experts must be >= 1")
    if not 0 <= skew < math.inf:
        raise ValueError("skew must be finite and >= 0 (0 = uniform)")
    rng = as_generator(seed)
    weights = np.arange(1, num_experts + 1, dtype=np.float64) ** -skew
    probs = weights / weights.sum()
    perm = rng.permutation(num_experts)
    out = np.empty(num_experts)
    out[perm] = probs  # expert perm[rank] gets popularity rank `rank`
    return out


def synthesize_gate_stream(
    num_steps: int,
    tokens_per_step: int,
    probs: np.ndarray,
    *,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Per-step expert token counts: ``(num_steps, num_experts)`` ints.

    Each row is one decode/prompt iteration's gate outcome — a
    multinomial draw of ``tokens_per_step`` tokens over ``probs``. This
    is the stream :class:`~repro.moe_placement.GateHistoryPredictor`
    consumes and :func:`~repro.moe_placement.simulate_expert_stream`
    replays.
    """
    if num_steps < 1 or tokens_per_step < 1:
        raise ValueError("num_steps and tokens_per_step must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1 or (probs < 0).any():
        raise ValueError("probs must be a non-negative 1-D vector")
    rng = as_generator(seed)
    return rng.multinomial(tokens_per_step, probs / probs.sum(),
                           size=num_steps)


def zipf_gate_logits(
    num_tokens: int,
    num_experts: int,
    skew: float,
    *,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Gate logits whose argmax distribution is Zipf(``skew``)-skewed.

    Each token draws a preferred expert from
    :func:`zipf_expert_probs` and receives a logit bump of 6 there
    over unit Gaussian noise — skewed enough to
    stress capacity overflow in the gating kernels while keeping
    realistic near-ties for the tie-breaking paths.
    """
    if num_tokens < 1:
        raise ValueError("num_tokens must be >= 1")
    rng = as_generator(seed)
    probs = zipf_expert_probs(num_experts, skew, seed=rng)
    preferred = rng.choice(num_experts, size=num_tokens, p=probs)
    logits = rng.standard_normal((num_tokens, num_experts))
    logits[np.arange(num_tokens), preferred] += 6.0
    return logits
