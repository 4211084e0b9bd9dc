"""MoE gating: token-to-expert assignment, both formulations of Sec. V-C.

The paper contrasts two implementations of the same gating math:

* the **sparse one-hot** formulation (the PyTorch baseline): build one-hot
  expert masks, cumulative-sum to find per-expert slot positions, and
  dispatch/combine via sparse einsums over mostly-zero tensors — cost
  ``S x E x M x c_e``;
* the **dense mapping-table** formulation (DeepSpeed): keep a
  token-to-expert table, invert it to an expert-to-token table by a scan,
  and move tokens with data-layout copies — cost ``S x M x c_e``.

Both are implemented here (the tables) and in :mod:`repro.model.moe` (the
dispatch), and tested for exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.functional import softmax
from .config import expert_capacity

__all__ = [
    "GatingResult",
    "TopKGatingResult",
    "top1_gating",
    "topk_gating",
    "build_expert_to_token_table",
]


@dataclass(frozen=True)
class GatingResult:
    """Top-1 assignment of ``S`` tokens to ``E`` experts with capacity.

    ``token_expert[s]`` is the selected expert, or -1 when the token was
    dropped for capacity (it then bypasses the FFN through the residual
    connection, Switch-Transformer semantics). ``token_slot[s]`` is the
    token's position within its expert's capacity buffer. ``gate_prob``
    is the softmax probability of the selected expert, used to scale the
    expert output.
    """

    token_expert: np.ndarray  # (S,) int, -1 = dropped
    token_slot: np.ndarray  # (S,) int, -1 = dropped
    gate_prob: np.ndarray  # (S,) float
    capacity: int
    num_experts: int

    @property
    def num_tokens(self) -> int:
        """Tokens routed (incl. dropped)."""
        return self.token_expert.shape[0]

    @property
    def dropped(self) -> np.ndarray:
        """Boolean mask of capacity-dropped tokens."""
        return self.token_expert < 0

    def one_hot_dispatch(self) -> np.ndarray:
        """The sparse formulation's ``(S, E, C)`` one-hot dispatch mask —
        the object whose zeros the paper's dense tables eliminate."""
        s, e, c = self.num_tokens, self.num_experts, self.capacity
        mask = np.zeros((s, e, c))
        kept = ~self.dropped
        mask[np.flatnonzero(kept), self.token_expert[kept], self.token_slot[kept]] = 1.0
        return mask


def top1_gating(
    gate_logits: np.ndarray, *, capacity_factor: float = 1.0
) -> GatingResult:
    """Route each token to its argmax expert, dropping beyond capacity.

    Slots are assigned in token order (the deterministic policy both of
    the paper's implementations share), via the cumulative-sum the paper
    describes: the c-th token routed to expert e takes slot c.
    """
    if gate_logits.ndim != 2:
        raise ValueError("gate_logits must be (tokens, experts)")
    s, e = gate_logits.shape
    probs = softmax(gate_logits, axis=-1)
    chosen = probs.argmax(axis=-1)
    gate_prob = probs[np.arange(s), chosen]
    cap = expert_capacity(s, e, capacity_factor)

    # Position of each token within its expert's queue = exclusive cumsum
    # of the one-hot choice along the token axis (Sec. V-C step 2).
    one_hot = np.zeros((s, e), dtype=np.int64)
    one_hot[np.arange(s), chosen] = 1
    position_in_expert = np.cumsum(one_hot, axis=0) - 1
    slot = position_in_expert[np.arange(s), chosen]

    token_expert = np.where(slot < cap, chosen, -1)
    token_slot = np.where(slot < cap, slot, -1)
    return GatingResult(
        token_expert=token_expert,
        token_slot=token_slot,
        gate_prob=gate_prob,
        capacity=cap,
        num_experts=e,
    )


@dataclass(frozen=True)
class TopKGatingResult:
    """Top-k assignment (GShard-style): each token routes to up to ``k``
    experts, with softmax weights renormalized over the selected experts.

    Arrays have shape ``(S, k)``; a slot of -1 marks a dropped (expert,
    token) pair — capacity applies per expert across all k choices.
    """

    token_expert: np.ndarray  # (S, k) int, -1 = dropped
    token_slot: np.ndarray  # (S, k) int, -1 = dropped
    gate_weight: np.ndarray  # (S, k) float, renormalized over kept slots
    capacity: int
    num_experts: int

    @property
    def num_tokens(self) -> int:
        """Tokens routed."""
        return self.token_expert.shape[0]


def topk_gating(
    gate_logits: np.ndarray, k: int, *, capacity_factor: float = 1.0
) -> TopKGatingResult:
    """Route each token to its top-``k`` experts with per-expert capacity.

    Slots are assigned in (token, choice-rank) order; a token whose
    preferred expert is full may still reach its secondary expert. Gate
    weights renormalize over the choices that were kept, so the combined
    expert output is a convex combination (Switch/GShard semantics).
    """
    if gate_logits.ndim != 2:
        raise ValueError("gate_logits must be (tokens, experts)")
    s, e = gate_logits.shape
    if not 1 <= k <= e:
        raise ValueError(f"k must be in [1, {e}]")
    probs = softmax(gate_logits, axis=-1)
    # Top-k experts per token, best first.
    order = np.argsort(-probs, axis=-1, kind="stable")[:, :k]
    chosen_p = np.take_along_axis(probs, order, axis=-1)

    cap = expert_capacity(s, e, capacity_factor * k)
    counts = np.zeros(e, dtype=np.int64)
    token_expert = np.full((s, k), -1, dtype=np.int64)
    token_slot = np.full((s, k), -1, dtype=np.int64)
    for t in range(s):
        for c in range(k):
            ex = order[t, c]
            if counts[ex] < cap:
                token_expert[t, c] = ex
                token_slot[t, c] = counts[ex]
                counts[ex] += 1

    kept = token_expert >= 0
    weight = np.where(kept, chosen_p, 0.0)
    norm = weight.sum(axis=-1, keepdims=True)
    weight = np.divide(weight, norm, out=np.zeros_like(weight), where=norm > 0)
    return TopKGatingResult(
        token_expert=token_expert,
        token_slot=token_slot,
        gate_weight=weight,
        capacity=cap,
        num_experts=e,
    )


def build_expert_to_token_table(result: GatingResult) -> list[np.ndarray]:
    """Invert the token-to-expert table (Sec. V-C step 2, optimized path):
    for each expert, the token ids it processes in slot order."""
    tables: list[np.ndarray] = []
    for ex in range(result.num_experts):
        tokens = np.flatnonzero(result.token_expert == ex)
        order = np.argsort(result.token_slot[tokens], kind="stable")
        tables.append(tokens[order])
    return tables
