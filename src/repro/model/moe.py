"""Mixture-of-Experts layer with both dispatch formulations of Sec. V-C.

``MoELayer.forward_sparse_einsum`` is the baseline: GShard-style one-hot
dispatch/combine einsums whose complexity is ``S x E x M x c_e`` (every
token multiplies against every expert's mask, mostly zeros).

``MoELayer.forward_dense_table`` is the paper's optimization: build the
expert-to-token table and move tokens with gather/scatter copies —
``S x M x c_e`` work and no zero arithmetic.

Both produce identical outputs (tested), which is the correctness claim
behind the paper's reported 6x MoE-kernel latency reduction.
"""

from __future__ import annotations

import numpy as np

from ..kernels.functional import linear
from ..rng import SeedLike, as_generator
from .dense import ffn
from .gating import (
    GatingResult,
    TopKGatingResult,
    build_expert_to_token_table,
    top1_gating,
    topk_gating,
)

__all__ = ["MoELayer"]


class MoELayer:
    """Top-1 gated position-wise MoE FFN block with float64 weights."""

    def __init__(
        self,
        hidden: int,
        num_experts: int,
        *,
        capacity_factor: float = 1.0,
        seed: SeedLike = 0,
    ) -> None:
        if hidden < 1 or num_experts < 1:
            raise ValueError("hidden and num_experts must be >= 1")
        rng = as_generator(seed)
        s = 0.02
        m = 4 * hidden  # the GPT FFN width
        self.hidden = hidden
        self.num_experts = num_experts
        self.capacity_factor = capacity_factor
        self.w_gate = rng.standard_normal((hidden, num_experts)) * s
        self.w_fc = rng.standard_normal((num_experts, hidden, m)) * s
        self.b_fc = np.zeros((num_experts, m))
        self.w_proj = rng.standard_normal((num_experts, m, hidden)) * s
        self.b_proj = np.zeros((num_experts, hidden))

    # -- expert math --------------------------------------------------------

    def expert_ffn(self, expert: int, tokens: np.ndarray) -> np.ndarray:
        """Apply expert ``expert``'s FFN to ``(n, hidden)`` tokens."""
        if not 0 <= expert < self.num_experts:
            raise IndexError(f"expert {expert} out of range")
        return ffn(tokens, self.w_fc[expert], self.b_fc[expert],
                   self.w_proj[expert], self.b_proj[expert])

    def route(self, x2d: np.ndarray) -> GatingResult:
        """Gate ``(S, hidden)`` tokens."""
        return top1_gating(linear(x2d, self.w_gate), capacity_factor=self.capacity_factor)

    # -- the two dispatch formulations ---------------------------------------

    def forward_dense_table(self, x: np.ndarray) -> np.ndarray:
        """Optimized path: mapping tables + gather/scatter data movement."""
        x2d, unflatten = _flatten(x)
        gating = self.route(x2d)
        out = np.zeros_like(x2d)  # dropped tokens contribute zero (residual
        # connection outside this block carries them through unchanged)
        for expert, token_ids in enumerate(build_expert_to_token_table(gating)):
            if token_ids.size == 0:
                continue
            y = self.expert_ffn(expert, x2d[token_ids])  # gather
            out[token_ids] = y * gating.gate_prob[token_ids, None]  # scatter
        return unflatten(out)

    def forward_sparse_einsum(self, x: np.ndarray) -> np.ndarray:
        """Baseline path: one-hot masks and sparse einsums (GShard-style)."""
        x2d, unflatten = _flatten(x)
        gating = self.route(x2d)
        dispatch = gating.one_hot_dispatch()  # (S, E, C)
        combine = dispatch * gating.gate_prob[:, None, None]
        # S x E x M x C multiply-adds, mostly with zeros — the waste the
        # paper's Sec. V-C quantifies.
        expert_inputs = np.einsum("sec,sm->ecm", dispatch, x2d)
        expert_outputs = np.stack(
            [self.expert_ffn(e, expert_inputs[e]) for e in range(self.num_experts)]
        )
        out = np.einsum("sec,ecm->sm", combine, expert_outputs)
        return unflatten(out)

    # -- top-k routing (GShard-style) ----------------------------------------

    def route_topk(self, x2d: np.ndarray, k: int) -> TopKGatingResult:
        """Top-``k`` gate ``(S, hidden)`` tokens."""
        return topk_gating(
            linear(x2d, self.w_gate), k, capacity_factor=self.capacity_factor
        )

    def forward_topk(self, x: np.ndarray, k: int = 2) -> np.ndarray:
        """Top-k MoE with dense-table dispatch: each token's output is the
        gate-weighted combination of its surviving experts."""
        x2d, unflatten = _flatten(x)
        gating = self.route_topk(x2d, k)
        out = np.zeros_like(x2d)
        for choice in range(k):
            experts = gating.token_expert[:, choice]
            weights = gating.gate_weight[:, choice]
            for ex in np.unique(experts[experts >= 0]):
                sel = np.flatnonzero(experts == ex)
                y = self.expert_ffn(int(ex), x2d[sel])
                out[sel] += y * weights[sel, None]
        return unflatten(out)

    def forward_topk_reference(self, x: np.ndarray, k: int = 2) -> np.ndarray:
        """Per-token loop reference for top-k routing (O(S*k) expert calls;
        slow but unambiguous)."""
        x2d, unflatten = _flatten(x)
        gating = self.route_topk(x2d, k)
        out = np.zeros_like(x2d)
        for t in range(x2d.shape[0]):
            for c in range(k):
                ex = gating.token_expert[t, c]
                if ex < 0:
                    continue
                y = self.expert_ffn(int(ex), x2d[t : t + 1])
                out[t] += gating.gate_weight[t, c] * y[0]
        return unflatten(out)

    # Default callable form (used when installed into DenseTransformer).
    __call__ = forward_dense_table


def _flatten(x: np.ndarray):
    """View ``(..., hidden)`` as ``(S, hidden)`` plus an inverse."""
    if x.ndim < 2:
        raise ValueError("input must have a hidden axis")
    shape = x.shape
    x2d = x.reshape(-1, shape[-1])

    def unflatten(y: np.ndarray) -> np.ndarray:
        return y.reshape(shape)

    return x2d, unflatten
