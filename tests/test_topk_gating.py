"""Tests for top-k gating and top-k MoE dispatch (GShard-style routing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.functional import spmd
from repro.model.gating import topk_gating
from repro.model.moe import MoELayer
from repro.parallel.expert_parallel import ep_moe_forward

RNG = np.random.default_rng(31)


class TestTopKGating:
    def test_k1_matches_top1_choices(self):
        from repro.model.gating import top1_gating

        logits = RNG.normal(size=(12, 6))
        g1 = top1_gating(logits)
        gk = topk_gating(logits, 1)
        np.testing.assert_array_equal(gk.token_expert[:, 0], g1.token_expert)

    def test_choices_ordered_by_probability(self):
        logits = RNG.normal(size=(10, 8))
        g = topk_gating(logits, 3, capacity_factor=10.0)  # no drops
        probs = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        for t in range(10):
            chosen_p = probs[t, g.token_expert[t]]
            assert (np.diff(chosen_p) <= 1e-12).all()

    def test_weights_renormalize_over_kept(self):
        logits = RNG.normal(size=(16, 4))
        g = topk_gating(logits, 2, capacity_factor=10.0)
        sums = g.gate_weight.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_secondary_expert_survives_when_primary_full(self):
        # All tokens prefer expert 0 but spread their second choices; the
        # overflow should land on the second choices instead of dropping.
        logits = np.zeros((8, 4))
        logits[:, 0] = 9.0
        for t in range(8):
            logits[t, 1 + t % 3] = 5.0
        g = topk_gating(logits, 2, capacity_factor=1.0)
        first_choice_kept = (g.token_expert[:, 0] == 0).sum()
        assert first_choice_kept == g.capacity  # expert 0 saturates
        overflow = np.flatnonzero(g.token_expert[:, 0] != 0)
        assert overflow.size > 0
        # Overflowing tokens still reach their (varied) secondary experts.
        assert (g.token_expert[overflow] >= 0).any(axis=-1).all()

    def test_capacity_never_exceeded(self):
        logits = RNG.normal(size=(40, 4))
        g = topk_gating(logits, 2, capacity_factor=1.0)
        flat = g.token_expert.ravel()
        for ex in range(4):
            assert (flat == ex).sum() <= g.capacity

    def test_validation(self):
        with pytest.raises(ValueError):
            topk_gating(np.zeros((4, 3)), 0)
        with pytest.raises(ValueError):
            topk_gating(np.zeros((4, 3)), 4)
        with pytest.raises(ValueError):
            topk_gating(np.zeros(4), 1)


class TestTopKMoELayer:
    @pytest.mark.parametrize("tokens,k", [(8, 2), (17, 2), (8, 3)])
    def test_dense_table_matches_per_token_reference(self, tokens, k):
        layer = MoELayer(hidden=16, num_experts=6, capacity_factor=2.0, seed=9)
        x = RNG.normal(size=(tokens, 16))
        np.testing.assert_allclose(
            layer.forward_topk(x, k),
            layer.forward_topk_reference(x, k),
            atol=1e-12,
        )

    def test_k2_differs_from_k1(self):
        layer = MoELayer(hidden=8, num_experts=4, capacity_factor=4.0, seed=1)
        x = RNG.normal(size=(10, 8))
        assert not np.allclose(layer.forward_topk(x, 1), layer.forward_topk(x, 2))

    def test_output_is_convex_combination_scale(self):
        # With uniform experts (identical weights), any k gives the same
        # output because the combination weights sum to one.
        layer = MoELayer(hidden=8, num_experts=4, capacity_factor=8.0, seed=2)
        for e in range(1, 4):
            layer.w_fc[e] = layer.w_fc[0]
            layer.w_proj[e] = layer.w_proj[0]
        x = RNG.normal(size=(6, 8))
        np.testing.assert_allclose(
            layer.forward_topk(x, 1), layer.forward_topk(x, 3), atol=1e-12
        )


class TestTopKExpertParallel:
    @pytest.mark.parametrize("ep,k", [(2, 2), (4, 2), (2, 3)])
    def test_distributed_matches_local(self, ep, k):
        layer = MoELayer(hidden=16, num_experts=8, capacity_factor=4.0, seed=5)
        x = RNG.normal(size=(12, 16))
        ref = layer.forward_topk(x, k)

        results = spmd(ep, lambda comm: ep_moe_forward(comm, layer, x, k=k))
        for got in results:
            np.testing.assert_allclose(got, ref, atol=1e-12)


@given(
    tokens=st.integers(min_value=1, max_value=24),
    experts=st.sampled_from([4, 8]),
    k=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_topk_invariants(tokens, experts, k):
    """Properties: per-expert load <= capacity; weights in [0,1] summing to
    <= 1 (== 1 when any choice kept); slots unique per expert."""
    logits = np.random.default_rng(tokens * 7 + experts + k).normal(
        size=(tokens, experts)
    )
    g = topk_gating(logits, k)
    flat_e = g.token_expert.ravel()
    flat_s = g.token_slot.ravel()
    for ex in range(experts):
        slots = flat_s[flat_e == ex]
        assert len(slots) <= g.capacity
        assert len(np.unique(slots)) == len(slots)
    assert (g.gate_weight >= 0).all() and (g.gate_weight <= 1 + 1e-12).all()
    kept_any = (g.token_expert >= 0).any(axis=-1)
    np.testing.assert_allclose(
        g.gate_weight.sum(-1)[kept_any], 1.0, atol=1e-9
    )
    assert (g.gate_weight.sum(-1)[~kept_any] == 0).all()
