"""Tests: expert-parallel MoE equals the single-process MoE layer."""

import numpy as np
import pytest

from repro.comm.functional import spmd
from repro.model.config import expert_partition
from repro.model.moe import MoELayer
from repro.parallel.expert_parallel import ep_moe_forward

RNG = np.random.default_rng(21)


class TestExpertPartition:
    def test_contiguous_cover(self):
        parts = expert_partition(8, 4)
        assert [list(p) for p in parts] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_single_rank(self):
        assert list(expert_partition(4, 1)[0]) == [0, 1, 2, 3]

    def test_uneven_remainder_distribution(self):
        # First E % ep ranks get one extra expert; sizes differ by <= 1.
        parts = expert_partition(10, 4)
        assert [list(p) for p in parts] == [
            [0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]

    @pytest.mark.parametrize("num_experts,ep", [(6, 4), (7, 3), (5, 5), (9, 2)])
    def test_uneven_covers_all_experts(self, num_experts, ep):
        parts = expert_partition(num_experts, ep)
        assert len(parts) == ep
        covered = [e for p in parts for e in p]
        assert covered == list(range(num_experts))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes  # extras lead

    def test_validation(self):
        with pytest.raises(ValueError):
            expert_partition(4, 0)
        with pytest.raises(ValueError):
            expert_partition(3, 4)  # more ranks than experts


class TestEPEquivalence:
    @pytest.mark.parametrize("ep", [1, 2, 4])
    def test_matches_local_layer(self, ep):
        layer = MoELayer(hidden=16, num_experts=8, capacity_factor=2.0, seed=5)
        per_rank_tokens = 12
        xs = [RNG.normal(size=(per_rank_tokens, 16)) for _ in range(ep)]
        ref = [layer.forward_dense_table(x) for x in xs]

        def prog(comm):
            return ep_moe_forward(comm, layer, xs[comm.rank])

        results = spmd(ep, prog)
        for got, want in zip(results, ref):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_3d_activation_shape(self):
        layer = MoELayer(hidden=8, num_experts=4, seed=1)
        x = RNG.normal(size=(2, 3, 8))

        def prog(comm):
            return ep_moe_forward(comm, layer, x)

        results = spmd(2, prog)
        assert results[0].shape == (2, 3, 8)
        np.testing.assert_allclose(
            results[0], layer.forward_dense_table(x), atol=1e-12
        )

    def test_skewed_routing_all_to_one_rank(self):
        """All tokens favor experts on rank 1: rank 0 receives nothing."""
        layer = MoELayer(hidden=8, num_experts=4, capacity_factor=4.0, seed=2)
        # Force gate toward expert 3 by biasing the gate weight.
        layer.w_gate[:, :] = 0.0
        layer.w_gate[:, 3] = 1.0
        x = np.abs(RNG.normal(size=(6, 8)))  # positive => positive logits

        def prog(comm):
            return ep_moe_forward(comm, layer, x)

        results = spmd(2, prog)
        np.testing.assert_allclose(
            results[0], layer.forward_dense_table(x), atol=1e-12
        )

    def test_capacity_drops_preserved(self):
        layer = MoELayer(hidden=8, num_experts=4, capacity_factor=0.25, seed=7)
        x = RNG.normal(size=(16, 8))
        g = layer.route(x)
        assert g.dropped.any()

        def prog(comm):
            return ep_moe_forward(comm, layer, x)

        results = spmd(2, prog)
        np.testing.assert_allclose(
            results[0], layer.forward_dense_table(x), atol=1e-12
        )
        np.testing.assert_array_equal(results[0][g.dropped], 0.0)

    @pytest.mark.parametrize("ep", [2, 3, 4])
    def test_uneven_expert_counts(self, ep):
        """num_experts % ep != 0 dispatches correctly to uneven owners."""
        layer = MoELayer(hidden=8, num_experts=7, capacity_factor=4.0, seed=3)
        xs = [RNG.normal(size=(5, 8)) for _ in range(ep)]
        ref = [layer.forward_dense_table(x) for x in xs]

        def prog(comm):
            return ep_moe_forward(comm, layer, xs[comm.rank])

        results = spmd(ep, prog)
        for got, want in zip(results, ref):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_more_ranks_than_experts_rejected(self):
        layer = MoELayer(hidden=8, num_experts=3, seed=1)

        def prog(comm):
            return ep_moe_forward(comm, layer, RNG.normal(size=(4, 8)))

        with pytest.raises(RuntimeError):
            spmd(4, prog)
