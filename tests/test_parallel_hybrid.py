"""Tests: combined tensor + expert parallel MoE blocks (Fig. 4) match the
single-process reference for every MP x EP factorization."""

import functools

import numpy as np
import pytest

from repro.comm.functional import spmd
from repro.model import ModelConfig
from repro.model.dense import (
    DenseTransformer,
    attention_sublayer,
    cached_attention,
    mlp_sublayer,
)
from repro.model.kvcache import KVCache
from repro.model.moe import MoELayer
from repro.parallel.hybrid import make_hybrid_groups, hybrid_moe_block

CFG = ModelConfig(name="hybrid-test", hidden=32, layers=2, heads=4, vocab=41,
                  max_seq=24)


def reference_block(model, moe, layer_idx, x, cache=None):
    """Single-process MoE transformer block: attention + expert FFN."""
    lw = model.layers[layer_idx]
    attend = functools.partial(cached_attention(CFG, cache), layer_idx)
    x = attention_sublayer(x, lw, CFG.heads, attend)
    return mlp_sublayer(x, lw, moe.forward_dense_table)


@pytest.fixture(scope="module")
def setup():
    model = DenseTransformer(CFG, seed=17)
    moe = MoELayer(hidden=CFG.hidden, num_experts=8, capacity_factor=2.0,
                   seed=23)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, CFG.hidden))
    return model, moe, x


class TestHybridOrchestration:
    @pytest.mark.parametrize("world,mp", [(2, 1), (2, 2), (4, 2), (4, 4), (8, 2)])
    def test_matches_reference(self, setup, world, mp):
        model, moe, x = setup
        want = reference_block(model, moe, 0, x)

        def prog(comm):
            groups = make_hybrid_groups(comm, mp)
            assert groups.ep == world // mp
            return hybrid_moe_block(groups, model, moe, 0, x)

        results = spmd(world, prog)
        for got in results:
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_two_layers_stacked(self, setup):
        model, moe, x = setup
        want = x
        for i in range(2):
            want = reference_block(model, moe, i, want)

        def prog(comm):
            groups = make_hybrid_groups(comm, 2)
            h = x
            for i in range(2):
                h = hybrid_moe_block(groups, model, moe, i, h)
            return h

        results = spmd(4, prog)
        np.testing.assert_allclose(results[0], want, atol=1e-10)

    def test_with_kv_cache_decoding(self, setup):
        model, moe, x = setup
        # Reference: two sequential single-token steps through the block.
        ref_cache = KVCache(CFG.layers)
        step1 = reference_block(model, moe, 0, x[:, :1], ref_cache)
        step2 = reference_block(model, moe, 0, x[:, 1:2], ref_cache)

        def prog(comm):
            groups = make_hybrid_groups(comm, 2)
            cache = KVCache(CFG.layers)
            s1 = hybrid_moe_block(groups, model, moe, 0, x[:, :1], cache)
            s2 = hybrid_moe_block(groups, model, moe, 0, x[:, 1:2], cache)
            return s1, s2

        results = spmd(4, prog)
        got1, got2 = results[0]
        np.testing.assert_allclose(got1, step1, atol=1e-10)
        np.testing.assert_allclose(got2, step2, atol=1e-10)

    def test_invalid_mp_rejected(self, setup):
        model, moe, x = setup

        def prog(comm):
            return make_hybrid_groups(comm, 3)

        with pytest.raises(RuntimeError, match="divide"):
            spmd(4, prog)

    def test_group_structure(self):
        def prog(comm):
            g = make_hybrid_groups(comm, 2)
            return (g.tp_rank, g.ep_rank)

        results = spmd(4, prog)
        # world ranks 0..3; tp groups {0,1},{2,3}; ep groups {0,2},{1,3}
        assert results == [(0, 0), (1, 0), (0, 1), (1, 1)]
