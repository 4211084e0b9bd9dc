"""Tests: tensor-parallel execution reproduces the dense reference: bit
for bit at degree 1, up to the all-reduce's re-association above it."""

import dataclasses

import numpy as np
import pytest

from repro.comm.functional import spmd
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.model.moe import MoELayer
from repro.parallel.tensor_parallel import (
    shard_layer,
    tp_forward,
    tp_spmd_forward,
)

CFG = ModelConfig(name="tp-test", hidden=48, layers=2, heads=4, vocab=61, max_seq=32)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(CFG, seed=3)


class TestSharding:
    def test_qkv_columns_cover_weight(self, model):
        lw = model.layers[0]
        shards = [shard_layer(lw, CFG.heads, r, 4) for r in range(4)]
        # q/k/v column shards, re-concatenated per q,k,v, equal the original.
        wq, wk, wv = np.split(lw.w_qkv, 3, axis=1)
        got_q = np.concatenate([np.split(s.w_qkv, 3, axis=1)[0] for s in shards], axis=1)
        np.testing.assert_array_equal(got_q, wq)

    def test_row_shards_cover_w_out(self, model):
        lw = model.layers[0]
        shards = [shard_layer(lw, CFG.heads, r, 2) for r in range(2)]
        np.testing.assert_array_equal(
            np.concatenate([s.w_out for s in shards], axis=0), lw.w_out
        )

    def test_param_count_divides(self, model):
        lw = model.layers[0]
        s = shard_layer(lw, CFG.heads, 0, 4)
        assert s.w_qkv.size == lw.w_qkv.size // 4
        assert s.w_fc.size == lw.w_fc.size // 4
        assert s.w_proj.size == lw.w_proj.size // 4

    def test_invalid_sharding(self, model):
        lw = model.layers[0]
        with pytest.raises(ValueError):
            shard_layer(lw, CFG.heads, 4, 4)
        with pytest.raises(ValueError):
            shard_layer(lw, CFG.heads, 0, 3)  # 4 heads not divisible by 3


class TestTPEquivalence:
    @pytest.mark.parametrize("tp", [1, 2, 4])
    def test_logits_match_reference(self, model, tp):
        ids = np.array([[5, 9, 2, 7]])
        ref = model.forward(ids)
        got = tp_spmd_forward(tp, model, ids)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_moe_layers_run_like_the_dense_model(self):
        """A rank runs the model's own loop, MoE blocks included: their
        experts see the replicated post-all-reduce activations."""
        moe = MoELayer(hidden=CFG.hidden, num_experts=4, capacity_factor=2.0,
                       seed=5)
        model = DenseTransformer(CFG, seed=3, moe_layers={1: moe})
        ids = np.array([[5, 9, 2, 7]])
        np.testing.assert_allclose(tp_spmd_forward(2, model, ids),
                                   model.forward(ids), atol=1e-10)

    def test_all_ranks_agree(self, model):
        ids = np.array([[1, 2, 3]])
        results = spmd(2, tp_forward, model, ids)
        np.testing.assert_array_equal(results[0], results[1])

    def test_batched_input(self, model):
        ids = np.array([[5, 9], [2, 7], [1, 1]])
        ref = model.forward(ids)
        np.testing.assert_allclose(tp_spmd_forward(2, model, ids), ref, atol=1e-10)

    def test_tp_with_kv_cache_generation(self, model):
        """Cached TP decoding step-by-step equals full reference logits."""
        ids = np.array([[3, 1, 4, 1, 5]])
        ref = model.forward(ids)

        def prog(comm):
            cache = KVCache(CFG.layers)
            outs = []
            for t in range(ids.shape[1]):
                outs.append(tp_forward(comm, model, ids[:, t : t + 1], cache))
            return np.concatenate(outs, axis=1)

        results = spmd(2, prog)
        np.testing.assert_allclose(results[0], ref, atol=1e-10)

    def test_stage_local_execution_path(self, model):
        """layer_range/hidden_in compose: TP per stage equals full TP."""
        ids = np.array([[7, 8, 9]])
        ref = model.forward(ids)

        def prog(comm):
            h = tp_forward(comm, model, ids, layer_range=(0, 1), return_hidden=True)
            return tp_forward(
                comm, model, ids, layer_range=(1, CFG.layers), hidden_in=h
            )

        results = spmd(2, prog)
        np.testing.assert_allclose(results[0], ref, atol=1e-10)


class TestDegreeOne:
    @pytest.mark.parametrize("pos_encoding", ["learned", "rotary"])
    def test_degree_one_is_the_dense_model_bit_for_bit(self, pos_encoding):
        """One rank runs the dense model's own sublayers, biases included."""
        cfg = dataclasses.replace(CFG, pos_encoding=pos_encoding)
        model = DenseTransformer(cfg, seed=3)
        rng = np.random.default_rng(11)
        for lw in model.layers:
            for name in ("ln1_b", "b_qkv", "b_out", "ln2_b", "b_fc", "b_proj"):
                bias = getattr(lw, name)
                bias[:] = rng.normal(scale=0.05, size=bias.shape)
        ids = np.array([[5, 9, 2, 7], [1, 3, 3, 8]])
        np.testing.assert_array_equal(tp_spmd_forward(1, model, ids),
                                      model.forward(ids))

        def decode(comm):
            cache = KVCache(cfg.layers)
            tp_forward(comm, model, ids[:, :3], cache)
            return tp_forward(comm, model, ids[:, 3:], cache)

        ref = KVCache(cfg.layers)
        model.forward(ids[:, :3], ref)
        np.testing.assert_array_equal(spmd(1, decode)[0],
                                      model.forward(ids[:, 3:], ref))
