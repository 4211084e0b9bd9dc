"""Tests for rotary position embeddings (GPT-J/NeoX-style, Table I)."""

import numpy as np
import pytest

from repro.kernels.functional import apply_rotary
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.parallel.pipeline import partition_layers, staged_forward
from repro.parallel.tensor_parallel import tp_spmd_forward

ROT_CFG = ModelConfig(name="rot-test", hidden=32, layers=3, heads=4, vocab=61,
                      max_seq=48, pos_encoding="rotary")

RNG = np.random.default_rng(53)


class TestApplyRotary:
    def test_norm_preserved(self):
        """Rotations are orthogonal: vector norms are invariant."""
        x = RNG.normal(size=(2, 3, 5, 8))
        y = apply_rotary(x, position_offset=7)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-12
        )

    def test_position_zero_is_identity(self):
        x = RNG.normal(size=(1, 1, 1, 8))
        np.testing.assert_allclose(apply_rotary(x, position_offset=0), x,
                                   atol=1e-12)

    def test_relative_position_property(self):
        """Q.K after rotation depends only on the position *difference*:
        shifting both positions by the same offset leaves scores equal."""
        q = RNG.normal(size=(1, 2, 4, 8))
        k = RNG.normal(size=(1, 2, 4, 8))

        def scores(offset):
            qr = apply_rotary(q, position_offset=offset)
            kr = apply_rotary(k, position_offset=offset)
            return qr @ kr.transpose(0, 1, 3, 2)

        np.testing.assert_allclose(scores(0), scores(11), atol=1e-10)

    def test_distinct_positions_change_scores(self):
        q = RNG.normal(size=(1, 1, 1, 8))
        k = RNG.normal(size=(1, 1, 1, 8))
        s_same = apply_rotary(q) @ apply_rotary(k).transpose(0, 1, 3, 2)
        s_far = apply_rotary(q) @ apply_rotary(
            k, position_offset=9
        ).transpose(0, 1, 3, 2)
        assert not np.allclose(s_same, s_far)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_rotary(RNG.normal(size=(2, 3, 4)))  # wrong rank
        with pytest.raises(ValueError):
            apply_rotary(RNG.normal(size=(1, 1, 1, 7)))  # odd head_dim


class TestRotaryModel:
    @pytest.fixture(scope="class")
    def model(self):
        return DenseTransformer(ROT_CFG, seed=3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="pos_encoding"):
            ModelConfig(name="b", hidden=8, layers=1, heads=2, vocab=9,
                        pos_encoding="alibi")
        with pytest.raises(ValueError, match="even head_dim"):
            ModelConfig(name="b", hidden=9, layers=1, heads=3, vocab=9,
                        pos_encoding="rotary")

    def test_rotary_differs_from_learned(self, model):
        learned = DenseTransformer(
            ModelConfig(name="l", hidden=32, layers=3, heads=4, vocab=61,
                        max_seq=48), seed=3)
        ids = np.array([[1, 2, 3]])
        assert not np.allclose(model.forward(ids), learned.forward(ids))

    def test_order_sensitivity(self, model):
        """Position information flows through RoPE, not the embeddings:
        the same final token with the same preceding *multiset* but a
        different *order* yields different logits."""
        a = model.forward(np.array([[9, 5, 9]]))
        b = model.forward(np.array([[5, 9, 9]]))
        assert not np.allclose(a[0, 2], b[0, 2])

    def test_uniform_tokens_give_uniform_outputs(self, model):
        """A subtle RoPE property: with identical tokens everywhere, every
        value vector is identical (values are not rotated), so attention
        returns the same vector at every position — unlike learned
        embeddings, RoPE adds no absolute-position signal to the values."""
        a = model.forward(np.array([[5, 5, 5]]))
        np.testing.assert_allclose(a[0, 0], a[0, 2], atol=1e-10)

    def test_kv_cache_exact_with_rotary(self, model):
        """The RoPE/KV-cache interplay (rotate once at absolute positions)
        must keep incremental decoding exact."""
        ids = np.array([[3, 1, 4, 1, 5, 9]])
        full = model.forward(ids)
        cache = KVCache(ROT_CFG.layers)
        model.forward(ids[:, :3], cache)
        l4 = model.forward(ids[:, 3:4], cache)
        l5 = model.forward(ids[:, 4:5], cache)
        np.testing.assert_allclose(l4[:, 0], full[:, 3], atol=1e-10)
        np.testing.assert_allclose(l5[:, 0], full[:, 4], atol=1e-10)

    def test_generation_cache_matches_nocache(self, model):
        prompt = np.array([[2, 7, 1]])
        np.testing.assert_array_equal(
            model.generate(prompt, 5, use_cache=True),
            model.generate(prompt, 5, use_cache=False),
        )

    def test_tensor_parallel_exact_with_rotary(self, model):
        """Head sharding commutes with RoPE (rotation is head-local)."""
        ids = np.array([[5, 9, 2, 7]])
        ref = model.forward(ids)
        for tp in (2, 4):
            np.testing.assert_allclose(
                tp_spmd_forward(tp, model, ids), ref, atol=1e-10
            )

    def test_staged_forward_exact_with_rotary(self, model):
        """Stage boundaries carry activations; the first stage embeds
        through the model, which adds no learned positions."""
        ids = np.array([[5, 9, 2, 7]])
        plans = partition_layers(ROT_CFG.layers, 3)
        np.testing.assert_array_equal(staged_forward(model, plans, ids),
                                      model.forward(ids))

    def test_checkpoint_roundtrip_preserves_encoding(self, model, tmp_path):
        from repro.model.checkpoint import load_checkpoint, save_checkpoint

        save_checkpoint(model, tmp_path / "c")
        loaded = load_checkpoint(tmp_path / "c")
        # NOTE: pos_encoding must survive the manifest.
        assert loaded.config.pos_encoding == "rotary"
        ids = np.array([[1, 2]])
        np.testing.assert_array_equal(loaded.forward(ids), model.forward(ids))
