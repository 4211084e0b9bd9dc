"""Tests for the functional dense GPT model and KV cache."""

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache

TINY = ModelConfig(name="tiny", hidden=32, layers=3, heads=4, vocab=97, max_seq=64)


@pytest.fixture(scope="module")
def model():
    return DenseTransformer(TINY, seed=1)


class TestForward:
    def test_logit_shape(self, model):
        ids = np.array([[1, 2, 3, 4]])
        assert model.forward(ids).shape == (1, 4, TINY.vocab)

    def test_batched(self, model):
        ids = np.array([[1, 2], [3, 4], [5, 6]])
        assert model.forward(ids).shape == (3, 2, TINY.vocab)

    def test_batch_independence(self, model):
        a = model.forward(np.array([[1, 2, 3]]))
        both = model.forward(np.array([[1, 2, 3], [9, 8, 7]]))
        np.testing.assert_allclose(both[0], a[0], atol=1e-12)

    def test_causality(self, model):
        """Changing a later token must not affect earlier logits."""
        x = np.array([[5, 6, 7, 8]])
        y = np.array([[5, 6, 7, 42]])
        lx, ly = model.forward(x), model.forward(y)
        np.testing.assert_allclose(lx[0, :3], ly[0, :3], atol=1e-12)
        assert not np.allclose(lx[0, 3], ly[0, 3])

    def test_out_of_vocab_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward(np.array([[TINY.vocab]]))
        with pytest.raises(ValueError):
            model.forward(np.array([[-1]]))

    def test_too_long_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, TINY.max_seq + 1), dtype=int))

    def test_deterministic_given_seed(self):
        a = DenseTransformer(TINY, seed=5).forward(np.array([[1, 2]]))
        b = DenseTransformer(TINY, seed=5).forward(np.array([[1, 2]]))
        np.testing.assert_array_equal(a, b)


class TestKVCachedDecoding:
    """KV caching is exact: incremental forward == full recomputation."""

    def test_incremental_matches_full(self, model):
        ids = np.array([[3, 1, 4, 1, 5, 9]])
        full = model.forward(ids)
        cache = KVCache(TINY.layers)
        step_logits = []
        for t in range(ids.shape[1]):
            step_logits.append(model.forward(ids[:, t : t + 1], cache))
        inc = np.concatenate(step_logits, axis=1)
        np.testing.assert_allclose(inc, full, atol=1e-10)

    def test_prompt_then_steps(self, model):
        ids = np.array([[3, 1, 4, 1, 5, 9]])
        full = model.forward(ids)
        cache = KVCache(TINY.layers)
        model.forward(ids[:, :4], cache)  # prompt phase
        l5 = model.forward(ids[:, 4:5], cache)
        l6 = model.forward(ids[:, 5:6], cache)
        np.testing.assert_allclose(l5[:, 0], full[:, 4], atol=1e-10)
        np.testing.assert_allclose(l6[:, 0], full[:, 5], atol=1e-10)

    def test_generate_cache_matches_nocache(self, model):
        prompt = np.array([[2, 7, 1, 8]])
        with_cache = model.generate(prompt, 5, use_cache=True)
        without = model.generate(prompt, 5, use_cache=False)
        np.testing.assert_array_equal(with_cache, without)

    def test_generate_shape_and_prefix(self, model):
        prompt = np.array([[2, 7, 1], [6, 6, 6]])
        out = model.generate(prompt, 4)
        assert out.shape == (2, 7)
        np.testing.assert_array_equal(out[:, :3], prompt)

    def test_generate_validates(self, model):
        with pytest.raises(ValueError):
            model.generate(np.array([[1]]), 0)


class TestKVCache:
    def test_append_and_grow(self):
        c = KVCache(2)
        k = np.ones((1, 2, 3, 4))
        v = np.zeros((1, 2, 3, 4))
        fk, fv = c.append(0, k, v)
        assert fk.shape == (1, 2, 3, 4)
        fk, fv = c.append(0, k, v)
        assert fk.shape == (1, 2, 6, 4)
        assert c.seq_len(0) == 6 and c.seq_len(1) == 0

    def test_nbytes_counts_both_tensors(self):
        c = KVCache(1)
        k = np.ones((1, 1, 2, 2))
        c.append(0, k, k)
        assert c.nbytes == 2 * k.nbytes

    def test_shape_validation(self):
        c = KVCache(1)
        with pytest.raises(ValueError):
            c.append(0, np.ones((1, 2, 3, 4)), np.ones((1, 2, 3, 5)))
        with pytest.raises(ValueError):
            c.append(0, np.ones((2, 3, 4)), np.ones((2, 3, 4)))
        c.append(0, np.ones((1, 2, 3, 4)), np.ones((1, 2, 3, 4)))
        with pytest.raises(ValueError):
            c.append(0, np.ones((2, 2, 1, 4)), np.ones((2, 2, 1, 4)))

    def test_layer_bounds(self):
        c = KVCache(2)
        with pytest.raises(IndexError):
            c.get(2)
        with pytest.raises(IndexError):
            c.seq_len(-1)

    def test_empty_construction(self):
        with pytest.raises(ValueError):
            KVCache(0)
