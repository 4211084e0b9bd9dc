"""Tests for the host-offloadable KV cache (Sec. IV-C2, functionally)."""

import numpy as np
import pytest

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import HostOffloadKVCache, KVCache

CFG = ModelConfig(name="kvoff-test", hidden=32, layers=4, heads=4, vocab=41,
                  max_seq=32)


def fill(cache, layer, seq=3):
    k = np.random.default_rng(layer).normal(size=(1, 2, seq, 4))
    cache.append(layer, k, k + 1)
    return k


class TestHostOffload:
    def test_offload_moves_bytes_off_device(self):
        c = HostOffloadKVCache(2)
        k = fill(c, 0)
        before = c.device_nbytes
        c.offload(0)
        assert c.is_offloaded(0)
        assert c.device_nbytes == 0
        assert c.nbytes == before  # total footprint unchanged
        assert c.bytes_offloaded == before

    def test_access_pages_back_transparently(self):
        c = HostOffloadKVCache(1)
        k = fill(c, 0)
        c.offload(0)
        got_k, got_v = c.get(0)
        np.testing.assert_array_equal(got_k, k)
        assert not c.is_offloaded(0)
        assert c.bytes_fetched == c.bytes_offloaded

    def test_append_after_offload(self):
        c = HostOffloadKVCache(1)
        fill(c, 0, seq=2)
        c.offload(0)
        extra = np.ones((1, 2, 1, 4))
        full_k, _ = c.append(0, extra, extra)
        assert full_k.shape[2] == 3
        assert not c.is_offloaded(0)

    def test_seq_len_answerable_while_offloaded(self):
        c = HostOffloadKVCache(1)
        fill(c, 0, seq=5)
        c.offload(0)
        assert c.seq_len(0) == 5
        assert c.is_offloaded(0)  # the query did not page in

    def test_offload_empty_layer_is_noop(self):
        c = HostOffloadKVCache(2)
        c.offload(1)
        assert not c.is_offloaded(1)
        assert c.bytes_offloaded == 0

    def test_double_offload_idempotent(self):
        c = HostOffloadKVCache(1)
        fill(c, 0)
        c.offload(0)
        first = c.bytes_offloaded
        c.offload(0)
        assert c.bytes_offloaded == first

    def test_layer_bounds(self):
        c = HostOffloadKVCache(1)
        with pytest.raises(IndexError):
            c.offload(1)


class TestDecodingWithOffload:
    def test_generation_exact_under_aggressive_offloading(self):
        """Offloading every layer after every step must not change logits —
        the correctness contract behind Sec. IV-C2."""
        model = DenseTransformer(CFG, seed=21)
        ids = np.array([[3, 1, 4, 1, 5]])
        want = model.forward(ids)

        cache = HostOffloadKVCache(CFG.layers)
        outs = []
        for t in range(ids.shape[1]):
            outs.append(model.forward(ids[:, t : t + 1], cache))
            for layer in range(CFG.layers):
                cache.offload(layer)
        got = np.concatenate(outs, axis=1)
        np.testing.assert_allclose(got, want, atol=1e-10)
        # Every step after the first paged every layer back in.
        assert cache.bytes_fetched > 0

    def test_traffic_accounting_matches_round_trips(self):
        model = DenseTransformer(CFG, seed=22)
        cache = HostOffloadKVCache(CFG.layers)
        model.forward(np.array([[1, 2]]), cache)
        step_bytes = cache.device_nbytes
        for layer in range(CFG.layers):
            cache.offload(layer)
        model.forward(np.array([[3]]), cache)
        # Everything offloaded came back exactly once.
        assert cache.bytes_fetched == step_bytes
        assert cache.bytes_offloaded == step_bytes

    def test_plain_cache_has_no_offload_api(self):
        assert not hasattr(KVCache(1), "offload")
