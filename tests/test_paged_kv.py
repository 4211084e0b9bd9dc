"""Tests for the paged KV cache and its block allocator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.kvcache import KVCache
from repro.model.paged_kv import (
    BlockAllocator,
    OutOfBlocks,
    PagedKVCache,
    blocks_needed,
)

CFG = ModelConfig(name="paged-test", hidden=32, layers=3, heads=4, vocab=53,
                  max_seq=64)


class TestBlockAllocator:
    def test_alloc_free_roundtrip(self):
        a = BlockAllocator(4)
        blocks = [a.alloc() for _ in range(4)]
        assert sorted(blocks) == [0, 1, 2, 3]
        assert a.free_blocks == 0
        for b in blocks:
            a.free(b)
        assert a.free_blocks == 4

    def test_exhaustion_raises(self):
        a = BlockAllocator(1)
        a.alloc()
        with pytest.raises(OutOfBlocks):
            a.alloc()

    def test_double_free_detected(self):
        a = BlockAllocator(2)
        b = a.alloc()
        a.free(b)
        with pytest.raises(ValueError, match="double free"):
            a.free(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockAllocator(0)
        with pytest.raises(ValueError):
            BlockAllocator(2).free(5)

    def test_share_refcounts(self):
        a = BlockAllocator(2)
        b = a.alloc()
        assert a.refcount(b) == 1
        a.share(b)
        assert a.refcount(b) == 2
        a.free(b)  # one owner lets go; block still held
        assert a.refcount(b) == 1
        assert a.used_blocks == 1
        a.free(b)
        assert a.used_blocks == 0
        with pytest.raises(ValueError, match="double free"):
            a.free(b)

    def test_share_free_block_rejected(self):
        a = BlockAllocator(1)
        with pytest.raises(ValueError, match="share free block"):
            a.share(0)

    def test_peak_used_high_water(self):
        a = BlockAllocator(4)
        b0, b1, b2 = a.alloc(), a.alloc(), a.alloc()
        a.free(b1)
        a.free(b2)
        a.alloc()
        assert a.peak_used == 3
        a.free(b0)

    def test_double_free_guard_is_constant_time(self):
        """The guard consults the free-set, not a scan of the free list
        (satellite: O(n) -> O(1))."""
        a = BlockAllocator(4)
        blocks = [a.alloc() for _ in range(4)]
        for b in blocks:
            a.free(b)
        a._free.clear()  # membership truth lives in the set
        for b in blocks:
            with pytest.raises(ValueError, match="double free"):
                a.free(b)


class TestBlocksNeeded:
    def test_counts_all_layers(self):
        assert blocks_needed(17, block_size=16, num_layers=3) == 6

    def test_shared_prefix_discounts_inherited_blocks(self):
        # 40 positions = 3 blocks/layer; a 20-token prefix covers
        # ceil(20/16) = 2 of them by aliasing.
        assert blocks_needed(40, block_size=16, num_layers=2,
                             shared_prefix_len=20) == 2
        # Prefix clamped to the sequence itself.
        assert blocks_needed(8, block_size=16, num_layers=2,
                             shared_prefix_len=100) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            blocks_needed(-1, block_size=16, num_layers=1)
        with pytest.raises(ValueError):
            blocks_needed(4, block_size=0, num_layers=1)
        with pytest.raises(ValueError):
            blocks_needed(4, block_size=16, num_layers=1,
                          shared_prefix_len=-1)


class TestCopyOnWrite:
    def _fill(self, cache, n, seed=0, layers=1):
        rng = np.random.default_rng(seed)
        chunks = rng.normal(size=(1, 1, n, 2))
        for layer in range(layers):
            cache.append(layer, chunks, -chunks)
        return chunks

    def test_fork_aliases_prefix_blocks(self):
        a = BlockAllocator(16)
        parent = PagedKVCache(1, a, block_size=4)
        self._fill(parent, 10)  # 3 blocks
        used_before = a.used_blocks
        child = parent.fork(8)  # 2 covering blocks aliased
        assert a.used_blocks == used_before  # no fresh allocation
        assert sum(a.refcount(b) > 1 for b in range(a.num_blocks)) == 2
        assert child.seq_len(0) == 8
        k_child, _ = child.get(0)
        k_parent, _ = parent.get(0)
        np.testing.assert_array_equal(k_child, k_parent[:, :, :8])
        child.free()
        parent.free()
        assert a.used_blocks == 0

    def test_child_write_copies_shared_boundary_block(self):
        a = BlockAllocator(16)
        parent = PagedKVCache(1, a, block_size=4)
        self._fill(parent, 6)
        child = parent.fork(6)  # boundary block half full and shared
        before_k, _ = parent.get(0)
        before_k = before_k.copy()
        x = np.full((1, 1, 3, 2), 7.0)
        child.append(0, x, x)  # writes into the shared boundary block
        assert child.cow_copies == 1
        after_k, _ = parent.get(0)
        np.testing.assert_array_equal(after_k, before_k)  # parent intact
        k_child, _ = child.get(0)
        np.testing.assert_array_equal(k_child[:, :, 6:], x)
        parent.free()
        child.free()

    def test_parent_write_also_copies(self):
        """COW is symmetric: whichever side writes a still-shared block
        privatizes it."""
        a = BlockAllocator(16)
        parent = PagedKVCache(1, a, block_size=4)
        self._fill(parent, 6)
        child = parent.fork(6)
        k_child_before, _ = child.get(0)
        k_child_before = k_child_before.copy()
        x = np.full((1, 1, 2, 2), -3.0)
        parent.append(0, x, x)
        assert parent.cow_copies == 1
        k_child_after, _ = child.get(0)
        np.testing.assert_array_equal(k_child_after, k_child_before)
        parent.free()
        child.free()

    def test_freed_parent_lets_child_write_in_place(self):
        """The serving flow: parent freed at fork time drops refcounts to
        one, so the child appends without any copy."""
        a = BlockAllocator(16)
        parent = PagedKVCache(1, a, block_size=4)
        self._fill(parent, 8)
        child = parent.fork(8)
        parent.free()
        x = np.ones((1, 1, 4, 2))
        child.append(0, x, x)
        assert child.cow_copies == 0
        child.free()
        assert a.used_blocks == 0

    def test_fork_then_decode_matches_full_prefill(self):
        """A decoder continuing on a forked prefix produces the same
        logits as one that prefillled the whole prompt."""
        model = DenseTransformer(CFG, seed=41)
        alloc = BlockAllocator(256)
        prefix = np.array([[3, 1, 4, 1, 5]])
        suffix = np.array([[9, 2, 6]])
        parent = PagedKVCache(CFG.layers, alloc, block_size=4)
        model.forward(prefix, parent)
        child = parent.fork(prefix.shape[1])
        got = model.forward(suffix, child)
        full = PagedKVCache(CFG.layers, alloc, block_size=4)
        want = model.forward(np.concatenate([prefix, suffix], axis=1), full)
        np.testing.assert_allclose(got, want[:, prefix.shape[1]:], atol=1e-12)

    def test_fork_validation(self):
        a = BlockAllocator(8)
        c = PagedKVCache(1, a, block_size=4)
        self._fill(c, 4)
        with pytest.raises(ValueError, match="prefix_len"):
            c.fork(0)
        with pytest.raises(ValueError, match="exceeds cached length"):
            c.fork(5)


class TestPagedCacheSemantics:
    def test_append_get_roundtrip_across_blocks(self):
        a = BlockAllocator(32)
        c = PagedKVCache(1, a, block_size=4)
        rng = np.random.default_rng(3)
        chunks = [rng.normal(size=(2, 2, n, 8)) for n in (3, 4, 6, 1)]
        want_k = np.concatenate(chunks, axis=2)
        for ch in chunks:
            c.append(0, ch, ch * 2)
        got_k, got_v = c.get(0)
        np.testing.assert_allclose(got_k, want_k, atol=0)
        np.testing.assert_allclose(got_v, want_k * 2, atol=0)
        assert c.seq_len(0) == 14
        assert c.blocks_held == 4  # ceil(14/4)

    def test_decoding_exact_vs_contiguous_cache(self):
        """Any decoder runs unchanged on the paged cache."""
        model = DenseTransformer(CFG, seed=41)
        ids = np.array([[3, 1, 4, 1, 5, 9]])
        plain = KVCache(CFG.layers)
        paged = PagedKVCache(CFG.layers, BlockAllocator(256), block_size=4)
        outs_plain, outs_paged = [], []
        for t in range(ids.shape[1]):
            outs_plain.append(model.forward(ids[:, t : t + 1], plain))
            outs_paged.append(model.forward(ids[:, t : t + 1], paged))
        np.testing.assert_allclose(
            np.concatenate(outs_paged, axis=1),
            np.concatenate(outs_plain, axis=1),
            atol=1e-12,
        )

    def test_blocks_grow_with_tokens_not_worst_case(self):
        a = BlockAllocator(64)
        c = PagedKVCache(2, a, block_size=8)
        x = np.ones((1, 2, 1, 4))
        c.append(0, x, x)
        c.append(1, x, x)
        assert c.blocks_held == 2  # one block per layer, not max_seq worth

    def test_free_returns_blocks_for_reuse(self):
        a = BlockAllocator(4)
        c1 = PagedKVCache(1, a, block_size=2)
        x = np.ones((1, 1, 4, 4))
        c1.append(0, x, x)
        assert a.used_blocks == 2
        c1.free()
        assert a.used_blocks == 0
        # A new sequence can take the same blocks.
        c2 = PagedKVCache(1, a, block_size=2)
        c2.append(0, x, x)
        assert a.used_blocks == 2

    def test_pool_exhaustion_is_diagnosable(self):
        a = BlockAllocator(2)
        c = PagedKVCache(1, a, block_size=1)
        x = np.ones((1, 1, 2, 4))
        c.append(0, x, x)
        with pytest.raises(OutOfBlocks, match="in use"):
            c.append(0, x, x)

    def test_freed_cache_rejects_use(self):
        c = PagedKVCache(1, BlockAllocator(4))
        c.free()
        with pytest.raises(RuntimeError, match="freed"):
            c.seq_len(0)
        c.free()  # idempotent

    def test_shape_mismatch_rejected(self):
        c = PagedKVCache(1, BlockAllocator(8), block_size=2)
        c.append(0, np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            c.append(0, np.ones((2, 2, 1, 4)), np.ones((2, 2, 1, 4)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVCache(0, BlockAllocator(1))
        with pytest.raises(ValueError):
            PagedKVCache(1, BlockAllocator(1), block_size=0)
        c = PagedKVCache(1, BlockAllocator(1))
        with pytest.raises(IndexError):
            c.get(3)


@given(
    chunk_lens=st.lists(st.integers(min_value=1, max_value=7), min_size=1,
                        max_size=8),
    block_size=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_paged_roundtrip_property(chunk_lens, block_size):
    """Property: any append pattern gathers back exactly, and block usage
    is ceil(total / block_size)."""
    total = sum(chunk_lens)
    alloc = BlockAllocator(64)
    c = PagedKVCache(1, alloc, block_size=block_size)
    rng = np.random.default_rng(total)
    chunks = [rng.normal(size=(1, 1, n, 2)) for n in chunk_lens]
    for ch in chunks:
        c.append(0, ch, -ch)
    k, v = c.get(0)
    np.testing.assert_array_equal(k, np.concatenate(chunks, axis=2))
    np.testing.assert_array_equal(v, -k)
    assert c.blocks_held == -(-total // block_size)
    c.free()
    assert alloc.used_blocks == 0
