"""Paged KV cache: block-granular cache memory with a free-list allocator
and block-level copy-on-write prefix sharing.

Sec. IV-B identifies KV-cache capacity as the limiter for concurrent
sequences; contiguous per-sequence buffers waste memory on growth slack
and fragmentation. The paged design (popularized after the paper by
vLLM) carves cache memory into fixed-size blocks, grows each sequence's
cache one block at a time through an indirection table, and returns
blocks to a free list the moment a sequence finishes — so the feasible
batch tracks *actual* tokens, not worst-case lengths.

Block indirection buys a second capacity lever: two sequences that share
a token prefix (a chat turn continuing its conversation, an agent loop
re-submitting its context) can share the *physical* blocks holding that
prefix. :meth:`PagedKVCache.fork` clones a cache up to a prefix length
by aliasing its blocks (the allocator refcounts them); the first write
into a block that is still shared triggers a private copy, so neither
side can see the other's tokens (copy-on-write).

:class:`PagedKVCache` exposes the same interface as
:class:`~repro.model.kvcache.KVCache` (``append``/``get``/``seq_len``/
``nbytes``), so any decoder runs on it unchanged; tests pin exact
equality of decoding results plus the allocator's accounting invariants.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OutOfBlocks", "BlockAllocator", "PagedKVCache", "blocks_needed"]


def blocks_needed(
    seq_len: int,
    *,
    block_size: int,
    num_layers: int,
    shared_prefix_len: int = 0,
) -> int:
    """Pool blocks a ``seq_len``-position sequence occupies across all
    layers — the quantity an admission controller reserves against the
    shared pool (Sec. IV-B capacity gating).

    ``shared_prefix_len`` is the prefix the sequence inherits from a
    :meth:`PagedKVCache.fork` instead of allocating: the blocks covering
    those positions (``ceil(prefix / block_size)`` per layer) arrive by
    aliasing, so only the remainder needs fresh allocations. The prefix
    is clamped to ``seq_len``.
    """
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    if block_size < 1 or num_layers < 1:
        raise ValueError("block_size and num_layers must be >= 1")
    if shared_prefix_len < 0:
        raise ValueError("shared_prefix_len must be >= 0")
    prefix = min(shared_prefix_len, seq_len)
    total = -(-seq_len // block_size)
    inherited = -(-prefix // block_size)
    return num_layers * (total - inherited)


class OutOfBlocks(RuntimeError):
    """Raised when the block pool cannot satisfy an allocation."""


class BlockAllocator:
    """Fixed pool of cache blocks with O(1) alloc/free and per-block
    reference counts.

    A block is *owned* once per :meth:`alloc` and once more per
    :meth:`share` (a :meth:`PagedKVCache.fork` aliasing it);
    :meth:`free` drops one reference and only returns the block to the
    pool when the last owner lets go. ``refcount`` lets a cache decide
    whether a write may go in place or needs a private copy first.
    """

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.num_blocks = num_blocks
        self._free = list(range(num_blocks - 1, -1, -1))
        # Mirror of ``_free`` membership: the double-free guard used to
        # scan the free list (O(n) per free); the set makes it O(1).
        self._free_set = set(self._free)
        self._refs = [0] * num_blocks
        self.peak_used = 0

    @property
    def free_blocks(self) -> int:
        """Blocks currently available."""
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        """Blocks currently held by caches (shared blocks count once)."""
        return self.num_blocks - len(self._free)

    def refcount(self, block: int) -> int:
        """Live references to ``block`` (0 for a free block)."""
        self._check(block)
        return self._refs[block]

    def _check(self, block: int) -> None:
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range")

    def alloc(self) -> int:
        """Take one block id; raise :class:`OutOfBlocks` when exhausted."""
        if not self._free:
            raise OutOfBlocks(
                f"all {self.num_blocks} KV blocks are in use"
            )
        block = self._free.pop()
        self._free_set.discard(block)
        self._refs[block] = 1
        used = self.num_blocks - len(self._free)
        if used > self.peak_used:
            self.peak_used = used
        return block

    def share(self, block: int) -> int:
        """Add one reference to an allocated block (a fork aliasing it);
        returns the block id for chaining."""
        self._check(block)
        if self._refs[block] < 1:
            raise ValueError(f"cannot share free block {block}")
        self._refs[block] += 1
        return block

    def free(self, block: int) -> None:
        """Drop one reference; the block returns to the pool when the
        last reference is gone."""
        self._check(block)
        if block in self._free_set:
            raise ValueError(f"double free of block {block}")
        self._refs[block] -= 1
        if self._refs[block] == 0:
            self._free.append(block)
            self._free_set.add(block)


class PagedKVCache:
    """KV cache storing ``(batch, heads, seq, hd)`` growth in blocks.

    One logical cache serves one batch (like :class:`KVCache`); each
    (layer, kind) stream owns a list of block ids into a shared pool.
    Blocks hold ``block_size`` sequence positions for the whole batch.

    :meth:`fork` produces a child cache aliasing this cache's prefix
    blocks; writes into a still-shared block copy it first
    (:attr:`cow_copies` counts those), so forked caches never observe
    each other's appends.
    """

    def __init__(
        self,
        num_layers: int,
        allocator: BlockAllocator,
        *,
        block_size: int = 16,
    ) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_layers = num_layers
        self.block_size = block_size
        self.allocator = allocator
        # per layer: list of block ids, one shared length counter
        self._blocks: list[list[int]] = [[] for _ in range(num_layers)]
        self._len = [0] * num_layers
        # block storage created lazily once shapes are known
        self._store_k: dict[int, np.ndarray] = {}
        self._store_v: dict[int, np.ndarray] = {}
        self._shape: tuple | None = None  # (batch, heads, head_dim)
        self._freed = False
        self.cow_copies = 0

    # -- internals -----------------------------------------------------------

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range")
        if self._freed:
            raise RuntimeError("cache was freed")

    def _ensure_shape(self, k: np.ndarray) -> None:
        shape = (k.shape[0], k.shape[1], k.shape[3])
        if self._shape is None:
            self._shape = shape
        elif shape != self._shape:
            raise ValueError("batch/heads/head_dim mismatch with cache")

    def _grow(self, layer: int, new_len: int, dtype) -> None:
        b, h, d = self._shape
        needed = -(-new_len // self.block_size)  # ceil
        while len(self._blocks[layer]) < needed:
            blk = self.allocator.alloc()
            self._blocks[layer].append(blk)
            self._store_k[blk] = np.zeros((b, h, self.block_size, d), dtype)
            self._store_v[blk] = np.zeros((b, h, self.block_size, d), dtype)

    def _unshare(self, layer: int, start: int, end: int) -> None:
        """Copy-on-write: privatize every still-shared block the write
        ``[start, end)`` touches. The copy drops this cache's reference
        on the shared original and re-points the layer's table at a
        private duplicate, so the other owners keep their bytes."""
        first = start // self.block_size
        last = (end - 1) // self.block_size
        table = self._blocks[layer]
        for bi in range(first, min(last + 1, len(table))):
            blk = table[bi]
            if self.allocator.refcount(blk) < 2:
                continue
            copy = self.allocator.alloc()
            self._store_k[copy] = self._store_k[blk].copy()
            self._store_v[copy] = self._store_v[blk].copy()
            table[bi] = copy
            self._store_k.pop(blk)
            self._store_v.pop(blk)
            self.allocator.free(blk)  # drop our reference only
            self.cow_copies += 1

    def _write(self, store, layer: int, start: int, data: np.ndarray) -> None:
        pos = start
        remaining = data
        while remaining.shape[2]:
            blk = self._blocks[layer][pos // self.block_size]
            off = pos % self.block_size
            take = min(self.block_size - off, remaining.shape[2])
            store[blk][:, :, off : off + take] = remaining[:, :, :take]
            remaining = remaining[:, :, take:]
            pos += take

    def _gather(self, store, layer: int) -> np.ndarray:
        n = self._len[layer]
        parts = [store[blk] for blk in self._blocks[layer]]
        if not parts:
            return None
        return np.concatenate(parts, axis=2)[:, :, :n]

    # -- KVCache interface ----------------------------------------------------

    def append(self, layer: int, k: np.ndarray, v: np.ndarray):
        """Append new K/V; returns the full (gathered) cached tensors."""
        self._check_layer(layer)
        if k.shape != v.shape or k.ndim != 4:
            raise ValueError("expected matching (batch, heads, seq, hd)")
        self._ensure_shape(k)
        start = self._len[layer]
        new_len = start + k.shape[2]
        self._grow(layer, new_len, k.dtype)
        self._unshare(layer, start, new_len)
        self._write(self._store_k, layer, start, k)
        self._write(self._store_v, layer, start, v)
        self._len[layer] = new_len
        return self.get(layer)

    def get(self, layer: int):
        """Current cached K/V (contiguous views gathered from blocks)."""
        self._check_layer(layer)
        return (
            self._gather(self._store_k, layer),
            self._gather(self._store_v, layer),
        )

    def seq_len(self, layer: int = 0) -> int:
        """Cached positions for ``layer``."""
        self._check_layer(layer)
        return self._len[layer]

    def fork(self, prefix_len: int) -> "PagedKVCache":
        """A child cache sharing this cache's first ``prefix_len``
        positions by aliasing the covering blocks (no copies).

        The child starts with ``seq_len() == prefix_len`` on every
        layer and appends from there; positions a shared boundary block
        holds beyond the prefix are invisible to the child (its length
        truncates the gather) and are overwritten — after a
        copy-on-write privatization if the block is still shared — as
        the child grows. Both parent and child remain fully writable;
        :meth:`free` drops each side's references independently.
        """
        self._check_layer(0)
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        if any(n < prefix_len for n in self._len):
            raise ValueError(
                f"prefix_len {prefix_len} exceeds cached length "
                f"{min(self._len)}")
        child = PagedKVCache(self.num_layers, self.allocator,
                             block_size=self.block_size)
        child._shape = self._shape
        span = -(-prefix_len // self.block_size)  # ceil
        for layer in range(self.num_layers):
            for blk in self._blocks[layer][:span]:
                self.allocator.share(blk)
                child._blocks[layer].append(blk)
                child._store_k[blk] = self._store_k[blk]
                child._store_v[blk] = self._store_v[blk]
            child._len[layer] = prefix_len
        return child

    @property
    def nbytes(self) -> int:
        """Bytes held in referenced blocks (both K and V; blocks shared
        with a fork are counted in every cache referencing them)."""
        return sum(a.nbytes for a in self._store_k.values()) + sum(
            a.nbytes for a in self._store_v.values()
        )

    @property
    def blocks_held(self) -> int:
        """Blocks this cache currently references (shared ones included)."""
        return sum(len(bs) for bs in self._blocks)

    def free(self) -> None:
        """Drop every block reference (sequence finished); blocks shared
        with a live fork survive until the fork frees them too."""
        if self._freed:
            return
        for layer_blocks in self._blocks:
            for blk in layer_blocks:
                self.allocator.free(blk)
                self._store_k.pop(blk, None)
                self._store_v.pop(blk, None)
            layer_blocks.clear()
        self._len = [0] * self.num_layers
        self._freed = True
