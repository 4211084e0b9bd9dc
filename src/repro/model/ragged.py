"""Ragged batched decoding: mixed-length sequences in one forward pass,
with rows joining and leaving mid-flight.

A serving engine rarely sees equal-length prompts, and under continuous
batching (Sec. IV-C1's dynamic queue) the batch *membership* changes
every few steps: finished sequences leave, queued ones join. The decoder
therefore keeps one KV cache **per row** — built by a pluggable
``cache_factory``, so rows can live in contiguous buffers
(:class:`~repro.model.kvcache.KVCache`), block-granular paged storage
(:class:`~repro.model.paged_kv.PagedKVCache` over a shared pool), or
host-offloadable caches — and assembles each step's attention by
gathering every row's cache, right-padding to the longest, and masking.

:meth:`add_rows` prefills new sequences into the running batch (one
forward for all joiners), :meth:`step` decodes one token for every row
in **one** forward regardless of batch composition, and
:meth:`drop_rows` retires rows, freeing their cache storage. Rows are
keyed by the caller's ids (a serving engine passes its request ids), so
the decoder's row order is the only record of the live batch.

Tested for *exact* agreement with running each prompt alone: padding,
masking, per-row positions and cache layout must be invisible in the
outputs, for both learned and rotary position encodings.
"""

from __future__ import annotations

import functools

import numpy as np

from ..kernels.functional import apply_rotary, scaled_dot_product_attention
from .dense import DenseTransformer, check_tokens, lm_head, run_layers
from .kvcache import KVCache

__all__ = ["RaggedDecoder"]


class RaggedDecoder:
    """Stateful batched decoder over dynamically composed, masked rows."""

    def __init__(self, model: DenseTransformer, *, cache_factory=None) -> None:
        """``cache_factory()`` builds one row's KV cache (default: a
        contiguous :class:`KVCache`); pass a factory closing over a
        shared :class:`~repro.model.paged_kv.BlockAllocator` for paged
        rows."""
        self.model = model
        self._cache_factory = cache_factory or (
            lambda: KVCache(model.config.layers)
        )
        self._rows: dict = {}  # caller's row id -> KV cache, batch order
        self.forward_calls = 0

    @property
    def batch(self) -> int:
        """Rows currently being decoded."""
        return len(self._rows)

    @property
    def row_ids(self) -> list:
        """The caller's ids of the live rows, in batch order."""
        return list(self._rows)

    # -- internals -----------------------------------------------------------

    def _attend(self, caches, positions, new_lens, layer_idx, q, k, v):
        """The ragged attention core: appends each row's valid slice of
        new K/V to that row's cache, then attends against the gathered,
        right-padded union at per-row positions."""
        if self.model.config.pos_encoding == "rotary":
            q = apply_rotary(q, positions=positions)
            k = apply_rotary(k, positions=positions)
        ks, vs = [], []
        for i, cache in enumerate(caches):
            kf, vf = cache.append(
                layer_idx, k[i : i + 1, :, : new_lens[i]],
                v[i : i + 1, :, : new_lens[i]],
            )
            ks.append(kf)
            vs.append(vf)
        lens = np.array([t.shape[2] for t in ks])
        b, max_len = len(caches), int(lens.max())
        heads, hd = ks[0].shape[1], ks[0].shape[3]
        kb = np.zeros((b, heads, max_len, hd), dtype=ks[0].dtype)
        vb = np.zeros_like(kb)
        for i in range(b):
            kb[i, :, : lens[i]] = ks[i][0]
            vb[i, :, : lens[i]] = vs[i][0]
        idx = np.arange(max_len)
        key_valid = idx[None, :] < lens[:, None]
        # Per-row caches hold only real tokens, so key positions are
        # simply 0..len-1; padded slots carry in-range ids but are masked.
        key_pos = np.broadcast_to(idx, (b, max_len))
        return scaled_dot_product_attention(
            q, kb, vb,
            causal=True,
            key_mask=key_valid,
            query_positions=positions,
            key_positions=key_pos,
        )

    def _forward(self, ids, positions, caches, new_lens) -> np.ndarray:
        self.forward_calls += 1
        model = self.model
        x = model.wte[ids]
        if model.config.pos_encoding == "learned":
            x = x + model.wpe[positions]
        x = run_layers(model, x, range(model.config.layers),
                       functools.partial(self._attend, caches, positions,
                                         new_lens))
        return lm_head(model, x)

    # -- public API ----------------------------------------------------------

    def add_rows(
        self,
        row_ids: list,
        prompts: list[np.ndarray],
        *,
        prefixes: list | None = None,
    ) -> np.ndarray:
        """Prefill new sequences into the batch (one forward for all).

        ``row_ids`` names the new rows, one caller's id per prompt; they
        join the end of the batch in this order and must not be live.
        ``prefixes`` (optional, one entry per prompt) attaches a row to
        an existing KV cache — typically a
        :meth:`~repro.model.paged_kv.PagedKVCache.fork` holding a shared
        conversation prefix. An entry of ``None`` builds a fresh cache
        via the factory; a cache with ``seq_len() == n`` means the row's
        first ``n`` prompt tokens are *already cached* (they must equal
        the tokens the cache was built from), so only the remaining
        suffix runs through the forward, at positions ``n..len-1``.

        Returns each new row's next-token logits, shape
        ``(len(prompts), vocab)``.
        """
        if not prompts:
            raise ValueError("need at least one prompt")
        row_ids = list(row_ids)
        fresh = set(row_ids).difference(self._rows)
        if not len(row_ids) == len(fresh) == len(prompts):
            raise ValueError("row_ids must name one new, distinct row per "
                             f"prompt; got {row_ids}")
        lengths = np.array([np.asarray(p).size for p in prompts])
        if (lengths < 1).any():
            raise ValueError("every prompt needs at least one token")
        for p, n in zip(prompts, lengths):
            check_tokens(self.model.config, p, n)
        if prefixes is None:
            prefixes = [None] * len(prompts)
        if len(prefixes) != len(prompts):
            raise ValueError("prefixes must match prompts one-to-one")
        offsets = np.zeros(len(prompts), dtype=int)
        for i, cache in enumerate(prefixes):
            if cache is None:
                continue
            offsets[i] = cache.seq_len()
            if not 0 < offsets[i] < lengths[i]:
                raise ValueError(
                    f"prefix cache of row {i} holds {offsets[i]} positions; "
                    f"need 1 <= cached < prompt length {lengths[i]}")
        new_lens = lengths - offsets
        b, max_new = len(prompts), int(new_lens.max())
        ids = np.zeros((b, max_new), dtype=int)
        for i, p in enumerate(prompts):
            ids[i, : new_lens[i]] = np.asarray(p).ravel()[offsets[i]:]
        idx = np.arange(max_new)
        # Right padding keeps real tokens at their solo positions
        # offset..len-1 (offset 0 for fresh rows); pads carry in-range
        # position ids but are masked out of attention.
        positions = offsets[:, None] + np.broadcast_to(idx, (b, max_new))
        caches = [c if c is not None else self._cache_factory()
                  for c in prefixes]
        try:
            logits = self._forward(ids, positions, caches, new_lens)
        except Exception:
            for cache in caches:  # return any partially allocated blocks
                cache.free()
            raise
        self._rows.update(zip(row_ids, caches))
        return logits[np.arange(b), new_lens - 1]

    def step(self, tokens: np.ndarray) -> np.ndarray:
        """Append one token per row — **one forward** for the whole batch;
        returns next-token logits ``(batch, vocab)`` in row order."""
        if not self._rows:
            raise RuntimeError("no live rows; call add_rows first")
        tokens = np.asarray(tokens, dtype=int).reshape(-1, 1)
        if tokens.shape[0] != self.batch:
            raise ValueError(f"expected {self.batch} tokens")
        caches = list(self._rows.values())
        positions = np.array([[c.seq_len()] for c in caches])
        check_tokens(self.model.config, tokens, int(positions.max()) + 1)
        logits = self._forward(
            tokens, positions, caches, np.ones(self.batch, dtype=int)
        )
        return logits[:, -1]

    def drop_rows(self, row_ids: list) -> None:
        """Retire rows and free their cache storage (paged rows return
        their blocks to the shared pool immediately)."""
        for rid in row_ids:
            self._rows.pop(rid).free()

    def detach_row(self, row_id):
        """Retire a row but keep its cache alive; returns the cache.

        The prefix-sharing engine parks a finished conversation turn's
        cache this way so the next turn can :meth:`~repro.model.paged_kv
        .PagedKVCache.fork` it instead of re-prefilling; the caller owns
        the returned cache and must eventually ``free()`` it."""
        return self._rows.pop(row_id)

    def generate(self, prompts: list[np.ndarray], num_tokens: int) -> list[np.ndarray]:
        """Greedy-decode ``num_tokens`` per row of an empty decoder;
        returns full sequences.

        Exactly equivalent to ``model.generate`` on each prompt alone.
        """
        if num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        if self._rows:
            raise RuntimeError("generate needs an empty decoder")
        logits = self.add_rows(range(len(prompts)), prompts)
        outs = [list(np.asarray(p).ravel()) for p in prompts]
        next_tok = logits.argmax(axis=-1)
        for i in range(self.batch):
            outs[i].append(int(next_tok[i]))
        for _ in range(num_tokens - 1):
            logits = self.step(next_tok)
            next_tok = logits.argmax(axis=-1)
            for i in range(self.batch):
                outs[i].append(int(next_tok[i]))
        return [np.array(o) for o in outs]
