"""KV cache: the per-layer key/value store of autoregressive decoding.

Sec. IV-B: generation caches each layer's keys and values so every new
token only computes attention against stored activations instead of
re-running the whole prefix. The cache footprint scales with concurrent
sequences and becomes the capacity limiter for large models — which is
what the activation-offloading of Sec. IV-C2 relieves.

This is the functional store; the offload *scheduling* (what moves over
PCIe when) lives in :mod:`repro.engine.offload`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KVCache", "HostOffloadKVCache"]


class KVCache:
    """Per-layer growing K/V tensors of shape (batch, heads, seq, head_dim)."""

    def __init__(self, num_layers: int) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.num_layers = num_layers
        self._k: list[np.ndarray | None] = [None] * num_layers
        self._v: list[np.ndarray | None] = [None] * num_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new K/V for ``layer`` and return the full cached tensors."""
        self._check_layer(layer)
        if k.shape != v.shape:
            raise ValueError("k and v must have identical shapes")
        if k.ndim != 4:
            raise ValueError("expected (batch, heads, seq, head_dim) tensors")
        if self._k[layer] is None:
            self._k[layer] = k.copy()
            self._v[layer] = v.copy()
        else:
            prev_k = self._k[layer]
            if prev_k.shape[0] != k.shape[0] or prev_k.shape[1] != k.shape[1]:
                raise ValueError("batch/heads mismatch with cached tensors")
            self._k[layer] = np.concatenate([prev_k, k], axis=2)
            self._v[layer] = np.concatenate([self._v[layer], v], axis=2)
        return self._k[layer], self._v[layer]

    def get(self, layer: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Current cached K/V for ``layer`` (None before first append)."""
        self._check_layer(layer)
        return self._k[layer], self._v[layer]

    def seq_len(self, layer: int = 0) -> int:
        """Cached sequence length (0 when empty)."""
        self._check_layer(layer)
        k = self._k[layer]
        return 0 if k is None else k.shape[2]

    @property
    def nbytes(self) -> int:
        """Total cache footprint — the quantity Sec. IV-C2 offloads."""
        total = 0
        for k, v in zip(self._k, self._v):
            if k is not None:
                total += k.nbytes + v.nbytes
        return total

    def free(self) -> None:
        """Drop every cached tensor — the uniform retirement hook shared
        with :class:`~repro.model.paged_kv.PagedKVCache` so engines can
        release any cache flavor the same way."""
        self._k = [None] * self.num_layers
        self._v = [None] * self.num_layers

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range [0, {self.num_layers})")


class HostOffloadKVCache(KVCache):
    """A KV cache whose per-layer tensors can park in host memory.

    Sec. IV-C2: cached activations have a predictable reuse pattern — a
    layer's K/V is idle until that layer runs for the next token — so
    they can live in DRAM between uses. This class makes the mechanism
    functional: :meth:`offload` moves a layer's tensors to the "host"
    side, any access transparently pages them back, and the byte
    counters expose the PCIe traffic the performance model prices
    (:func:`repro.engine.offload.kv_offload_stall_per_step`).
    """

    def __init__(self, num_layers: int) -> None:
        super().__init__(num_layers)
        self._host: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.bytes_offloaded = 0
        self.bytes_fetched = 0

    def offload(self, layer: int) -> None:
        """Move ``layer``'s K/V to host memory (no-op when empty/already)."""
        self._check_layer(layer)
        if layer in self._host or self._k[layer] is None:
            return
        k, v = self._k[layer], self._v[layer]
        self._host[layer] = (k, v)
        self.bytes_offloaded += k.nbytes + v.nbytes
        self._k[layer] = None
        self._v[layer] = None

    def is_offloaded(self, layer: int) -> bool:
        """True when ``layer``'s tensors currently rest on the host."""
        self._check_layer(layer)
        return layer in self._host

    def _page_in(self, layer: int) -> None:
        if layer in self._host:
            k, v = self._host.pop(layer)
            self.bytes_fetched += k.nbytes + v.nbytes
            self._k[layer] = k
            self._v[layer] = v

    def append(self, layer: int, k: np.ndarray, v: np.ndarray):
        """Page in if needed, then append (device-resident semantics)."""
        self._page_in(layer)
        return super().append(layer, k, v)

    def get(self, layer: int):
        """Page in if needed, then return the tensors."""
        self._page_in(layer)
        return super().get(layer)

    def seq_len(self, layer: int = 0) -> int:
        """Cached length — answerable without paging in."""
        self._check_layer(layer)
        if layer in self._host:
            return self._host[layer][0].shape[2]
        return super().seq_len(layer)

    def free(self) -> None:
        """Drop device *and* host copies (traffic counters survive so a
        retiring engine can still account the request's PCIe bytes)."""
        super().free()
        self._host.clear()

    @property
    def device_nbytes(self) -> int:
        """Bytes currently resident on the device."""
        return super().nbytes

    @property
    def nbytes(self) -> int:
        """Total cache footprint across device and host."""
        host = sum(k.nbytes + v.nbytes for k, v in self._host.values())
        return super().nbytes + host
