"""A runnable ZeRO-Inference transformer: layers streamed from a tier.

This binds the functional pieces together as library code: a
:class:`StreamedTransformer` keeps its layer weights in a
:class:`~repro.zero.tiers.TieredWeightStore` (DRAM or NVMe), holds only a
bounded window of layers "on GPU" at a time, and runs the resident
:class:`~repro.model.dense.DenseTransformer`'s own ``forward`` and
``generate`` over a per-layer accessor that fetches each layer into
that window, so its logits equal the resident model's by bytes for
learned and rotary positions alike. It also supports the
*pin-weights-in-GPU* alternative Sec. VI-A discusses and rejects, so the
tradeoff (pinned layers avoid fetches but shrink the batch budget) can
be measured rather than asserted.
"""

from __future__ import annotations

import numpy as np

from ..hardware.topology import ClusterSpec
from ..model.dense import DenseTransformer
from .tiers import Tier, TieredWeightStore

__all__ = ["StreamedTransformer"]


class StreamedTransformer:
    """Layer-streaming executor around a functional dense model."""

    def __init__(
        self,
        model: DenseTransformer,
        cluster: ClusterSpec,
        *,
        tier: Tier = Tier.DRAM,
        window: int = 2,
        pinned_layers: int = 0,
    ) -> None:
        """``window`` bounds concurrently GPU-resident streamed layers
        (prefetch_depth + 1 in the performance model); ``pinned_layers``
        keeps the first k layers permanently resident (the rejected
        design alternative)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        num_layers = model.config.layers
        if not 0 <= pinned_layers <= num_layers:
            raise ValueError("pinned_layers out of range")
        self.model = model
        self.window = window
        self.pinned = set(range(pinned_layers))
        self.store = TieredWeightStore(cluster)
        self._resident: list[int] = []  # streamed layers currently "on GPU"
        self.fetches = 0
        for i, lw in enumerate(model.layers):
            blob = np.concatenate(
                [getattr(lw, f).ravel() for f in lw.__dataclass_fields__]
            )
            self.store.put(i, blob, Tier.GPU if i in self.pinned else tier)

    # -- residency management ------------------------------------------------

    def _ensure_resident(self, layer: int) -> None:
        """Fetch ``layer`` into the window, evicting FIFO when full."""
        if layer in self.pinned or layer in self._resident:
            return
        data = self.store.fetch(layer)
        expected = self.model.layers[layer].num_params
        if data.size != expected:
            raise RuntimeError(
                f"layer {layer} fetched {data.size} params, expected {expected}"
            )
        self.fetches += 1
        self._resident.append(layer)
        while len(self._resident) > self.window:
            self._resident.pop(0)

    @property
    def resident_layers(self) -> list[int]:
        """Streamed layers currently held (pinned layers excluded)."""
        return list(self._resident)

    # -- the dense model's surface ------------------------------------------
    # The one layer loop (``run_layers``) and every executor built on it —
    # the dense forward, the staged and pipelined executors, tensor
    # parallelism, RaggedDecoder and GenerationSession — read a model's
    # config, embeddings, final norm, MoE blocks and per-layer weight
    # accessor; delegating them here runs each of them directly over
    # streamed weights, with residency enforced per layer touch.

    @property
    def config(self):
        """The wrapped model's configuration."""
        return self.model.config

    @property
    def wte(self):
        """Token embedding (resident; only layer blocks stream)."""
        return self.model.wte

    @property
    def wpe(self):
        """Position embedding (resident)."""
        return self.model.wpe

    @property
    def lnf_g(self):
        return self.model.lnf_g

    @property
    def lnf_b(self):
        return self.model.lnf_b

    @property
    def moe_layers(self):
        """The wrapped model's MoE blocks (resident)."""
        return self.model.moe_layers

    def layer_weights(self, layer: int):
        """Fetch ``layer`` into the residency window and return its
        weights — the accessor every forward loop calls per layer."""
        self._ensure_resident(layer)
        return self.model.layers[layer]

    def embed(self, token_ids, pos0=0):
        """Delegate to the wrapped model's embedding."""
        return self.model.embed(token_ids, pos0)

    # -- execution -------------------------------------------------------
    # The resident model's own loop and checks, fetching each layer
    # through :meth:`layer_weights` as it is reached.
    forward = DenseTransformer.forward
    generate = DenseTransformer.generate

    # -- accounting ------------------------------------------------------

    @property
    def modeled_fetch_time(self) -> float:
        """Total modeled PCIe/NVMe time spent on fetches so far."""
        return self.store.total_fetch_time

    def fetches_per_forward(self) -> int:
        """Streamed (non-pinned) layers fetched by one forward pass."""
        return self.model.config.layers - len(self.pinned)
