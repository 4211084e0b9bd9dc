"""Heterogeneous memory tiers for ZeRO-Inference (Sec. VI-A).

ZeRO-Inference pins model weights in DRAM or NVMe and streams layers into
GPU memory on demand. :class:`TieredWeightStore` is the functional
substrate: it places per-layer weight blobs into capacity-checked tiers,
serves fetches (returning the actual bytes, so the functional engine can
run real models this way), and reports the modeled fetch time of each
access so the performance layer and the functional layer stay in sync.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..hardware.specs import LinkSpec, NVMeSpec
from ..hardware.topology import ClusterSpec

__all__ = ["Tier", "FetchEvent", "TieredWeightStore", "placement_for"]


class Tier(enum.Enum):
    """Where a layer's weights rest (Sec. VI-A design decision)."""

    GPU = "gpu"
    DRAM = "dram"
    NVME = "nvme"


@dataclass(frozen=True)
class FetchEvent:
    """Record of one layer fetch: where from, how many bytes, model time."""

    layer: int
    tier: Tier
    nbytes: float
    time: float


def placement_for(total_bytes: float, cluster: ClusterSpec) -> Tier:
    """ZeRO-Inference's placement rule: DRAM if the model fits there,
    otherwise NVMe (GPU memory is deliberately *not* used for pinning —
    it buys batch size instead, Sec. VI-A)."""
    host = cluster.node.host
    if total_bytes <= host.usable_dram_bytes:
        return Tier.DRAM
    nvme = cluster.node.nvme
    if nvme is not None and total_bytes <= nvme.capacity_bytes * 0.95:
        return Tier.NVME
    raise ValueError(
        f"model of {total_bytes / 1e9:.0f} GB fits neither DRAM "
        f"({host.dram_bytes / 1e9:.0f} GB) nor NVMe"
    )


class TieredWeightStore:
    """Per-layer weight blobs resting in a tier, streamed over PCIe."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self._blobs: dict[int, tuple[Tier, np.ndarray]] = {}
        self._tier_usage: dict[Tier, float] = {t: 0.0 for t in Tier}
        self.fetch_log: list[FetchEvent] = []

    # -- placement ----------------------------------------------------------

    def _capacity(self, tier: Tier) -> float:
        node = self.cluster.node
        if tier is Tier.GPU:
            return node.gpu.memory_bytes
        if tier is Tier.DRAM:
            return node.host.dram_bytes
        if node.nvme is None:
            return 0.0
        return node.nvme.capacity_bytes

    def put(self, layer: int, data: np.ndarray, tier: Tier) -> None:
        """Place a layer's weights into ``tier`` (capacity checked)."""
        if layer in self._blobs:
            raise KeyError(f"layer {layer} already stored")
        nbytes = float(data.nbytes)
        if self._tier_usage[tier] + nbytes > self._capacity(tier):
            raise ValueError(
                f"tier {tier.value} over capacity storing layer {layer}"
            )
        self._blobs[layer] = (tier, data)
        self._tier_usage[tier] += nbytes

    def tier_of(self, layer: int) -> Tier:
        """Which tier holds ``layer``."""
        return self._blobs[layer][0]

    def usage(self, tier: Tier) -> float:
        """Bytes resident in ``tier``."""
        return self._tier_usage[tier]

    # -- fetch path ----------------------------------------------------------

    def fetch_time(self, layer: int) -> float:
        """Modeled time to bring one layer into one GPU's memory.

        DRAM-resident layers stream at PCIe speed; NVMe-resident layers at
        the slower of NVMe read and PCIe.
        """
        tier, data = self._blobs[layer]
        nbytes = float(data.nbytes)
        node = self.cluster.node
        pcie: LinkSpec = node.pcie
        if tier is Tier.GPU:
            return 0.0
        if tier is Tier.DRAM:
            return pcie.latency + nbytes / pcie.bandwidth
        nvme: NVMeSpec = node.nvme
        if nvme is None:
            raise RuntimeError("cluster has no NVMe tier")
        return nvme.latency + nbytes / min(nvme.read_bw, pcie.bandwidth)

    def fetch(self, layer: int) -> np.ndarray:
        """Return the layer's weights, logging the modeled one-GPU fetch."""
        tier, data = self._blobs[layer]
        self.fetch_log.append(
            FetchEvent(
                layer=layer,
                tier=tier,
                nbytes=float(data.nbytes),
                time=self.fetch_time(layer),
            )
        )
        return data

    @property
    def total_fetch_time(self) -> float:
        """Sum of modeled fetch times so far (no overlap)."""
        return sum(e.time for e in self.fetch_log)
