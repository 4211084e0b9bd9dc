"""Layer streaming with prefetch: the ZeRO-Inference execution pipeline.

Sec. VI-B: while layer ``i`` computes, the prefetcher pulls layers
``i+1 .. i+depth`` over PCIe into spare GPU buffers. One PCIe link
fetches layers in order, ``depth + 1`` weight buffers bound how far it
runs ahead, and one compute stream runs the layers in order; timing that
recurrence makes the fetch/compute overlap, the prefetch-depth benefit
(Fig. 10c) and its diminishing returns at high arithmetic intensity
emerge rather than being asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..model.config import _as_index
from ..simcore import Timeline

__all__ = ["StreamReport", "simulate_layer_stream"]


@dataclass(frozen=True)
class StreamReport:
    """Outcome of streaming one forward pass."""

    makespan: float
    compute_time: float
    fetch_time: float
    prefetch_depth: int
    timeline: Timeline

    @property
    def overlap_efficiency(self) -> float:
        """How close the pipeline gets to the max(compute, fetch) bound."""
        bound = max(self.compute_time, self.fetch_time)
        return bound / self.makespan if self.makespan > 0 else 0.0


def simulate_layer_stream(
    *,
    num_layers: int,
    fetch_time_per_layer: float,
    compute_time_per_layer: float,
    prefetch_depth: int = 1,
) -> StreamReport:
    """Time one forward pass of a layer-streamed model.

    ``prefetch_depth`` is the number of layers fetched *ahead* of the one
    computing (0 = fully synchronous fetch-then-compute). Buffer count is
    ``prefetch_depth + 1`` — the GPU-memory cost Sec. VI-B trades for
    throughput.
    """
    for name, count in (("num_layers", num_layers),
                        ("prefetch_depth", prefetch_depth)):
        _as_index(name, count)
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if prefetch_depth < 0:
        raise ValueError("prefetch_depth must be >= 0")
    if not (0 <= fetch_time_per_layer < math.inf
            and 0 < compute_time_per_layer < math.inf):
        raise ValueError("invalid per-layer times")

    # Fetch i needs a free buffer: the one layer i - depth - 1 releases
    # when its compute ends. Compute i needs fetch i and compute i - 1.
    timeline = Timeline()
    fetch_end = compute_end = 0.0
    compute_ends: list[float] = []
    for i in range(num_layers):
        start = fetch_end
        if i > prefetch_depth:
            start = max(start, compute_ends[i - prefetch_depth - 1])
        fetch_end = start + fetch_time_per_layer
        timeline.record("pcie", start, fetch_end, f"fetch-{i}")
        start = max(fetch_end, compute_end)
        compute_end = start + compute_time_per_layer
        timeline.record("gpu", start, compute_end, f"layer-{i}")
        compute_ends.append(compute_end)
    return StreamReport(
        makespan=compute_end,
        compute_time=num_layers * compute_time_per_layer,
        fetch_time=num_layers * fetch_time_per_layer,
        prefetch_depth=prefetch_depth,
        timeline=timeline,
    )
