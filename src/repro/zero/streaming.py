"""Layer streaming with prefetch: the ZeRO-Inference execution pipeline.

Sec. VI-B: while layer ``i`` computes, the prefetcher pulls layers
``i+1 .. i+depth`` over PCIe into spare GPU buffers. The pipeline is
simulated with the discrete-event engine: the PCIe link is an exclusive
resource, prefetch buffers a bounded slot pool, and compute a serial
stream — so the fetch/compute overlap, the prefetch-depth benefit
(Fig. 10c) and its diminishing returns at high arithmetic intensity all
emerge rather than being asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..simcore import (
    Acquire,
    Event,
    Release,
    Simulator,
    SlotResource,
    Timeline,
    Timeout,
    Wait,
    transfer,
)
from ..simcore.resources import BandwidthLink

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
    """Simulate one forward pass of a layer-streamed model.

    ``prefetch_depth`` is the number of layers fetched *ahead* of the one
    computing (0 = fully synchronous fetch-then-compute). Buffer count is
    ``prefetch_depth + 1`` — the GPU-memory cost Sec. VI-B trades for
    throughput.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if prefetch_depth < 0:
        raise ValueError("prefetch_depth must be >= 0")
    if not (0 <= fetch_time_per_layer < math.inf
            and 0 < compute_time_per_layer < math.inf):
        raise ValueError("invalid per-layer times")

    sim = Simulator()
    timeline = Timeline()
    pcie = BandwidthLink(bandwidth=1.0, latency=0.0, name="pcie")
    buffers = SlotResource(prefetch_depth + 1, name="weight-buffers")
    fetched = [Event(f"layer-{i}-ready") for i in range(num_layers)]

    def fetcher():
        for i in range(num_layers):
            yield Acquire(buffers)  # a free weight buffer
            start = sim.now
            yield from transfer(pcie, fetch_time_per_layer)  # bw=1: time==bytes
            timeline.record("pcie", start, sim.now, f"fetch-{i}")
            sim.trigger(fetched[i])

    def computer():
        for i in range(num_layers):
            yield Wait(fetched[i])
            start = sim.now
            yield Timeout(compute_time_per_layer)
            timeline.record("gpu", start, sim.now, f"layer-{i}")
            yield Release(buffers)  # weights of layer i no longer needed

    sim.spawn(fetcher(), name="fetcher")
    sim.spawn(computer(), name="computer")
    makespan = sim.run()
    return StreamReport(
        makespan=makespan,
        compute_time=num_layers * compute_time_per_layer,
        fetch_time=num_layers * fetch_time_per_layer,
        prefetch_depth=prefetch_depth,
        timeline=timeline,
    )
