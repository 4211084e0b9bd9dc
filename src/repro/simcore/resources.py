"""Contention-aware resources for the simulator.

Two kinds cover everything the paper's schedules need:

* :class:`SlotResource` — a FIFO, capacity-``k`` semaphore. A GPU's compute
  stream is a capacity-1 slot (one kernel region at a time); a bounded
  micro-batch queue is a capacity-``k`` slot.
* :class:`BandwidthLink` — a serially-shared transport (PCIe lane,
  inter-stage P2P channel). Transfers queue FIFO and occupy the link for
  ``latency + bytes/bandwidth``. PCIe sharing between GPU pairs
  (Sec. IV-C3) is modeled by handing the *same* link object to both GPUs,
  so contention — and the paper's odd/even remedy — plays out in the
  simulation.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Generator

from .engine import Process, SimulationError, Simulator
from .events import Acquire, Release, Timeout

__all__ = ["SlotResource", "BandwidthLink", "transfer"]


class SlotResource:
    """FIFO semaphore with ``capacity`` slots."""

    def __init__(self, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name or "slot"
        self._in_use = 0
        self._queue: deque[Process] = deque()

    # engine-facing hooks -----------------------------------------------

    def _acquire(self, sim: Simulator, proc: Process) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            sim._resume(proc)
        else:
            self._queue.append(proc)

    def _release(self, sim: Simulator) -> None:
        if self._in_use == 0:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._queue:
            nxt = self._queue.popleft()
            sim._resume(nxt)  # slot transfers directly to next waiter
        else:
            self._in_use -= 1


class BandwidthLink(SlotResource):
    """A serially-shared transport with alpha-beta transfer cost."""

    def __init__(self, bandwidth: float, latency: float = 0.0, name: str = "") -> None:
        super().__init__(capacity=1, name=name or "link")
        if not 0 < bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and positive")
        self.bandwidth = bandwidth
        self.latency = latency
        self.busy_time = 0.0  # accumulated occupancy, for utilization reports

    def occupancy(self, nbytes: float) -> float:
        """Time the link is held for one transfer of ``nbytes``."""
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and >= 0")
        return self.latency + nbytes / self.bandwidth


def transfer(link: BandwidthLink, nbytes: float) -> Generator:
    """Process fragment: move ``nbytes`` across ``link`` (FIFO, exclusive).

    Usage inside a process::

        yield from transfer(pcie, layer_bytes)
    """
    hold = link.occupancy(nbytes)
    yield Acquire(link)
    try:
        yield Timeout(hold)
        link.busy_time += hold
    finally:
        yield Release(link)
