"""Device-memory accounting.

Inference at scale is frequently *capacity* limited rather than compute
limited: KV caches grow with concurrent sequences (Sec. IV-B), pipeline
stages must hold their weight shards, and ZeRO-Inference deliberately
restricts the GPU-resident weight footprint to a couple of layers so the
freed capacity can buy batch size (Sec. VI-A).

:class:`MemoryPool` is a simple reservation ledger used by the planners
and engines to decide the largest feasible batch size and to raise early,
readable errors when a configuration cannot fit — the functional analogue
of a CUDA OOM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["OutOfDeviceMemory", "Reservation", "MemoryPool"]


class OutOfDeviceMemory(RuntimeError):
    """Raised when a reservation exceeds remaining device capacity."""


@dataclass(frozen=True)
class Reservation:
    """One named allocation inside a :class:`MemoryPool`."""

    tag: str
    nbytes: float


@dataclass
class MemoryPool:
    """Tracks reservations against a fixed capacity.

    The pool is deliberately not an allocator (no addresses, no
    fragmentation model): the quantities that drive the paper's design
    decisions are aggregate footprints, so a ledger suffices.
    """

    capacity: float
    reserve_fraction: float = 0.08  # framework/cuda context head-room
    _items: list[Reservation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.capacity < math.inf:
            raise ValueError("capacity must be finite and positive")
        if not 0 <= self.reserve_fraction < 1:
            raise ValueError("reserve_fraction must lie in [0, 1)")

    @property
    def usable(self) -> float:
        """Capacity left after the framework head-room."""
        return self.capacity * (1.0 - self.reserve_fraction)

    @property
    def used(self) -> float:
        """Sum of live reservations."""
        return sum(r.nbytes for r in self._items)

    @property
    def free(self) -> float:
        """Bytes still available for new reservations."""
        return self.usable - self.used

    def reserve(self, tag: str, nbytes: float) -> Reservation:
        """Reserve ``nbytes`` under ``tag``; raise if it does not fit."""
        if not 0 <= nbytes < math.inf:
            raise ValueError("reservation size must be finite and >= 0")
        if nbytes > self.free:
            raise OutOfDeviceMemory(
                f"cannot reserve {nbytes / 1e9:.2f} GB for {tag!r}: "
                f"{self.free / 1e9:.2f} GB free of {self.usable / 1e9:.2f} GB usable"
            )
        r = Reservation(tag, nbytes)
        self._items.append(r)
        return r

    def release(self, reservation: Reservation) -> None:
        """Release a previously made reservation."""
        try:
            self._items.remove(reservation)
        except ValueError:
            raise KeyError(f"reservation {reservation.tag!r} is not live") from None

    def would_fit(self, nbytes: float) -> bool:
        """True if ``nbytes`` could be reserved right now."""
        return 0 <= nbytes <= self.free

    def breakdown(self) -> dict[str, float]:
        """Aggregate live reservations by tag."""
        out: dict[str, float] = {}
        for r in self._items:
            out[r.tag] = out.get(r.tag, 0.0) + r.nbytes
        return out
