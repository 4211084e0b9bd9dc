"""Event primitives for the discrete-event simulator.

The simulator is a classic calendar-queue design: a heap of
``(time, sequence, Event)`` entries. Processes are Python generators that
yield *commands* (:class:`Timeout`, :class:`Wait`, :class:`Acquire`,
:class:`Release`); the engine interprets each command, schedules the
corresponding wake-up, and resumes the generator with the command's
result. Sequence numbers break time ties deterministically so simulations
are exactly reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

__all__ = ["Event", "Timeout", "Wait", "Acquire", "Release", "Command"]


class Event:
    """A one-shot event processes can wait on and that carries a value.

    Unlike threading events, simulator events remember the trigger value
    so that producer processes can hand results to consumers (used to move
    micro-batch activations between pipeline stages).
    """

    _ids = itertools.count()

    def __init__(self, name: str = "") -> None:
        self.name = name or f"event-{next(self._ids)}"
        self.triggered = False
        self.value: Any = None
        self.waiters: list[Any] = []  # processes parked on this event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "set" if self.triggered else "unset"
        return f"<Event {self.name} {state}>"


@dataclass(frozen=True)
class Timeout:
    """Suspend the yielding process for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if not 0 <= self.delay < math.inf:
            raise ValueError("cannot time-travel: delay must be finite "
                             "and >= 0")


@dataclass(frozen=True)
class Wait:
    """Suspend until ``event`` triggers; resumes with the event's value."""

    event: Event


@dataclass(frozen=True)
class Acquire:
    """Acquire one slot of a resource (FIFO); resumes when granted."""

    resource: Any


@dataclass(frozen=True)
class Release:
    """Release one previously acquired slot of a resource."""

    resource: Any


Command = Timeout | Wait | Acquire | Release
