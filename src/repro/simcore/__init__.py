"""Discrete-event simulation core used by schedule and overlap models."""

from .engine import Process, SimulationError, Simulator
from .events import Acquire, Event, Release, Timeout, Wait
from .resources import BandwidthLink, SlotResource, transfer
from .trace import Span, Timeline

__all__ = [
    "Acquire",
    "BandwidthLink",
    "Event",
    "Process",
    "Release",
    "SimulationError",
    "Simulator",
    "SlotResource",
    "Span",
    "Timeline",
    "Timeout",
    "Wait",
    "transfer",
]
