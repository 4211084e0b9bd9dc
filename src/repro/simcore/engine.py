"""Generator-based discrete-event simulation engine.

The pipeline-parallel schedules of Sec. IV-C and the offload/prefetch
overlap analyses of Sec. IV-C3 and Sec. VI-B are fundamentally questions
about *when* concurrent activities (kernel execution, PCIe transfers,
inter-stage sends) contend and overlap. Rather than hand-deriving closed
forms for each schedule, we simulate them: a schedule is a set of
processes, links are capacity-1 resources, and bubbles emerge.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, results):
...     yield Timeout(1.5)
...     results.append(sim.now)
>>> out = []
>>> sim.spawn(worker(sim, out))
>>> sim.run()
>>> out
[1.5]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator

from .events import Acquire, Event, Release, Timeout, Wait

__all__ = ["Process", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for structural errors: deadlock, runaway simulations, misuse."""


class Process:
    """Wrapper binding a generator to the engine with a completion event."""

    _ids = itertools.count()

    def __init__(self, gen: Generator, name: str = "") -> None:
        self.gen = gen
        self.name = name or f"proc-{next(self._ids)}"
        self.done = Event(f"{self.name}.done")
        self.result: Any = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.name}>"


class Simulator:
    """The event loop: schedules process resumptions in simulated time."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._seq = itertools.count()
        self._live = 0

    # -- public API --------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        proc = Process(gen, name)
        self._live += 1
        self._schedule(proc, self.now, None)
        return proc

    def trigger(self, event: Event, value: Any = None) -> None:
        """Trigger ``event`` now, waking every waiter."""
        if event.triggered:
            raise SimulationError(f"event {event.name} triggered twice")
        event.triggered = True
        event.value = value
        waiters, event.waiters = event.waiters, []
        for proc in waiters:
            self._schedule(proc, self.now, value)

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Drain the event heap; return the final simulated time.

        ``until`` caps simulated time; ``max_events`` guards against
        runaway simulations (a structural bug, so it raises).
        """
        steps = 0
        while self._heap:
            t, _, proc, value = heapq.heappop(self._heap)
            if until is not None and t > until:
                self.now = until
                return self.now
            if t < self.now - 1e-18:
                raise SimulationError("event scheduled in the past")
            self.now = max(self.now, t)
            self._advance(proc, value)
            steps += 1
            if steps > max_events:
                raise SimulationError(f"exceeded {max_events} events; livelock?")
        if self._live:
            raise SimulationError(
                f"{self._live} process(es) still blocked at t={self.now}: deadlock"
            )
        return self.now

    # -- engine internals ---------------------------------------------------

    def _schedule(self, proc: Process, when: float, value: Any) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), proc, value))

    def _advance(self, proc: Process, send_value: Any) -> None:
        try:
            cmd = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.result = stop.value
            self._live -= 1
            self.trigger(proc.done, stop.value)
            return
        self._dispatch(proc, cmd)

    def _dispatch(self, proc: Process, cmd: Any) -> None:
        if isinstance(cmd, Timeout):
            self._schedule(proc, self.now + cmd.delay, None)
        elif isinstance(cmd, Wait):
            if cmd.event.triggered:
                self._schedule(proc, self.now, cmd.event.value)
            else:
                cmd.event.waiters.append(proc)
        elif isinstance(cmd, Acquire):
            cmd.resource._acquire(self, proc)
        elif isinstance(cmd, Release):
            cmd.resource._release(self)
            self._schedule(proc, self.now, None)
        elif isinstance(cmd, Process):
            # Yielding a process object joins it.
            if cmd.done.triggered:
                self._schedule(proc, self.now, cmd.done.value)
            else:
                cmd.done.waiters.append(proc)
        else:
            raise SimulationError(f"process {proc.name} yielded {cmd!r}")

    # Used by resources to resume a waiting process.
    def _resume(self, proc: Process, value: Any = None) -> None:
        self._schedule(proc, self.now, value)
