"""Timeline tracing: record spans per lane, compute utilization and bubbles.

The pipeline figures of the paper (Fig. 2, Fig. 3) are timeline diagrams;
this module is their machine-readable counterpart. Each pipeline stage /
link / GPU gets a *lane*, processes record ``(start, end, label)`` spans,
and the analysis helpers answer the questions the paper asks of the
schedules: how big are the bubbles, what fraction of the makespan is each
stage busy, do two spans on one lane ever overlap (which would indicate a
broken schedule).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

__all__ = ["Span", "Timeline"]


@dataclass(frozen=True, order=True)
class Span:
    """A half-open interval ``[start, end)`` of activity on one lane."""

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("span ends before it starts")

    @property
    def duration(self) -> float:
        """Length of the span."""
        return self.end - self.start


class Timeline:
    """Spans grouped by lane, kept sorted by start time."""

    def __init__(self) -> None:
        self._lanes: dict[str, list[Span]] = {}
        self._instants: dict[str, list[tuple[float, str]]] = {}

    def record(self, lane: str, start: float, end: float, label: str = "") -> Span:
        """Add a span to ``lane`` and return it."""
        span = Span(start, end, label)
        spans = self._lanes.setdefault(lane, [])
        # Simulators append in time order; skip insort's O(log n)
        # dataclass comparisons (equivalent to insort at the end). A
        # later start decides the order without building Span's tuples.
        if (not spans or start > spans[-1].start
                or not (start < spans[-1].start or span < spans[-1])):
            spans.append(span)
        else:
            insort(spans, span)
        return span

    def record_instant(self, lane: str, t: float, label: str = "") -> None:
        """Mark a point event on ``lane`` (a scheduler decision, an
        arrival) — exported as a Chrome *instant* event, not a span, so
        it never affects busy time or overlap checks."""
        item = (t, label)
        instants = self._instants.setdefault(lane, [])
        if not instants or not item < instants[-1]:
            instants.append(item)
        else:
            insort(instants, item)

    def instants(self, lane: str) -> list[tuple[float, str]]:
        """Point events of one lane, ordered by time."""
        return list(self._instants.get(lane, []))

    def merge(self, other: "Timeline", *, prefix: str = "") -> "Timeline":
        """Copy every span and instant of ``other`` into this timeline,
        prefixing its lane names with ``prefix``.

        Builds multi-server views: the fleet layer merges one timeline
        per replica under ``replica{i}/`` prefixes into a single
        chrome-trace export. Returns ``self`` for chaining.
        """
        for lane, spans in other._lanes.items():
            name = prefix + lane
            if name not in self._lanes:
                # Spans are frozen and the source lane is sorted: share
                # them instead of re-recording one by one.
                self._lanes[name] = list(spans)
                continue
            for s in spans:
                self.record(name, s.start, s.end, s.label)
        for lane, instants in other._instants.items():
            for t, label in instants:
                self.record_instant(prefix + lane, t, label)
        return self

    def lanes(self) -> list[str]:
        """Lane names in insertion-independent (sorted) order."""
        return sorted(self._lanes)

    def spans(self, lane: str) -> list[Span]:
        """Spans of one lane, ordered by start."""
        return list(self._lanes.get(lane, []))

    def makespan(self) -> float:
        """End of the last span across all lanes (0.0 when empty)."""
        ends = [s.end for spans in self._lanes.values() for s in spans]
        return max(ends, default=0.0)

    def busy_time(self, lane: str) -> float:
        """Total busy time of a lane, merging any overlapping spans."""
        spans = self._lanes.get(lane, [])
        total = 0.0
        cur_start = cur_end = None
        for s in spans:
            if cur_end is None or s.start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = s.start, s.end
            else:
                cur_end = max(cur_end, s.end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def utilization(self, lane: str, horizon: float | None = None) -> float:
        """Busy fraction of ``lane`` over ``horizon`` (default: makespan)."""
        horizon = self.makespan() if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time(lane) / horizon)

    def bubble_time(self, lane: str, horizon: float | None = None) -> float:
        """Idle time of ``lane`` within the horizon — the pipeline bubble."""
        horizon = self.makespan() if horizon is None else horizon
        return max(0.0, horizon - self.busy_time(lane))

    def has_overlap(self, lane: str) -> bool:
        """True if two spans on ``lane`` overlap (schedule validity check)."""
        spans = self._lanes.get(lane, [])
        for a, b in zip(spans, spans[1:]):
            if b.start < a.end - 1e-15:
                return True
        return False

    def to_rows(self) -> list[tuple[str, float, float, str]]:
        """Flatten to (lane, start, end, label) rows for reporting."""
        return [
            (lane, s.start, s.end, s.label)
            for lane in self.lanes()
            for s in self._lanes[lane]
        ]

    def to_chrome_trace(self, *, time_unit: float = 1e-6) -> list[dict]:
        """Export as Chrome ``chrome://tracing`` / Perfetto JSON events.

        ``time_unit`` converts simulated seconds to trace microseconds
        (default: seconds -> us). Load the JSON list under a
        ``{"traceEvents": [...]}`` wrapper.
        """
        if not 0 < time_unit < math.inf:
            raise ValueError("time_unit must be finite and positive")
        events = []
        lane_order = sorted(set(self._lanes) | set(self._instants))
        for pid, lane in enumerate(lane_order):
            for s in self._lanes.get(lane, []):
                events.append(
                    {
                        "name": s.label or lane,
                        "cat": "sim",
                        "ph": "X",  # complete event
                        "ts": s.start / time_unit,
                        "dur": s.duration / time_unit,
                        "pid": 0,
                        "tid": pid,
                        "args": {"lane": lane},
                    }
                )
            for t, label in self._instants.get(lane, []):
                events.append(
                    {
                        "name": label or lane,
                        "cat": "sim",
                        "ph": "i",  # instant event
                        "ts": t / time_unit,
                        "s": "t",  # thread-scoped marker
                        "pid": 0,
                        "tid": pid,
                        "args": {"lane": lane},
                    }
                )
        return events
