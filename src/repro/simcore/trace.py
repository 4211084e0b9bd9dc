"""Timeline tracing: record spans per lane, compute utilization and bubbles.

The pipeline figures of the paper (Fig. 2, Fig. 3) are timeline diagrams;
this module is their machine-readable counterpart. Each pipeline stage /
link / GPU gets a *lane*, schedules record ``(start, end, label)`` spans,
and the analysis helpers answer the questions the paper asks of the
schedules: how big are the bubbles, what fraction of the makespan is each
stage busy, do two spans on one lane ever overlap (which would indicate a
broken schedule).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import islice

__all__ = ["Span", "Timeline", "merged_length"]

_NO_SPANS = ((), (), ())  # the columns of a lane never recorded
_SECONDS_PER_US = 1e-6  # chrome-trace timestamps are microseconds


def merged_length(starts, ends) -> float:
    """Time covered by the spans ``[starts[i], ends[i])``, given in start
    order, counting overlaps once (0.0 for no spans)."""
    if not starts:
        return 0.0
    total = 0.0
    cur_start, cur_end = starts[0], ends[0]
    for start, end in zip(starts, ends):
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


@dataclass(frozen=True, order=True)
class Span:
    """A half-open interval ``[start, end)`` of activity on one lane."""

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        # Written as a range test so that NaN fails it too.
        if not self.start <= self.end:
            raise ValueError(
                f"span must have start <= end, got [{self.start!r}, "
                f"{self.end!r})")

    @property
    def duration(self) -> float:
        """Length of the span."""
        return self.end - self.start


class Timeline:
    """Spans grouped by lane, kept sorted by ``(start, end, label)``.

    Each lane is a ``(starts, ends, labels)`` triple of columns —
    ``array("d")``, ``array("d")`` and ``list[str]``, about 24 bytes a
    span — so times read back as floats. :meth:`spans` renders
    :class:`Span` views on demand; the analysis helpers and exports
    read the columns directly.
    """

    def __init__(self) -> None:
        self._lanes: dict[str, tuple[array, array, list[str]]] = {}
        self._instants: dict[str, list[tuple[float, str]]] = {}

    def record(self, lane: str, start: float, end: float, label: str = "") -> None:
        """Add the span ``[start, end)`` to ``lane``."""
        if not start <= end:  # a range test, so NaN fails it too
            raise ValueError(
                f"span must have start <= end, got [{start!r}, {end!r})")
        cols = self._lanes.get(lane)
        if cols is None:
            cols = self._lanes[lane] = (array("d"), array("d"), [])
        starts, ends, labels = cols
        # Simulators append in time order; anything else is inserted
        # where ``insort`` would put the (start, end, label) tuple.
        if starts and (start < starts[-1] or start == starts[-1] and (
                end < ends[-1] or end == ends[-1] and label < labels[-1])):
            i = bisect_left(starts, start)
            hi = bisect_right(starts, start, i)
            while i < hi and (ends[i] < end
                              or ends[i] == end and labels[i] <= label):
                i += 1
            starts.insert(i, start)
            ends.insert(i, end)
            labels.insert(i, label)
        else:
            starts.append(start)
            ends.append(end)
            labels.append(label)

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

    def lanes(self) -> list[str]:
        """Lane names in insertion-independent (sorted) order."""
        return sorted(self._lanes)

    def spans(self, lane: str) -> list[Span]:
        """Spans of one lane, ordered by start (fresh views)."""
        return list(map(Span, *self._lanes.get(lane, _NO_SPANS)))

    def makespan(self) -> float:
        """End of the last span across all lanes (0.0 when empty)."""
        return max((max(ends) for _, ends, _ in self._lanes.values()),
                   default=0.0)

    def busy_time(self, lane: str) -> float:
        """Total busy time of a lane, merging any overlapping spans."""
        starts, ends, _ = self._lanes.get(lane, _NO_SPANS)
        return merged_length(starts, ends)

    def utilization(self, lane: str, horizon: float | None = None) -> float:
        """Busy fraction of ``lane`` over ``horizon`` (default: makespan;
        0.0 for a horizon <= 0)."""
        horizon = self.makespan() if horizon is None else horizon
        if math.isnan(horizon):
            raise ValueError("horizon must not be NaN")
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time(lane) / horizon)

    def has_overlap(self, lane: str) -> bool:
        """True if two spans on ``lane`` overlap (schedule validity check)."""
        starts, ends, _ = self._lanes.get(lane, _NO_SPANS)
        return any(start < end - 1e-15
                   for end, start in zip(ends, islice(starts, 1, None)))

    def to_rows(self) -> list[tuple[str, float, float, str]]:
        """Flatten to (lane, start, end, label) rows for reporting."""
        return [
            (lane, start, end, label)
            for lane in self.lanes()
            for start, end, label in zip(*self._lanes[lane])
        ]

    def to_chrome_trace(self) -> list[dict]:
        """Export as Chrome ``chrome://tracing`` / Perfetto JSON events,
        simulated seconds rendered as trace microseconds. Load the JSON
        list under a ``{"traceEvents": [...]}`` wrapper.
        """
        events = []
        lane_order = sorted(set(self._lanes) | set(self._instants))
        for pid, lane in enumerate(lane_order):
            for start, end, label in zip(*self._lanes.get(lane, _NO_SPANS)):
                events.append(
                    {
                        "name": label or lane,
                        "cat": "sim",
                        "ph": "X",  # complete event
                        "ts": start / _SECONDS_PER_US,
                        "dur": (end - start) / _SECONDS_PER_US,
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
                        "ts": t / _SECONDS_PER_US,
                        "s": "t",  # thread-scoped marker
                        "pid": 0,
                        "tid": pid,
                        "args": {"lane": lane},
                    }
                )
        return events
