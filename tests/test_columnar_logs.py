"""Columnar ``Timeline`` lanes and scheduler lifecycle logs against the
object-based originals.

Each Timeline lane stores ``array("d")`` starts and ends plus a label
list and renders :class:`Span` views on demand. ``RefTimeline`` below is
the implementation it replaced: one frozen, ordered dataclass per span
in a sorted list. Under hypothesis, random recording orders (ties
included), int and float times and instants must give the same spans,
bit-identical busy times and makespans, and the same overlap verdicts, rows and Chrome-trace events.

The scheduler's lifecycle log is three columns (step, event code,
request id). ``events`` must equal the event list rebuilt from the
scheduler's public return values, and ``enqueue_steps``,
``admission_order`` and ``retirement_order`` must
equal what the list-based code derived from that event list — on a
hypothesis-driven scheduler with EOS retirements, a functional session
with EOS retirements, and serving and fleet runs.
"""

import math
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (ClosureStepCost, Request, RequestTable,
                          Scheduler, WorkloadTrace, simulate_serving)
from repro.engine.generation import GenerationSession
from repro.engine.scheduler import SchedulerEvent
from repro.fleet import FaultPlan, ReplicaFault, simulate_fleet
from repro.model import ModelConfig
from repro.model.dense import DenseTransformer
from repro.model.sampling import SamplingConfig
from repro.simcore import Span, Timeline


@dataclass(frozen=True, order=True)
class RefSpan:
    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class RefTimeline:
    """The list-of-``Span`` Timeline: sorted by ``(start, end, label)``."""

    def __init__(self) -> None:
        self._lanes: dict[str, list[RefSpan]] = {}
        self._instants: dict[str, list[tuple[float, str]]] = {}

    def record(self, lane, start, end, label=""):
        insort(self._lanes.setdefault(lane, []), RefSpan(start, end, label))

    def record_instant(self, lane, t, label=""):
        insort(self._instants.setdefault(lane, []), (t, label))

    def instants(self, lane):
        return list(self._instants.get(lane, []))

    def lanes(self):
        return sorted(self._lanes)

    def spans(self, lane):
        return list(self._lanes.get(lane, []))

    def makespan(self):
        return max((s.end for spans in self._lanes.values() for s in spans),
                   default=0.0)

    def busy_time(self, lane):
        total = 0.0
        cur_start = cur_end = None
        for s in self._lanes.get(lane, []):
            if cur_end is None or s.start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = s.start, s.end
            else:
                cur_end = max(cur_end, s.end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def has_overlap(self, lane):
        spans = self._lanes.get(lane, [])
        return any(b.start < a.end - 1e-15 for a, b in zip(spans, spans[1:]))

    def to_rows(self):
        return [(lane, s.start, s.end, s.label)
                for lane in self.lanes() for s in self._lanes[lane]]

    def to_chrome_trace(self):
        events = []
        lane_order = sorted(set(self._lanes) | set(self._instants))
        for pid, lane in enumerate(lane_order):
            for s in self._lanes.get(lane, []):
                events.append({"name": s.label or lane, "cat": "sim",
                               "ph": "X", "ts": s.start / 1e-6,
                               "dur": s.duration / 1e-6, "pid": 0,
                               "tid": pid, "args": {"lane": lane}})
            for t, label in self._instants.get(lane, []):
                events.append({"name": label or lane, "cat": "sim",
                               "ph": "i", "ts": t / 1e-6, "s": "t",
                               "pid": 0, "tid": pid, "args": {"lane": lane}})
        return events


def _hex(x) -> str:
    return float(x).hex()


def assert_same(tl: Timeline, ref: RefTimeline) -> None:
    """Every read of ``tl`` equals ``ref``'s, floats by their bits."""
    assert tl.lanes() == ref.lanes()
    for lane in ref.lanes() + ["missing"]:
        got = [(s.start.hex(), s.end.hex(), s.label) for s in tl.spans(lane)]
        want = [(_hex(s.start), _hex(s.end), s.label)
                for s in ref.spans(lane)]
        assert got == want, lane
        assert all(type(s) is Span for s in tl.spans(lane))
        assert _hex(tl.busy_time(lane)) == _hex(ref.busy_time(lane)), lane
        assert tl.has_overlap(lane) == ref.has_overlap(lane), lane
        assert tl.instants(lane) == ref.instants(lane)
    assert _hex(tl.makespan()) == _hex(ref.makespan())
    assert [(lane, _hex(s), _hex(e), label)
            for lane, s, e, label in tl.to_rows()] == \
        [(lane, _hex(s), _hex(e), label)
         for lane, s, e, label in ref.to_rows()]
    got, want = tl.to_chrome_trace(), ref.to_chrome_trace()
    assert got == want
    assert [(_hex(g["ts"]), _hex(g.get("dur", 0))) for g in got] == \
        [(_hex(w["ts"]), _hex(w.get("dur", 0))) for w in want]


# Few distinct values, so equal starts, equal ends, touching spans and
# equal labels are common. Touching spans at 0.1, 0.7 and 1.3 make
# (0.7 - 0.1) + (1.3 - 0.7) != 1.3 - 0.1, so a busy time that splits a
# merged run shows in its bits; 0.1 + 0.2 is not a short decimal.
TIMES = st.one_of(st.integers(0, 4), st.sampled_from(
    [0.0, 0.1, 0.5, 0.7, 1.0, 1.3, 2.5, 0.1 + 0.2]))
LABELS = st.sampled_from(["", "a", "b", "decode x2"])
LANES = st.sampled_from(["server", "req-1", "req-2"])
OPS = st.lists(st.one_of(
    st.tuples(st.just("span"), LANES, TIMES, TIMES, LABELS),
    st.tuples(st.just("instant"), LANES, TIMES, st.just(0), LABELS),
), max_size=25)


def _play(ops, *timelines):
    for kind, lane, t, u, label in ops:
        for tl in timelines:
            if kind == "span":
                tl.record(lane, min(t, u), max(t, u), label)
            else:
                tl.record_instant(lane, t, label)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=OPS)
    def test_recording_in_any_order(self, ops):
        tl, ref = Timeline(), RefTimeline()
        _play(ops, tl, ref)
        assert_same(tl, ref)

    def test_touching_spans_merge_into_one_run(self):
        tl, ref = Timeline(), RefTimeline()
        _play([("span", "l", 0.1, 0.7, ""), ("span", "l", 0.7, 1.3, "")],
              tl, ref)
        assert tl.busy_time("l") == 1.3 - 0.1 != (0.7 - 0.1) + (1.3 - 0.7)
        assert_same(tl, ref)

    def test_int_times_read_back_as_equal_floats(self):
        tl = Timeline()
        assert tl.record("l", 1, 3, "x") is None
        (span,) = tl.spans("l")
        assert span == Span(1.0, 3.0, "x")
        assert type(span.start) is float and type(span.end) is float


class TestNanGuards:
    """A NaN bound passed ``end < start``, so it was stored and turned
    ``busy_time`` into NaN; the range test rejects it."""

    @pytest.mark.parametrize("start,end", [(math.nan, 1.0), (0.0, math.nan),
                                           (math.nan, math.nan)])
    def test_record_rejects_nan(self, start, end):
        tl = Timeline()
        with pytest.raises(ValueError, match="start <= end"):
            tl.record("l", start, end)
        assert tl.lanes() == [] and tl.busy_time("l") == 0.0

    @pytest.mark.parametrize("start,end", [(math.nan, 1.0), (0.0, math.nan)])
    def test_span_rejects_nan(self, start, end):
        with pytest.raises(ValueError, match="start <= end"):
            Span(start, end)


# -- scheduler lifecycle log ------------------------------------------------


def ref_enqueue_steps(events):
    return {e.request_id: e.step for e in events if e.kind == "enqueue"}


def ref_admission_order(events):
    return [e.request_id for e in events if e.kind == "admit"]


def ref_retirement_order(events):
    return [e.request_id for e in events if e.kind == "retire"]


@contextmanager
def recording_schedulers():
    """Patch ``Scheduler`` so every instance also keeps the event list
    its public calls imply: each ``enqueue``, each request ``admit``
    returns, each reason ``record_token`` returns and each id
    ``record_tokens`` returns (at the retiring step). Yields
    ``{scheduler: [SchedulerEvent, ...]}``."""
    logs: dict[Scheduler, list[SchedulerEvent]] = {}
    init, enqueue, admit, record_token, record_tokens = (
        Scheduler.__init__, Scheduler.enqueue, Scheduler.admit,
        Scheduler.record_token, Scheduler.record_tokens)

    def rec_init(self, *args, **kw):
        init(self, *args, **kw)
        logs[self] = []

    def rec_enqueue(self, pos):
        enqueue(self, pos)
        logs[self].append(SchedulerEvent(self.step, "enqueue",
                                         self.table.ids[pos]))

    def rec_admit(self, **kw):
        admitted = admit(self, **kw)
        logs[self].extend(SchedulerEvent(self.step, "admit",
                                         self.table.ids[pos])
                          for pos in admitted)
        return admitted

    def rec_record_token(self, pos, token=None):
        reason = record_token(self, pos, token)
        if reason is not None:
            logs[self].append(SchedulerEvent(self.step, "retire",
                                             self.table.ids[pos], reason))
        return reason

    def rec_record_tokens(self, steps):
        retired = record_tokens(self, steps)
        logs[self].extend(SchedulerEvent(self.step - 1, "retire",
                                         self.table.ids[pos], "length")
                          for pos in retired)
        return retired

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scheduler, "__init__", rec_init)
        mp.setattr(Scheduler, "enqueue", rec_enqueue)
        mp.setattr(Scheduler, "admit", rec_admit)
        mp.setattr(Scheduler, "record_token", rec_record_token)
        mp.setattr(Scheduler, "record_tokens", rec_record_tokens)
        yield logs


def assert_log_matches(sched: Scheduler, events: list) -> None:
    """The columnar log renders ``events`` and derives every view the
    list-based code derived from it."""
    got = sched.events
    assert got == events
    assert all(type(e.request_id) is int for e in got)
    assert sched.events is not got  # a fresh copy per read
    assert list(sched.enqueue_steps.items()) == \
        list(ref_enqueue_steps(events).items())
    assert sched.admission_order == ref_admission_order(events)
    assert sched.retirement_order == ref_retirement_order(events)


EOS = 7
SCHED_OPS = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(1, 4), st.integers(1, 5)),
    st.tuples(st.just("admit"), st.sampled_from([None, 1, 2]),
              st.just(0)),
    st.tuples(st.just("token"), st.integers(0, 2**6 - 1), st.just(0)),
    st.tuples(st.just("bulk"), st.integers(1, 5), st.just(0)),
), max_size=40)


class TestSchedulerLog:
    @settings(max_examples=150, deadline=None)
    @given(ops=SCHED_OPS, slots=st.integers(1, 3),
           policy=st.sampled_from(["fcfs", "shortest_prompt"]))
    def test_driven_scheduler_with_eos(self, ops, slots, policy):
        """Token rounds retire by EOS (a set bit of the drawn mask) or by
        length; bulk rounds retire by length at the horizon."""
        with recording_schedulers() as logs:
            table = RequestTable()
            sched = Scheduler(slots, table, policy=policy, eos_token=EOS)
            for kind, a, b in ops:
                if kind == "enqueue":
                    sched.enqueue(table.append(len(table.ids), a, b, None))
                elif kind == "admit":
                    sched.admit(max_admit=a)
                elif kind == "token" and sched.num_active:
                    for i, pos in enumerate(sched.active):
                        sched.record_token(pos, EOS if a >> i & 1 else 0)
                    sched.advance()
                elif kind == "bulk" and sched.num_active:
                    sched.record_tokens(min(a, sched.decode_horizon()))
        assert_log_matches(sched, logs[sched])

    def test_functional_session_with_eos(self):
        cfg = ModelConfig(name="log-eos", hidden=16, layers=1, heads=2,
                          vocab=6, max_seq=32)
        model = DenseTransformer(cfg, seed=3)
        rng = np.random.default_rng(0)
        with recording_schedulers() as logs:
            session = GenerationSession(model, eos_token=2,
                                        max_concurrency=3,
                                        sampling=SamplingConfig(), seed=1)
            for _ in range(8):
                session.submit(rng.integers(0, 6, size=int(rng.integers(1, 5))),
                               max_new_tokens=int(rng.integers(1, 7)))
            session.run()
        sched = session.scheduler
        reasons = {e.reason for e in sched.events if e.kind == "retire"}
        assert reasons == {"eos", "length"}
        assert_log_matches(sched, logs[sched])

    def test_serving_run(self):
        rng = np.random.default_rng(4)
        trace = WorkloadTrace(tuple(
            Request(i, float(t), int(rng.integers(1, 9)),
                    int(rng.integers(1, 12)))
            for i, t in enumerate(np.cumsum(rng.exponential(0.05, 60)))))
        costs = ClosureStepCost(lambda b, p: 0.02 + 0.001 * p,
                                lambda b: 0.01 + 0.001 * b)
        for policy in ("fcfs", "shortest_prompt"):
            with recording_schedulers() as logs:
                rep = simulate_serving(trace, costs=costs, max_batch=4,
                                       policy=policy)
            assert_log_matches(rep.scheduler, logs[rep.scheduler])

    def test_fleet_run_with_crash(self):
        rng = np.random.default_rng(9)
        trace = WorkloadTrace(tuple(
            Request(i, float(t), int(rng.integers(1, 9)),
                    int(rng.integers(1, 12)))
            for i, t in enumerate(np.cumsum(rng.exponential(0.02, 80)))))
        costs = ClosureStepCost(lambda b, p: 0.02 + 0.001 * p,
                                lambda b: 0.01 + 0.001 * b)
        faults = FaultPlan((ReplicaFault(0, 0.3),
                            ReplicaFault(0, 0.6, "recover")))
        with recording_schedulers() as logs:
            rep = simulate_fleet(trace, num_replicas=3, costs=costs,
                                 max_batch=3, routing="power_of_two",
                                 fault_plan=faults)
        past = [s for runs in rep.past_schedulers.values() for s, _ in runs]
        assert past, "the crash should leave a past scheduler"
        for sched in (*rep.schedulers, *past):
            assert_log_matches(sched, logs[sched])
        assert len(logs) == len(rep.schedulers) + len(past)


class TestRequestIdGuard:
    """The log keeps request ids in an int64 column, so a non-integer id
    is rejected where the request's row is added, naming the field."""

    @pytest.mark.parametrize("rid", ["a", 1.0, None, 2**63])
    def test_rejects_non_int64_ids(self, rid):
        table = RequestTable()
        with pytest.raises((TypeError, ValueError), match="request_id"):
            table.append(rid, 1, 1, None)
        assert len(table.ids) == 0

    def test_accepts_numpy_ints(self):
        table = RequestTable()
        sched = Scheduler(1, table)
        sched.enqueue(table.append(np.int64(5), 1, 1, None))
        sched.admit()
        sched.record_token(0)
        assert sched.events == [SchedulerEvent(0, "enqueue", 5),
                                SchedulerEvent(0, "admit", 5),
                                SchedulerEvent(0, "retire", 5, "length")]
