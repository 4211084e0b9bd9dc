"""Tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, strategies as st

from repro.simcore import (
    Acquire,
    BandwidthLink,
    Event,
    Release,
    SimulationError,
    Simulator,
    SlotResource,
    Timeline,
    Timeout,
    Wait,
    transfer,
)


class TestSimulatorBasics:
    def test_single_timeout(self):
        sim = Simulator()
        seen = []

        def p():
            yield Timeout(2.5)
            seen.append(sim.now)

        sim.spawn(p())
        end = sim.run()
        assert seen == [2.5]
        assert end == pytest.approx(2.5)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, delay):
        with pytest.raises(ValueError, match="finite"):
            Timeout(delay)

    def test_two_processes_interleave(self):
        sim = Simulator()
        order = []

        def p(name, d):
            yield Timeout(d)
            order.append(name)

        sim.spawn(p("slow", 3.0))
        sim.spawn(p("fast", 1.0))
        sim.run()
        assert order == ["fast", "slow"]

    def test_tie_break_is_fifo_deterministic(self):
        sim = Simulator()
        order = []

        def p(name):
            yield Timeout(1.0)
            order.append(name)

        for n in "abc":
            sim.spawn(p(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_event_wait_and_trigger(self):
        sim = Simulator()
        ev = Event("go")
        got = []

        def waiter():
            v = yield Wait(ev)
            got.append((sim.now, v))

        def setter():
            yield Timeout(4.0)
            sim.trigger(ev, "payload")

        sim.spawn(waiter())
        sim.spawn(setter())
        sim.run()
        assert got == [(4.0, "payload")]

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        ev = Event()
        got = []

        def setter():
            yield Timeout(1.0)
            sim.trigger(ev, 42)

        def late_waiter():
            yield Timeout(2.0)
            v = yield Wait(ev)
            got.append(v)

        sim.spawn(setter())
        sim.spawn(late_waiter())
        sim.run()
        assert got == [42]

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = Event()

        def p():
            yield Timeout(0.0)
            sim.trigger(ev)
            sim.trigger(ev)

        sim.spawn(p())
        with pytest.raises(SimulationError):
            sim.run()

    def test_join_process_result(self):
        sim = Simulator()
        results = []

        def child():
            yield Timeout(1.0)
            return "done"

        def parent():
            proc = sim.spawn(child())
            v = yield proc
            results.append((sim.now, v))

        sim.spawn(parent())
        sim.run()
        assert results == [(1.0, "done")]

    def test_deadlock_detected(self):
        sim = Simulator()
        ev = Event()

        def p():
            yield Wait(ev)

        sim.spawn(p())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_run_until_caps_time(self):
        sim = Simulator()

        def p():
            yield Timeout(100.0)

        sim.spawn(p())
        end = sim.run(until=10.0)
        assert end == pytest.approx(10.0)

    def test_invalid_yield_raises(self):
        sim = Simulator()

        def p():
            yield "nonsense"

        sim.spawn(p())
        with pytest.raises(SimulationError):
            sim.run()


class TestResources:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        res = SlotResource(1)
        times = []

        def p():
            yield Acquire(res)
            yield Timeout(1.0)
            times.append(sim.now)
            yield Release(res)

        for _ in range(3):
            sim.spawn(p())
        sim.run()
        assert times == [1.0, 2.0, 3.0]

    def test_capacity_two_pairs(self):
        sim = Simulator()
        res = SlotResource(2)
        times = []

        def p():
            yield Acquire(res)
            yield Timeout(1.0)
            times.append(sim.now)
            yield Release(res)

        for _ in range(4):
            sim.spawn(p())
        sim.run()
        assert times == [1.0, 1.0, 2.0, 2.0]

    def test_release_idle_raises(self):
        sim = Simulator()
        res = SlotResource(1)

        def p():
            yield Release(res)

        sim.spawn(p())
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SlotResource(0)

    def test_link_occupancy(self):
        link = BandwidthLink(bandwidth=10.0, latency=0.5)
        assert link.occupancy(20.0) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            link.occupancy(-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_link_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BandwidthLink(bandwidth=bad)
        with pytest.raises(ValueError, match="finite"):
            BandwidthLink(bandwidth=10.0).occupancy(bad)

    def test_transfers_queue_fifo(self):
        sim = Simulator()
        link = BandwidthLink(bandwidth=1.0, latency=0.0)
        done = []

        def p(n):
            yield from transfer(link, 2.0)
            done.append((n, sim.now))

        sim.spawn(p("a"))
        sim.spawn(p("b"))
        sim.run()
        assert done == [("a", 2.0), ("b", 4.0)]
        assert link.busy_time == pytest.approx(4.0)


class TestTimeline:
    def test_record_and_makespan(self):
        tl = Timeline()
        tl.record("gpu0", 0.0, 2.0, "fwd")
        tl.record("gpu1", 1.0, 5.0, "fwd")
        assert tl.makespan() == pytest.approx(5.0)
        assert tl.lanes() == ["gpu0", "gpu1"]

    def test_busy_time_merges_overlaps(self):
        tl = Timeline()
        tl.record("l", 0.0, 2.0)
        tl.record("l", 1.0, 3.0)
        tl.record("l", 5.0, 6.0)
        assert tl.busy_time("l") == pytest.approx(4.0)

    def test_utilization_and_bubble(self):
        tl = Timeline()
        tl.record("s0", 0.0, 2.0)
        tl.record("s1", 2.0, 4.0)
        assert tl.utilization("s0") == pytest.approx(0.5)
        assert tl.bubble_time("s1") == pytest.approx(2.0)

    def test_overlap_detection(self):
        tl = Timeline()
        tl.record("x", 0.0, 2.0)
        tl.record("x", 3.0, 4.0)
        assert not tl.has_overlap("x")
        tl.record("x", 3.5, 5.0)
        assert tl.has_overlap("x")

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            Timeline().record("x", 2.0, 1.0)

    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.makespan() == 0.0
        assert tl.utilization("missing") == 0.0
        assert tl.spans("missing") == []

    def test_to_rows(self):
        tl = Timeline()
        tl.record("b", 0.0, 1.0, "x")
        tl.record("a", 0.0, 1.0, "y")
        rows = tl.to_rows()
        assert rows[0][0] == "a" and rows[1][0] == "b"

    def test_merge_with_prefix(self):
        a = Timeline()
        a.record("server", 0.0, 1.0, "own")
        b = Timeline()
        b.record("server", 2.0, 3.0, "other")
        b.record_instant("server", 2.5, "tick")
        assert a.merge(b, prefix="replica1/") is a
        assert a.lanes() == ["replica1/server", "server"]
        assert [s.label for s in a.spans("replica1/server")] == ["other"]
        assert a.instants("replica1/server") == [(2.5, "tick")]
        assert a.makespan() == pytest.approx(3.0)
        # Source timeline is untouched.
        assert b.lanes() == ["server"]

    def test_merge_without_prefix_interleaves(self):
        a = Timeline()
        a.record("l", 0.0, 1.0)
        b = Timeline()
        b.record("l", 0.5, 2.0)
        a.merge(b)
        assert a.busy_time("l") == pytest.approx(2.0)
        assert a.has_overlap("l")

    def test_merge_copies_new_lanes_independently(self):
        b = Timeline()
        b.record("server", 0.0, 1.0, "x")
        a = Timeline().merge(b, prefix="r/")
        b.record("server", 2.0, 3.0, "later")
        assert [s.label for s in a.spans("r/server")] == ["x"]

    @given(spans=st.lists(st.tuples(
        st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0, 3.0]),
        st.sampled_from(["a", "b"])), max_size=12))
    def test_record_keeps_lanes_sorted_like_insort(self, spans):
        """Equal starts fall back to the (start, end, label) order, so
        any recording order leaves the lane fully sorted."""
        tl = Timeline()
        for start, length, label in spans:
            tl.record("l", start, start + length, label)
        got = [(s.start, s.end, s.label) for s in tl.spans("l")]
        assert got == sorted(got)


@given(
    durations=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_slot_resource_conservation(durations, capacity):
    """Property: makespan of k-parallel jobs is bounded by the list-scheduling
    bounds sum/k <= makespan <= sum (and >= max duration)."""
    sim = Simulator()
    res = SlotResource(capacity)

    def p(d):
        yield Acquire(res)
        yield Timeout(d)
        yield Release(res)

    for d in durations:
        sim.spawn(p(d))
    end = sim.run()
    total = sum(durations)
    assert end <= total + 1e-9
    assert end >= max(durations) - 1e-9
    assert end >= total / capacity - 1e-9
