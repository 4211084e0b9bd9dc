"""Tests for the timeline tracing core."""

import pytest
from hypothesis import given, strategies as st

from repro.simcore import Timeline


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
        # s1 idles through s0's span: half the makespan is bubble.
        assert tl.utilization("s1") == pytest.approx(0.5)

    def test_utilization_rejects_a_nan_horizon(self):
        """NaN passed ``horizon <= 0`` and ``min(1.0, nan)`` read 1.0."""
        tl = Timeline()
        tl.record("s0", 0.0, 2.0)
        with pytest.raises(ValueError, match="horizon"):
            tl.utilization("s0", horizon=float("nan"))
        assert tl.utilization("s0", horizon=0.0) == 0.0
        assert tl.utilization("s0", horizon=-1.0) == 0.0
        assert tl.utilization("s0", horizon=8.0) == 0.25

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
