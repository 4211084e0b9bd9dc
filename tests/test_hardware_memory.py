"""Tests for the device-memory reservation ledger."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hardware import MemoryPool, OutOfDeviceMemory


class TestMemoryPool:
    def test_usable_leaves_headroom(self):
        pool = MemoryPool(capacity=100.0, reserve_fraction=0.1)
        assert pool.usable == pytest.approx(90.0)

    def test_reserve_and_release_roundtrip(self):
        pool = MemoryPool(capacity=100.0, reserve_fraction=0.0)
        r = pool.reserve("weights", 60.0)
        assert pool.used == pytest.approx(60.0)
        pool.release(r)
        assert pool.used == 0.0

    def test_over_reservation_raises(self):
        pool = MemoryPool(capacity=10.0, reserve_fraction=0.0)
        pool.reserve("a", 6.0)
        with pytest.raises(OutOfDeviceMemory):
            pool.reserve("b", 5.0)

    def test_error_message_names_tag(self):
        pool = MemoryPool(capacity=1.0, reserve_fraction=0.0)
        with pytest.raises(OutOfDeviceMemory, match="kv-cache"):
            pool.reserve("kv-cache", 2.0)

    def test_double_release_raises(self):
        pool = MemoryPool(capacity=10.0)
        r = pool.reserve("x", 1.0)
        pool.release(r)
        with pytest.raises(KeyError):
            pool.release(r)

    def test_negative_reservation_rejected(self):
        pool = MemoryPool(capacity=10.0)
        with pytest.raises(ValueError):
            pool.reserve("x", -1.0)

    def test_would_fit(self):
        pool = MemoryPool(capacity=10.0, reserve_fraction=0.0)
        assert pool.would_fit(10.0)
        assert not pool.would_fit(10.1)
        assert not pool.would_fit(-1.0)

    def test_breakdown_aggregates_by_tag(self):
        pool = MemoryPool(capacity=10.0, reserve_fraction=0.0)
        pool.reserve("kv", 1.0)
        pool.reserve("kv", 2.0)
        pool.reserve("weights", 3.0)
        assert pool.breakdown() == {"kv": 3.0, "weights": 3.0}

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MemoryPool(capacity=0.0)
        with pytest.raises(ValueError):
            MemoryPool(capacity=1.0, reserve_fraction=1.0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_rejects_non_finite_capacity(self, capacity):
        # A NaN capacity made ``free`` NaN, so a 1e30-byte reservation fit.
        with pytest.raises(ValueError, match="capacity must be finite"):
            MemoryPool(capacity=capacity)

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_reservation(self, nbytes):
        # ``reserve(tag, nan)`` used to make ``free`` NaN, after which every
        # later reservation fit.
        pool = MemoryPool(capacity=10.0, reserve_fraction=0.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            pool.reserve("kv", nbytes)
        assert pool.free == 10.0
        with pytest.raises(OutOfDeviceMemory):
            pool.reserve("kv", 1e30)


@given(
    sizes=st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=30)
)
def test_ledger_invariant_used_plus_free_is_usable(sizes):
    """Property: at every step, used + free == usable and used >= 0."""
    pool = MemoryPool(capacity=1e10, reserve_fraction=0.05)
    live = []
    for i, s in enumerate(sizes):
        if pool.would_fit(s):
            live.append(pool.reserve(f"t{i}", s))
        elif live and i % 2:
            pool.release(live.pop())
        assert pool.used + pool.free == pytest.approx(pool.usable)
        assert pool.used >= 0
