"""Unit tests for the busy-interval resources."""

import pytest

from repro.sim.engine import Resource, SimulationError


class TestResource:
    def test_first_booking_starts_at_earliest(self):
        res = Resource("r")
        start, end = res.acquire_for(10.0, earliest=5.0)
        assert (start, end) == (5.0, 15.0)

    def test_bookings_serialize(self):
        res = Resource("r")
        res.acquire_for(10.0)
        start, end = res.acquire_for(5.0)
        assert (start, end) == (10.0, 15.0)

    def test_earliest_after_free_time_creates_gap(self):
        res = Resource("r")
        res.acquire_for(2.0)
        start, _ = res.acquire_for(1.0, earliest=10.0)
        assert start == 10.0

    def test_busy_time_accumulates(self):
        res = Resource("r")
        res.acquire_for(3.0)
        res.acquire_for(4.0, earliest=20.0)
        assert res.busy_time == 7.0

    def test_utilization_over_horizon(self):
        res = Resource("r")
        res.acquire_for(25.0)
        assert res.utilization(100.0) == 0.25

    def test_utilization_clamps_to_one(self):
        res = Resource("r")
        res.acquire_for(50.0)
        assert res.utilization(10.0) == 1.0

    def test_zero_horizon_utilization_is_zero(self):
        assert Resource("r").utilization(0.0) == 0.0

    def test_negative_duration_raises(self):
        with pytest.raises(SimulationError):
            Resource("r").acquire_for(-1.0)

    def test_zero_duration_does_not_book_interval(self):
        res = Resource("r")
        res.acquire_for(0.0)
        assert res.intervals == []
        assert res.busy_time == 0.0

    def test_reset_clears_state(self):
        res = Resource("r")
        res.acquire_for(5.0)
        res.reset()
        assert res.free_at == 0.0
        assert res.busy_time == 0.0
        assert res.intervals == []
