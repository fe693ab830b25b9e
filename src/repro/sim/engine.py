"""Busy-interval resources shared by the device-level timing models.

The NeuPIMs reproduction has two simulation granularities (see
DESIGN.md): the command-level DRAM/PIM controller, which keeps its own
cycle clock, and the analytic device tier, which composes closed-form
stage latencies.  Neither runs a general event scheduler.  This module
holds what the analytic tier's pipeline models share: a serially
reusable :class:`Resource` whose booked busy intervals feed utilization
accounting, and the :class:`SimulationError` raised on inconsistent
timing (negative durations).

Time is measured in **cycles** of the memory clock (1 GHz in the paper's
Table 2 configuration, so one cycle equals one nanosecond).  Floats are
accepted so that analytic tile models can book sub-cycle durations.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class SimulationError(RuntimeError):
    """Raised when a timing model is driven inconsistently."""


class Resource:
    """A serially-reusable resource with busy-time accounting.

    The device-level simulation models NPU systolic arrays, vector units,
    PIM channels and the HBM bus as resources.  ``acquire_for`` books the
    earliest interval of a given duration starting no earlier than
    ``earliest`` and returns the (start, end) interval, which is how the
    pipeline models compose operator timelines without callbacks.
    """

    def __init__(self, name: str, record_intervals: bool = True) -> None:
        self.name = name
        self._free_at = 0.0
        self._busy_time = 0.0
        self._record_intervals = record_intervals
        self._intervals: List[Tuple[float, float]] = []

    @property
    def free_at(self) -> float:
        """Earliest time at which the resource is idle."""
        return self._free_at

    @property
    def busy_time(self) -> float:
        """Total accumulated busy time."""
        return self._busy_time

    @property
    def intervals(self) -> Sequence[Tuple[float, float]]:
        """Recorded (start, end) busy intervals, in booking order.

        A read-only view of the live list (no per-access copy — pipeline
        models poll this inside scheduling loops); callers must not
        mutate it.
        """
        return self._intervals

    def acquire_for(self, duration: float, earliest: float = 0.0) -> Tuple[float, float]:
        """Book the resource for ``duration`` starting at or after ``earliest``."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        start = max(self._free_at, earliest)
        end = start + duration
        self._free_at = end
        if duration > 0:
            self._busy_time += duration
            if self._record_intervals:
                self._intervals.append((start, end))
        return start, end

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``[0, horizon]``; 0.0 for a zero horizon."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    def reset(self) -> None:
        """Clear all bookings: back to the initial idle state."""
        self._free_at = 0.0
        self._busy_time = 0.0
        self._intervals.clear()
