"""Discrete-event simulation kernel.

The NeuPIMs reproduction uses two simulation granularities (see DESIGN.md):
a command-level DRAM/PIM simulation and an event/tile-level device
simulation.  Both are driven by the same tiny discrete-event engine defined
here: a priority queue of ``(time, seq, callback)`` entries plus a notion of
named *resources* whose busy intervals feed utilization accounting.

Time is measured in **cycles** of the memory clock (1 GHz in the paper's
Table 2 configuration, so one cycle equals one nanosecond).  Floats are
accepted so that analytic tile models can schedule sub-cycle durations; the
engine only requires times to be non-negative and non-decreasing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.events import ClockAdvanced


class SimulationError(RuntimeError):
    """Raised when the engine is driven inconsistently (e.g. past events)."""


class _Event:
    """Handle for a scheduled callback.

    The heap orders plain ``(time, seq)`` tuples — native float/int
    comparisons — rather than ordering these handles, which would pay a
    generated ``__lt__`` method call per heap sift.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "executed")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.executed = False


class EventEngine:
    """A minimal discrete-event scheduler.

    Events are callbacks scheduled at absolute times.  Ties are broken by
    insertion order, which makes simulations deterministic.

    Example
    -------
    >>> engine = EventEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda: fired.append("a"))
    >>> _ = engine.schedule_at(3.0, lambda: fired.append("b"))
    >>> engine.run()
    >>> fired
    ['b', 'a']
    >>> engine.now
    5.0
    """

    def __init__(self) -> None:
        #: heap of (time, seq, event) — tuple comparison never reaches the
        #: event because (time, seq) is unique per entry
        self._queue: List[Tuple[float, int, _Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        #: live count of scheduled, non-cancelled events — kept so
        #: :meth:`pending` is O(1) instead of a full queue scan.
        self._pending = 0
        #: optional observer bus; ``None`` keeps :meth:`step` branch-cheap
        self._events = None

    def attach_events(self, bus) -> None:
        """Attach an observer :class:`~repro.sim.events.EventBus`.

        The engine publishes :class:`~repro.sim.events.ClockAdvanced`
        after each executed callback — but only while the bus has
        subscribers, so an attached-but-idle bus costs one branch per
        step (the zero-overhead-when-empty contract).
        """
        self._events = bus

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` at absolute ``time``; returns a handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = _Event(float(time), next(self._counter), callback)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._pending += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` after a relative ``delay`` (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def cancel(self, event: _Event) -> None:
        """Cancel a previously scheduled event (lazy removal).

        Cancelling an event that already ran (or was already cancelled)
        is a no-op, as before — the pending counter only moves for events
        still in flight.
        """
        if not event.cancelled and not event.executed:
            event.cancelled = True
            self._pending -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when drained."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            event.executed = True
            self._pending -= 1
            event.callback()
            events = self._events
            if events is not None and events.active:
                events.emit(ClockAdvanced(time=time))
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, which makes fixed-horizon
        utilization measurements well defined.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of pending (non-cancelled) events (O(1))."""
        return self._pending


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
