"""A zero-overhead-when-empty event bus for simulation observers.

CounterPoint-style methodology: the way to *refute* a modeling
assumption is to watch the running system through event counters — but
the observer path must cost nothing when nobody is watching, or the
instrumented system is no longer the system being measured (McKenney's
rule for lock-free observation).  The bus here encodes that contract:

* Producers (the serving scheduler, sessions, the fleet router) hold an
  ``Optional[EventBus]`` and guard every emission with
  ``bus is not None and bus.active`` — with no subscribers the cost is
  one attribute read and a branch, and **no event object is ever
  constructed**.  The batch-mode observer-overhead benchmark in
  ``benchmarks/test_perf_regression.py`` gates this at <5%.
* Consumers subscribe by event type (or to everything) and receive each
  event synchronously, in emission order, on the simulation thread.

Events are plain frozen dataclasses (see :mod:`repro.serving.events`
for the serving taxonomy); the bus is type-agnostic and dispatches on
``type(event)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Type

#: An event consumer; receives the event object, return value ignored.
EventHandler = Callable[[Any], None]


class EventBus:
    """Synchronous publish/subscribe keyed on event type.

    ``active`` is a plain attribute (not a property) so the producer-side
    guard is a single LOAD_ATTR; it flips to ``True`` while at least one
    subscription is live.
    """

    __slots__ = ("_handlers", "_any", "active")

    def __init__(self) -> None:
        self._handlers: Dict[Type[Any], List[EventHandler]] = {}
        self._any: List[EventHandler] = []
        self.active = False

    def _refresh_active(self) -> None:
        self.active = bool(self._any) or any(self._handlers.values())

    def subscribe(self, event_type: Optional[Type[Any]],
                  handler: EventHandler) -> Callable[[], None]:
        """Add a handler for one event type (``None`` = every event).

        Returns an unsubscribe callable; calling it more than once is
        harmless.  Handlers for a base class do **not** fire for
        subclasses — dispatch is on the exact ``type(event)`` — so
        subscribe to ``None`` for taxonomy-wide observation.
        """
        bucket = self._any if event_type is None else \
            self._handlers.setdefault(event_type, [])
        bucket.append(handler)
        self.active = True
        done = False

        def unsubscribe() -> None:
            # One-shot: a second call must not remove another live
            # subscription that registered the same handler object.
            nonlocal done
            if done:
                return
            done = True
            bucket.remove(handler)
            self._refresh_active()
        return unsubscribe

    def emit(self, event: Any) -> None:
        """Deliver one event to its type's handlers, then the wildcards.

        Producers should guard with :attr:`active` *before* constructing
        the event; calling ``emit`` with no subscribers is merely cheap,
        not free.  Delivery iterates a snapshot of each handler list, so
        a handler may unsubscribe itself (one-shot triggers) — or
        subscribe new handlers — without affecting who receives the
        in-flight event.
        """
        typed = self._handlers.get(type(event))
        if typed:
            for handler in tuple(typed):
                handler(event)
        if self._any:
            for handler in tuple(self._any):
                handler(event)
