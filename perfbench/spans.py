"""In-memory spans recorded around the simulator's public entry points.

The traced run wraps each layer's public entry points from outside (the
program carries no tracing code).  Every call becomes one span: a layer
name, start and end (``perf_counter`` seconds), the index of the span
that was open when it started (its parent, ``-1`` at top level) and a
request id where the entry point takes one (``-1`` otherwise), so spans
of one request share an id.  Spans stay in flat arrays while the run
lasts and are written out once it ends.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``rid(args, kwargs) -> int`` picks a request id out of a call.
RidFn = Callable[[tuple, dict], int]
#: ``observe(args, kwargs, result)`` reads counts off a finished call.
ObserveFn = Callable[[tuple, dict, Any], None]

_ABSENT = object()


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("q")
        self._open: List[int] = []
        #: free-form counters filled by ``observe`` hooks
        self.counts: Dict[str, float] = {}
        #: (owner, attr, previous value or _ABSENT) per replacement
        self._replaced: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, fn: Callable, name: str, rid: Optional[RidFn] = None,
             observe: Optional[ObserveFn] = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        name_id = self._name_id(name)
        open_ = self._open
        names, starts, ends = self.name_of, self.start, self.end
        parents, rids = self.parent, self.rid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_[-1] if open_ else -1)
            rids.append(rid(args, kwargs) if rid is not None else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                open_.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr``, remembering what :meth:`restore` puts back."""
        previous = vars(owner).get(attr, _ABSENT)
        self._replaced.append((owner, attr, previous))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str,
              rid: Optional[RidFn] = None,
              observe: Optional[ObserveFn] = None) -> None:
        """Replace ``owner.attr`` (a class or module) with a traced wrapper."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name,
                                            rid, observe))

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._replaced:
            owner, attr, previous = self._replaced.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, float("-inf")):
            self.counts[key] = value

    def write(self, path: str) -> None:
        """Write the spans: a JSON header plus one binary file per column."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = {"name": self.name_of, "start": self.start,
                   "end": self.end, "parent": self.parent, "rid": self.rid}
        header = {"names": self.names, "spans": len(self), "columns": {}}
        for column, values in columns.items():
            column_path = f"{path}.{column}.bin"
            with open(column_path, "wb") as handle:
                values.tofile(handle)
            header["columns"][column] = {
                "file": os.path.basename(column_path),
                "typecode": values.typecode}
        with open(path, "w") as handle:
            json.dump(header, handle, indent=1)


def layer_self_times(names: Sequence[str], starts: Sequence[float],
                     ends: Sequence[float], parents: Sequence[int]
                     ) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` over spans given column-wise.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest strictly, so the children never
    overlap each other and lie inside their parent.
    """
    child = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[index] - starts[index]
    totals: Dict[str, Tuple[int, float]] = {}
    for index, name in enumerate(names):
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + ends[index] - starts[index]
                        - child[index])
    return totals

