"""Cross-fidelity typed counters and the refutation harness.

Typed hardware counter vectors emitted by both fidelity tiers over the
same taxonomy (:data:`~repro.counters.report.COUNTER_NAMES`), so the
tiers can be *diffed* rather than trusted.  A scenario opts in with the
spec field ``counters="typed"``.

* :mod:`repro.counters.report` — the taxonomy, the frozen
  :class:`CounterReport` rollup and its drift arithmetic;
* :mod:`repro.counters.collect` — the run-time
  :class:`CounterCollector` (built by the session for
  ``counters="typed"``) and the :func:`counting_executor` session
  wrapper;
* :mod:`repro.counters.model` — the analytic-tier
  :class:`DeviceCounterModel` annotating iteration results with their
  predicted counter vectors;
* :mod:`repro.counters.refute` — the cross-tier refutation harness
  (``python -m repro refute``); its device and command-level imports
  happen inside :func:`~repro.counters.refute.run_refute`.

Discipline matches the faults layer: the default ``counters="none"``
builds no collector, every producer guards on a single ``is not None``
branch, and the disabled path is gated bit-identical and <5% overhead
by the perf benchmark suite.
"""

from repro.counters.collect import CounterCollector, counting_executor
from repro.counters.model import DeviceCounterModel
from repro.counters.refute import region_key
from repro.counters.report import COUNTER_NAMES, CounterReport

__all__ = [
    "COUNTER_NAMES",
    "CounterCollector",
    "CounterReport",
    "DeviceCounterModel",
    "counting_executor",
    "region_key",
]
