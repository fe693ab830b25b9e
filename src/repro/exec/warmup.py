"""Per-worker initializers for process-pool execution.

A fresh worker interpreter (``spawn``/``forkserver``) starts with cold
``repro.perf`` caches; the first task in each worker would then pay the
full command-level calibration (~hundreds of ms) that the parent already
paid.  :class:`PerfCacheWarmup` is a picklable initializer that re-runs
:func:`repro.perf.cached_calibrate` for the hardware configurations a
sweep will touch, so every worker starts warm.  Under ``fork`` the
workers inherit the parent's caches and the warmup hits memoized entries,
costing nothing.

The same initializer slot carries **component registrations** across
worker boundaries: a :class:`~repro.api.ScenarioSpec` references its
scheduler/system/traffic components by *name*, so a worker must execute
the ``repro.registry.register`` calls before materializing such a spec.
``fork`` workers inherit the parent's registry; ``spawn`` workers do
not, and :class:`RegistryWarmup` closes the gap by importing the named
modules (whose import side effect is the registration) in each worker.
:class:`WarmupChain` composes several initializers into the single
callable the backends accept.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Tuple

from repro.core.config import NeuPimsConfig


@dataclass(frozen=True)
class PerfCacheWarmup:
    """Warm the calibration cache per worker.

    Only calibration is shared through :mod:`repro.perf`; Algorithm-1
    estimates are memoized per estimator instance, so there is nothing
    for a worker to pre-estimate.
    """

    configs: Tuple[NeuPimsConfig, ...] = field(
        default_factory=lambda: (NeuPimsConfig(),))
    #: element widths to calibrate per config (part of the cache key)
    dtype_bytes: Tuple[int, ...] = (2,)

    def __call__(self) -> None:
        # The import stays inside the call so pickling the warmup spec
        # never drags the whole simulation stack into the parent-side
        # payload.
        from repro.perf.calibration import cached_calibrate

        for config in self.configs:
            for dtype in self.dtype_bytes:
                cached_calibrate(config.timing, config.org,
                                 config.pim_timing, dtype)


@dataclass(frozen=True)
class RegistryWarmup:
    """Import component-registering modules in every worker.

    ``modules`` names importable modules whose import side effect is a
    set of ``repro.registry.register`` calls.  Fork workers inherit the
    parent's registry, making the imports cheap no-ops; spawn/forkserver
    workers execute them for real, so specs naming the components
    materialize identically under every start method.
    """

    modules: Tuple[str, ...] = ()

    def __call__(self) -> None:
        """Import each module (idempotent via ``sys.modules``)."""
        for module in self.modules:
            importlib.import_module(module)


@dataclass(frozen=True)
class WarmupChain:
    """Compose several per-worker initializers into one callable."""

    initializers: Tuple[Callable[[], None], ...] = ()

    def __call__(self) -> None:
        """Run the initializers in order."""
        for initializer in self.initializers:
            initializer()
