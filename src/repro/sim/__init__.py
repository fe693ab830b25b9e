"""Timing resources, the observer event bus and statistics utilities."""

from repro.sim.engine import Resource, SimulationError
from repro.sim.events import EventBus
from repro.sim.stats import (
    Counter,
    StatsRegistry,
    UtilizationReport,
    busy_fraction,
    histogram,
    merge_intervals,
    summarize,
    weighted_mean,
)

__all__ = [
    "EventBus",
    "Resource",
    "SimulationError",
    "Counter",
    "StatsRegistry",
    "UtilizationReport",
    "busy_fraction",
    "histogram",
    "merge_intervals",
    "summarize",
    "weighted_mean",
]
