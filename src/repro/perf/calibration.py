"""Cached hardware calibration.

:func:`repro.pim.engine.calibrate` replays command-level GEMVs to measure
``L_tile`` / ``L_GWRITE`` — worth doing once per hardware configuration,
not once per caller.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import (DEFAULT_ORGANIZATION, DEFAULT_PIM_TIMING,
                               DEFAULT_TIMING, HbmOrganization, PimTiming,
                               TimingParams)
from repro.perf.cache import cache
from repro.pim.engine import CalibratedLatencies, calibrate

#: Registry name of the calibration memo table.
CALIBRATION_CACHE = "pim_calibration"


def cached_calibrate(timing: Optional[TimingParams] = None,
                     org: Optional[HbmOrganization] = None,
                     pim_timing: Optional[PimTiming] = None,
                     dtype_bytes: int = 2) -> CalibratedLatencies:
    """Command-level calibration, memoized per hardware configuration."""
    timing = timing or DEFAULT_TIMING
    org = org or DEFAULT_ORGANIZATION
    pim_timing = pim_timing or DEFAULT_PIM_TIMING
    table = cache(CALIBRATION_CACHE)
    key = (timing, org, pim_timing, dtype_bytes)
    return table.get_or_compute(
        key, lambda: calibrate(timing, org, pim_timing, dtype_bytes))
