"""Cross-layer performance subsystem: memoization and interning.

Three caches back the serving-scale fast paths (see DESIGN.md):

* :mod:`repro.perf.streams` interns GEMV command streams per
  ``(shape, organization, encoding, dtype)``;
* :mod:`repro.perf.calibration` caches command-level calibration per
  hardware configuration;
* :mod:`repro.perf.cache` is the shared keyed-cache registry with
  uniform invalidation and hit/miss accounting.
"""

from repro.perf.cache import KeyedCache, cache, cache_info, invalidate
from repro.perf.calibration import CALIBRATION_CACHE, cached_calibrate
from repro.perf.streams import STREAM_CACHE, gemv_stream, interned_stream

__all__ = [
    "KeyedCache",
    "cache",
    "cache_info",
    "invalidate",
    "CALIBRATION_CACHE",
    "cached_calibrate",
    "STREAM_CACHE",
    "gemv_stream",
    "interned_stream",
]
