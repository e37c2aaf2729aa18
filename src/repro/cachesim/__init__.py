"""Exact set-associative cache-hierarchy simulation.

This package is the reproduction's measurement substrate: it replays
the true line-granular access stream of a compiled kernel through an
LRU hierarchy (write-back/write-allocate; optional exclusive victim L3
for AMD Rome) and reports per-boundary line traffic.  The analytic ECM
model in :mod:`repro.ecm` derives the same quantities from layer
conditions *without* running anything — comparing the two is how the
reproduction validates the paper's "no need to run the code" claim.
"""

from repro.cachesim.fastlru import VectorCache
from repro.cachesim.hierarchy import CacheHierarchy, TrafficReport
from repro.cachesim.stream import (
    SweepPrefix,
    canonical_sweep_plan,
    sweep_stream,
)
from repro.cachesim.dispatch import (
    PREDICTORS,
    LcAnalysis,
    PredictorError,
    analyze_lc,
    predictor_counters,
)
from repro.cachesim.memo import (
    TrafficCache,
    default_traffic_cache,
    resolve_traffic_cache,
    set_default_traffic_cache,
    stream_key,
    sweep_key,
)
from repro.cachesim.driver import (
    measure_sweep,
    measure_stream,
    prefix_stats,
)

__all__ = [
    "VectorCache",
    "CacheHierarchy",
    "TrafficReport",
    "TrafficCache",
    "PREDICTORS",
    "LcAnalysis",
    "PredictorError",
    "SweepPrefix",
    "analyze_lc",
    "canonical_sweep_plan",
    "predictor_counters",
    "default_traffic_cache",
    "set_default_traffic_cache",
    "resolve_traffic_cache",
    "sweep_key",
    "stream_key",
    "sweep_stream",
    "measure_sweep",
    "measure_stream",
    "prefix_stats",
]
