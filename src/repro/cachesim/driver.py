"""Drivers: replay kernel streams through a cache hierarchy."""

from __future__ import annotations

import threading
from math import prod
from typing import Callable, Iterable

import numpy as np

from collections import OrderedDict

from repro import obs
from repro.cachesim.dispatch import (
    PREDICTORS,
    PredictorError,
    analyze_lc,
    predictor_counters,
    validation_enabled,
)
from repro.cachesim.hierarchy import CacheHierarchy, TrafficReport
from repro.cachesim.memo import (
    TrafficCache,
    _grids_fingerprint,
    _spec_fingerprint,
    content_digest,
    resolve_traffic_cache,
    sweep_key,
)
from repro.cachesim.stream import (
    SweepPrefix,
    canonical_sweep_plan,
    coalesce_batches,
    sweep_stream,
)
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.stencil.spec import StencilSpec


def measure_stream(
    machine: Machine,
    stream: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]],
    lups: int = 0,
    warmup: bool = True,
) -> TrafficReport:
    """Replay the ``(lines, writes)`` stream ``stream()`` builds.

    Consecutive batches are joined into mega-batches
    (:func:`~repro.cachesim.stream.coalesce_batches`); counters do not
    depend on where batches are cut.  With ``warmup`` a first replay
    runs uncounted.  Addresses are name-bound, so it leaves exactly the
    footprint a steady pointer-swapping time loop would: the trailing
    working set of every involved array.  Returns the counted replay's
    traffic.
    """
    hier = CacheHierarchy(machine)
    if warmup:
        for lines, writes in coalesce_batches(stream()):
            hier.access_many(lines, writes)
        hier.reset_counters()
    for lines, writes in coalesce_batches(stream()):
        hier.access_many(lines, writes)
    return hier.report(lups=lups)


# --- shared stream prefixes ------------------------------------------------
#
# Tuner sweeps replay many plans against one (spec, grids): the per-variant
# stream construction dominates once the batched engine made the replay
# itself cheap.  A small per-process cache keeps the full-grid SweepPrefix
# of the most recent grids alive across consecutive measure_sweep calls.
# The lock covers every LRU mutation so threaded callers cannot corrupt
# the OrderedDict; the (expensive, deterministic) prefix build runs
# outside it — a racing duplicate build is wasted work, never wrong.

_PREFIX_LOCK = threading.Lock()
_PREFIX_CACHE: OrderedDict[str, SweepPrefix] = OrderedDict()
_PREFIX_CAP = 8
_PREFIX_STATS = {"builds": 0, "reuses": 0}


def prefix_stats() -> dict[str, int]:
    """Build/reuse counts of the shared-prefix cache (this process)."""
    with _PREFIX_LOCK:
        return dict(_PREFIX_STATS)


def _shared_prefix(spec: StencilSpec, grids: GridSet) -> SweepPrefix:
    key = content_digest(
        [_spec_fingerprint(spec), _grids_fingerprint(grids)]
    )
    with _PREFIX_LOCK:
        prefix = _PREFIX_CACHE.get(key)
        if prefix is not None:
            _PREFIX_CACHE.move_to_end(key)
            _PREFIX_STATS["reuses"] += 1
            return prefix
    prefix = SweepPrefix(spec, grids)
    with _PREFIX_LOCK:
        _PREFIX_CACHE[key] = prefix
        _PREFIX_STATS["builds"] += 1
        while len(_PREFIX_CACHE) > _PREFIX_CAP:
            _PREFIX_CACHE.popitem(last=False)
    return prefix


def _replay_sweep(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    warmup: bool,
) -> TrafficReport:
    """Replay one sweep through the simulator (no memo, no dispatch)."""
    with obs.span("cachesim.replay") as rp:
        prefix = _shared_prefix(spec, grids)
        if prefix.supports(plan):
            rp.set(batch="prefix")
            stream = lambda: prefix.stream(plan)  # noqa: E731
        else:
            stream = lambda: sweep_stream(spec, grids, plan)  # noqa: E731
        return measure_stream(
            machine, stream, lups=prod(grids.interior_shape), warmup=warmup
        )


def measure_sweep(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    warmup: bool = True,
    traffic_cache: TrafficCache | str | None = "default",
    predictor: str = "auto",
) -> TrafficReport:
    """Cache traffic of one steady-state stencil sweep.

    With ``warmup`` a full sweep is replayed first (without counting) so
    the measured sweep sees the warm state a time-stepping loop would —
    the regime the paper's steady-state measurements live in.

    Results are memoized in ``traffic_cache`` (``"default"`` = the
    process-wide cache, ``None`` = off): the replay is deterministic, so
    identical configurations return the cached report without
    re-simulation.

    ``predictor`` selects how the report is produced: ``"simulate"``
    always replays, ``"lc"`` demands the analytic layer-condition fast
    path (raising :class:`~repro.cachesim.dispatch.PredictorError` when
    the analysis cannot certify exactness for this configuration), and
    ``"auto"`` (default) serves analytically whenever the analysis is
    provably exact and falls back to the replay otherwise.  LC-served
    reports are bit-identical to the simulator's, so the predictor
    never enters the memo key.  Set ``REPRO_LC_VALIDATE=1`` to
    cross-check every LC answer against the replay.
    """
    if predictor not in PREDICTORS:
        raise ValueError(
            f"unknown predictor {predictor!r}; choose from {PREDICTORS}"
        )
    # Collapse the plan to its stream-equivalence class representative:
    # every variant in the class has the identical access stream, so
    # the memo entry, the replay and the LC analysis are all shared.
    plan = canonical_sweep_plan(grids.interior_shape, plan)
    counters = predictor_counters()
    with obs.span("cachesim.sweep") as sp:
        cache = resolve_traffic_cache(traffic_cache)
        if cache is not None:
            key = sweep_key(spec, grids, plan, machine, warmup)
            cached = cache.get(key)
            if cached is not None:
                sp.add(memo_hits=1)
                sp.set(served="memo")
                return cached
            sp.add(memo_misses=1)
        if predictor in ("auto", "lc"):
            analysis = analyze_lc(spec, grids, plan, machine, warmup=warmup)
            if analysis.exact:
                report = analysis.report
                if validation_enabled():
                    simulated = _replay_sweep(
                        spec, grids, plan, machine, warmup
                    )
                    if (
                        report.loads != simulated.loads
                        or report.writebacks != simulated.writebacks
                        or report.accesses != simulated.accesses
                    ):
                        counters.incr("lc_validation_mismatch")
                        report = simulated
                if report is analysis.report:
                    counters.incr("lc_served")
                    sp.set(served="lc")
                else:
                    counters.incr("sim_served")
                    sp.set(served="simulate")
                if cache is not None:
                    cache.put(key, report)
                return report
            if predictor == "lc":
                raise PredictorError(
                    f"layer-condition predictor declined for "
                    f"{spec.name}/{plan.describe()}: {analysis.reason}"
                )
        counters.incr("sim_served")
        sp.set(served="simulate")
        report = _replay_sweep(spec, grids, plan, machine, warmup)
        if cache is not None:
            cache.put(key, report)
        return report
