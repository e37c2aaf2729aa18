"""Predictor dispatch: analytic layer-condition fast path vs. replay.

The paper's premise is that layer conditions and exact cache simulation
are two predictors of the *same* traffic.  This module makes that
operational: :func:`analyze_lc` decides, per request, whether the
layer-condition analysis is **exact** for the given
spec/grids/plan/machine — and when it is, synthesizes the
:class:`~repro.cachesim.hierarchy.TrafficReport` analytically, skipping
stream generation and replay entirely.

Exactness is not assumed from the classic capacity inequalities (those
only bound *average* behaviour); it is established per cache level with
per-set occupancy arguments on the actual line intervals the sweep
touches:

* a level is **full** when no set ever holds more distinct lines than
  its associativity — then nothing is ever evicted and the level is
  silent after warm-up;
* a reuse is **hit-certain** when the lines touched inside the reuse
  window occupy every set with at most ``assoc`` distinct lines — LRU
  then cannot have evicted the reused line;
* a reuse is **miss-certain** when every occupied set sees at least
  ``assoc + 1`` distinct window lines between reuses (with a slack term
  for the reused line's own neighbourhood) — LRU then must have evicted
  it.

Levels where neither certainty holds (partial blocks, scaled-down
caches, marginal working sets) make the whole request fall back to
:func:`~repro.cachesim.driver.measure_sweep`'s replay — the dispatcher
never guesses.  The supported domain is the unblocked full-grid sweep
(the predict/measure hot path); blocked tuner variants are served by the
batched replay engine instead.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.cachesim.hierarchy import TrafficReport
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.stencil.spec import StencilSpec

__all__ = [
    "PREDICTORS",
    "PredictorError",
    "PredictorCounters",
    "predictor_counters",
    "LcAnalysis",
    "analyze_lc",
    "validation_enabled",
]

#: Valid values of the ``predictor`` selector threaded through
#: ``measure_sweep`` / ``simulate_kernel`` / the engine and service.
PREDICTORS = ("auto", "lc", "simulate")

#: Environment flag: cross-check every LC-served report against the
#: simulator (slow; used by the property tests and chaos runs).
VALIDATE_ENV = "REPRO_LC_VALIDATE"

#: Interval widening (lines, per side) covering the floor-division
#: jitter when one row/plane window stands in for every translate.
_JITTER = 2


class PredictorError(ValueError):
    """A forced predictor cannot serve the request (``predictor="lc"``
    on a configuration the dispatcher does not claim as exact)."""


class PredictorCounters:
    """Process-wide predictor-path counters (surfaced in ``/metrics``).

    Increments go through :meth:`incr` so concurrent in-process callers
    (threaded ``measure_sweep``) cannot drop counts: a bare ``+=`` on an
    attribute is a read-modify-write that loses updates under races.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.lc_served = 0
        self.sim_served = 0
        self.lc_validation_mismatch = 0

    def incr(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "lc_served": self.lc_served,
                "sim_served": self.sim_served,
                "lc_validation_mismatch": self.lc_validation_mismatch,
            }

    def reset(self) -> None:
        with self._lock:
            self.lc_served = 0
            self.sim_served = 0
            self.lc_validation_mismatch = 0


_COUNTERS = PredictorCounters()


def predictor_counters() -> PredictorCounters:
    """The process-wide counter object."""
    return _COUNTERS


def validation_enabled() -> bool:
    """Whether LC answers are cross-checked against the simulator."""
    return os.environ.get(VALIDATE_ENV, "") not in ("", "0")


@dataclass(frozen=True)
class LcAnalysis:
    """Outcome of one exactness analysis.

    ``report`` is the synthesized traffic when ``exact``; ``reason``
    says which precondition or certainty test failed otherwise.
    ``regimes`` holds the per-level classification (``full`` / ``plane``
    / ``row``) for the levels that were classified.
    """

    exact: bool
    reason: str
    regimes: tuple[str, ...]
    report: TrafficReport | None


def _merge(starts: np.ndarray, ends: np.ndarray):
    """Union of inclusive integer intervals → disjoint sorted pieces."""
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = ends[order]
    # A new piece begins where the start exceeds the running max end + 1.
    run_max = np.maximum.accumulate(e)
    new = np.empty(s.shape[0], dtype=bool)
    new[0] = True
    new[1:] = s[1:] > run_max[:-1] + 1
    idx = np.flatnonzero(new)
    ps = s[idx]
    pe = np.empty(idx.shape[0], dtype=np.int64)
    pe[:-1] = run_max[idx[1:] - 1]
    pe[-1] = run_max[-1]
    return ps, pe


def _distinct(starts: np.ndarray, ends: np.ndarray) -> int:
    ps, pe = _merge(starts, ends)
    return int((pe - ps + 1).sum())


def _occupancy(
    pieces, n_sets: int, widen: int = 0, all_sets: bool = False
) -> tuple[int, int]:
    """Exact per-set distinct-line counts of disjoint pieces.

    Returns ``(occ_min, occ_max)``.  The minimum is over *occupied*
    sets by default, over **all** sets with ``all_sets`` (the form
    miss-certainty needs — an empty set shelters any line mapping to
    it).  ``widen`` grows every piece by that many lines per side (the
    translate-jitter allowance); negative values shrink, for lower
    bounds.
    """
    ps, pe = pieces
    s = ps - widen
    e = pe + widen
    keep = e >= s
    s = s[keep]
    e = e[keep]
    if s.shape[0] == 0:
        return 0, 0
    length = e - s + 1
    base = int((length // n_sets).sum())
    rem = length % n_sets
    a = s % n_sets
    diff = np.zeros(n_sets + 1, dtype=np.int64)
    nz = rem > 0
    a_nz = a[nz]
    b_nz = a_nz + rem[nz] - 1
    wrap = b_nz >= n_sets
    np.add.at(diff, a_nz, 1)
    np.add.at(diff, np.where(wrap, n_sets, b_nz + 1), -1)
    if wrap.any():
        diff[0] += int(wrap.sum())
        np.add.at(diff, b_nz[wrap] - n_sets + 1, -1)
    occ = base + np.cumsum(diff[:n_sets])
    if all_sets:
        return int(occ.min()), int(occ.max())
    occupied = occ > 0
    occ_min = int(occ[occupied].min()) if occupied.any() else 0
    return occ_min, int(occ.max())


def _intersect_len(a, b) -> int:
    """Total line count of the intersection of two disjoint piece lists."""
    sa, ea = a
    sb, eb = b
    i = j = total = 0
    while i < sa.shape[0] and j < sb.shape[0]:
        lo = max(sa[i], sb[j])
        hi = min(ea[i], eb[j])
        if lo <= hi:
            total += int(hi - lo + 1)
        if ea[i] < eb[j]:
            i += 1
        else:
            j += 1
    return total


@dataclass
class _Geometry:
    """Per-row interval geometry of the unblocked sweep."""

    starts: np.ndarray       # one interval per (row, column)
    ends: np.ndarray
    row_of: np.ndarray       # owning row of each interval
    out_starts: np.ndarray   # one interval per row (the store stream)
    out_ends: np.ndarray
    n_rows: int
    rows_per_plane: int
    n_planes: int
    accesses: int


def _geometry(
    spec: StencilSpec, grids: GridSet, plan: KernelPlan
) -> _Geometry:
    from repro.cachesim.stream import _block_geometry

    dim = spec.dim
    shape = grids.interior_shape
    halo = grids[spec.output].halo
    read_offsets = [
        (g, off) for g in spec.reads for off in sorted(spec.offsets[g])
    ]
    bounds = [(0, s) for s in shape]
    cols_flat, col_start, cc, n_chunks, rows = _block_geometry(
        bounds, halo, spec.dtype_bytes, 64, read_offsets, grids,
        grids[spec.output].layout,
    )
    row_of = np.repeat(np.arange(rows), cc)
    starts = cols_flat
    ends = cols_flat + (n_chunks[row_of] - 1)
    out_idx = col_start + cc - 1
    rows_per_plane = shape[dim - 2] if dim >= 2 else 1
    n_planes = rows // rows_per_plane
    return _Geometry(
        starts=starts,
        ends=ends,
        row_of=row_of,
        out_starts=cols_flat[out_idx],
        out_ends=cols_flat[out_idx] + (n_chunks - 1),
        n_rows=rows,
        rows_per_plane=rows_per_plane,
        n_planes=n_planes,
        accesses=int((cc * n_chunks).sum()),
    )


def _ext(spec: StencilSpec, axis: int) -> int:
    """Largest offset span along ``axis`` over the read grids."""
    ext = 0
    for g in spec.reads:
        vals = [o[axis] for o in spec.offsets[g]]
        ext = max(ext, max(vals) - min(vals))
    return ext


def analyze_lc(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    warmup: bool = True,
) -> LcAnalysis:
    """Decide exactness and, when exact, synthesize the traffic report.

    See the module docstring for the certainty framework.  The analysis
    costs a few interval merges over the row geometry — orders of
    magnitude cheaper than a replay.
    """

    def bail(reason: str, regimes: tuple[str, ...] = ()) -> LcAnalysis:
        return LcAnalysis(
            exact=False, reason=reason, regimes=regimes, report=None
        )

    dim = spec.dim
    shape = grids.interior_shape
    plan = plan.clipped(shape)
    if not warmup:
        return bail("cold-cache sweeps are replay-only")
    if dim not in (2, 3):
        return bail(f"unsupported dimensionality {dim}")
    if plan.wavefront != 1:
        return bail("temporal wavefronts are replay-only")
    if tuple(plan.block) != tuple(shape):
        return bail("blocked plans are served by the batched replay")
    if spec.output in spec.reads:
        return bail("in-place stencils are replay-only")
    if machine.line_bytes != 64:
        return bail("non-64B cache lines are replay-only")
    caches = machine.caches
    if not caches or any(c.victim for c in caches[:-1]):
        return bail("unsupported hierarchy shape")
    if len(caches) == 1 and caches[0].victim:
        return bail("a single-level victim hierarchy never holds a line")

    geo = _geometry(spec, grids, plan)
    all_pieces = _merge(geo.starts, geo.ends)
    distinct_all = int((all_pieces[1] - all_pieces[0] + 1).sum())
    distinct_out = _distinct(geo.out_starts, geo.out_ends)

    # Per-plane unions (the z-iteration reuse windows) and their sizes.
    plane_pieces = []
    plane_distinct = []
    rpp = geo.rows_per_plane
    for z in range(geo.n_planes):
        sel = (geo.row_of >= z * rpp) & (geo.row_of < (z + 1) * rpp)
        pieces = _merge(geo.starts[sel], geo.ends[sel])
        plane_pieces.append(pieces)
        plane_distinct.append(int((pieces[1] - pieces[0] + 1).sum()))

    # Row windows stand in for all translates (with jitter widening):
    # the rows a y-step reuse can span.  Two representatives are needed
    # because windows that straddle a plane seam are *not* translates of
    # the within-plane ones (the row pitch jumps by the halo padding):
    # one is taken mid-plane, one centred on a plane boundary.
    w_rows = min(_ext(spec, dim - 2) + 2, geo.n_rows)

    def window_pieces(lo: int, hi: int):
        sel = (geo.row_of >= lo) & (geo.row_of < hi)
        return _merge(geo.starts[sel], geo.ends[sel])

    row_windows = []
    mid_plane = geo.n_planes // 2
    start = mid_plane * rpp + max(0, (rpp - w_rows) // 2)
    start = min(start, geo.n_rows - w_rows)
    row_windows.append((start, start + w_rows))
    if geo.n_planes >= 2:
        # Seam reuses (a line shared by the trailing halo row of one
        # plane and the leading halo row of the next) re-touch within
        # about a radius of row-steps, so a straddling window of the
        # same width certifies them.
        seam = max(1, geo.n_planes // 2) * rpp
        start = min(max(0, seam - w_rows // 2), geo.n_rows - w_rows)
        row_windows.append((start, start + w_rows))
    row_pieces = [window_pieces(lo, hi) for lo, hi in row_windows]

    def occ_row_max(n_sets: int) -> int:
        return max(
            _occupancy(p, n_sets, widen=_JITTER)[1] for p in row_pieces
        )

    # Representative within-plane runs of ``run`` consecutive rows:
    # plane prefix / middle / suffix, at edge and middle planes.  Jitter
    # shrinking gives certain lower bounds, widening upper bounds.
    def _run_placements(run: int):
        z_picks = sorted({0, geo.n_planes // 2, geo.n_planes - 1})
        y_picks = sorted({0, (rpp - run) // 2, rpp - run})
        for z in z_picks:
            for y0 in y_picks:
                lo = z * rpp + y0
                yield window_pieces(lo, lo + run)

    def run_occ_allmin(run: int, n_sets: int) -> int:
        if run < 1 or run > rpp:
            return 0
        return min(
            _occupancy(p, n_sets, widen=-_JITTER, all_sets=True)[0]
            for p in _run_placements(run)
        )

    def run_occ_max(run: int, n_sets: int) -> int:
        return max(
            _occupancy(p, n_sets, widen=_JITTER)[1]
            for p in _run_placements(min(run, rpp))
        )

    # Between-touch windows for miss-certainty: a reused line sees, in
    # between its touches, at least a contiguous run of rows strictly
    # outside its own neighbourhood.  Straddling runs always contain a
    # pure within-plane run of half that length, so the representative
    # placements lower-bound every reuse.
    def between_rows_min(n_sets: int) -> int:
        if rpp - 2 * w_rows < 2:
            return 0
        return run_occ_allmin(max(1, (rpp - 2 * w_rows) // 2), n_sets)

    # Smallest row horizon after which eviction from a level is certain
    # (every placement fills every set past its associativity).
    def evict_horizon_rows(n_sets: int, assoc: int) -> int | None:
        m = w_rows
        while m <= rpp:
            if run_occ_allmin(m, n_sets) >= assoc:
                return m
            m *= 2
        return None

    def between_sweeps_min(n_sets: int) -> int:
        if dim == 2:
            return between_rows_min(n_sets)
        w_planes = min(_ext(spec, 0) + 2, geo.n_planes)
        run = max(1, (geo.n_planes - 2 * w_planes) // 2)
        if geo.n_planes - 2 * w_planes < 2:
            return 0
        occ = None
        for z0 in sorted({0, (geo.n_planes - run) // 2,
                          geo.n_planes - run}):
            omin, _ = _occupancy(
                window_pieces(z0 * rpp, (z0 + run) * rpp), n_sets,
                widen=-_JITTER, all_sets=True,
            )
            occ = omin if occ is None else min(occ, omin)
        return occ or 0

    # Plane-seam corrections for the row regime.  A line shared between
    # the trailing rows of iteration z and the leading rows of iteration
    # z+1 (store seams, halo-row straddles) is re-touched only a few
    # row-steps later — a certain hit the per-plane sums would count as
    # a second miss.  Dually, a straddle line touched in both the
    # leading and trailing band of the *same* iteration (diagonal
    # offsets) misses twice there but appears once in the union.  Every
    # cross-iteration reuse is either such a seam pair or a certain
    # miss a near-full plane away, so these two band intersections are
    # the entire correction.
    band = w_rows
    seam_hits = 0
    far_extra = 0
    for z in range(geo.n_planes):
        lead = window_pieces(z * rpp, z * rpp + band)
        trail = window_pieces((z + 1) * rpp - band, (z + 1) * rpp)
        far_extra += _intersect_len(lead, trail)
        if z + 1 < geo.n_planes:
            next_lead = window_pieces(
                (z + 1) * rpp, (z + 1) * rpp + band
            )
            seam_hits += _intersect_len(trail, next_lead)

    # The z-step reuse window: two consecutive planes, mid-grid.
    if dim == 3 and geo.n_planes >= 2:
        zm = (geo.n_planes - 2) // 2
        sel = (geo.row_of >= zm * rpp) & (geo.row_of < (zm + 2) * rpp)
        zz_window = _merge(geo.starts[sel], geo.ends[sel])
    else:
        zz_window = all_pieces

    levels = len(caches)
    victim_last = caches[-1].victim
    regimes: list[str] = []
    rank = {"row": 0, "plane": 1, "full": 2}
    for k, level in enumerate(caches):
        n_sets, assoc = level.n_sets, level.assoc
        if k == levels - 1 and victim_last:
            # The victim level fills only from evictions; residency
            # certainty is judged against its own geometry, fullness
            # against the level above (a full L2 never spills into it).
            _, occ_all_above = _occupancy(all_pieces, caches[k - 1].n_sets)
            if occ_all_above <= caches[k - 1].assoc:
                regimes.append("full")
                continue
        _, occ_all_max = _occupancy(all_pieces, n_sets)
        if not (k == levels - 1 and victim_last) and occ_all_max <= assoc:
            regimes.append("full")
            continue
        occ_row = occ_row_max(n_sets)
        _, occ_zz = _occupancy(zz_window, n_sets, widen=_JITTER)
        if dim == 3 and occ_zz <= assoc:
            # Plane regime: every reuse inside the two-plane window is
            # hit-certain; first touches must be miss-certain across
            # the warm-up sweep.
            if between_sweeps_min(n_sets) >= assoc:
                regimes.append("plane")
                continue
            return bail(
                f"{level.name}: plane window fits but cross-sweep "
                "eviction is not certain", tuple(regimes)
            )
        if occ_row <= assoc:
            # Row regime: y-step reuse hit-certain, z-step reuse must be
            # miss-certain at this level (and, for a victim level, at
            # the level above too — the line must leave both).
            miss_ok = between_rows_min(n_sets) >= assoc
            if miss_ok and k == levels - 1 and victim_last:
                up = caches[k - 1]
                miss_ok = between_rows_min(up.n_sets) >= up.assoc
            if miss_ok:
                regimes.append("row")
                continue
            return bail(
                f"{level.name}: row window fits but z-step eviction "
                "is not certain", tuple(regimes)
            )
        return bail(
            f"{level.name}: no certain regime (occ_row={occ_row}, "
            f"assoc={assoc})", tuple(regimes)
        )

    # Retention must not shrink with depth, or write-back ordering
    # between adjacent levels is no longer certain.
    for k in range(1, levels):
        if rank[regimes[k]] < rank[regimes[k - 1]]:
            return bail(
                "retention ordering violated "
                f"({regimes[k - 1]} above {regimes[k]})", tuple(regimes)
            )

    loads = [0] * levels
    writebacks = [0] * levels
    try:
        kf = regimes.index("full")
    except ValueError:
        kf = levels
    if victim_last and kf == levels and levels >= 3:
        # The install count at the victim boundary equals the fill count
        # only if no dirty line is ever re-inserted into the feeder
        # level after the feeder dropped its clean copy — i.e. the level
        # above the feeder must provably evict a line before the feeder
        # can.  A row-regime level above a plane-regime feeder satisfies
        # that structurally (eviction within one plane iteration,
        # retention for two); otherwise prove it with an explicit
        # eviction-horizon / retention-span comparison.
        feeder, above = caches[-2], caches[-3]
        ok = regimes[-3] == "row" and regimes[-2] == "plane"
        if not ok and geo.n_planes == 1:
            horizon = evict_horizon_rows(above.n_sets, above.assoc)
            if horizon is not None:
                span = 2 * horizon + w_rows
                ok = (
                    span <= rpp
                    and run_occ_max(span, feeder.n_sets) <= feeder.assoc
                )
        if not ok:
            return bail(
                "victim install accounting: feeder retention not "
                "provably longer than the eviction horizon above it",
                tuple(regimes),
            )
    for k in range(kf):
        if regimes[k] == "plane":
            loads[k] = distinct_all
        else:
            loads[k] = int(sum(plane_distinct)) - seam_hits + far_extra
        writebacks[k] = distinct_out
    if victim_last and kf > levels - 1:
        # Every eviction from the level above installs into the victim
        # level; in periodic steady state installs equal fills.
        writebacks[levels - 2] = loads[levels - 2]

    lups = 1
    for s in shape:
        lups *= s
    report = TrafficReport(
        level_names=tuple(c.name for c in caches),
        line_bytes=machine.line_bytes,
        loads=loads,
        writebacks=writebacks,
        accesses=geo.accesses,
        lups=lups,
    )
    return LcAnalysis(
        exact=True, reason="", regimes=tuple(regimes), report=report
    )
