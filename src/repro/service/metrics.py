"""Service observability: request counters, latency percentiles, tiers.

Every POST request resolves to exactly **one** outcome —

``cache``        served by the in-process LRU response cache (tier 1)
``coalesced``    joined an identical in-flight request's future
``database``     served by the warm Offsite tuning database (tier 3)
``fresh``        executed in its cost class's lane
``degraded``     breaker open — served by the analytic fallback
``shed``         refused by admission control or an open breaker
``failed``       bad payload, job error or timeout

so the per-endpoint outcome counts always sum to the request total;
the soak test asserts that invariant through ``/metrics``.

Tier ledgers come from the unified ``repro.store`` substrate: a tier
either *reports itself* (an attached :class:`~repro.store.tier.Tier`
whose own ledger is snapshotted) or is *recorded into* (counts arriving
with results, e.g. the traffic memo deltas a tuner job reports with
its result).  Both shapes merge into one
``{"hits", "misses", "puts", "evictions", "hit_rate"}`` row per tier,
and ``hit_rate`` is ``None`` — never 0.0 — for an untouched tier.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.telemetry.histogram import LatencyHistogram

__all__ = [
    "OUTCOMES",
    "TIER_NAMES",
    "LatencyReservoir",
    "EndpointStats",
    "ServiceMetrics",
]

OUTCOMES = (
    "cache", "coalesced", "database", "fresh", "degraded", "shed", "failed",
)

#: Tiers pre-registered on every server so ``/metrics`` always exposes
#: the full ledger table (all-zero rows for idle tiers) and the fabric
#: fan-in can sum shard snapshots without schema drift.  The traffic
#: memo has one ledger per serving tier: ``traffic-memory`` and
#: ``traffic-disk``.
TIER_NAMES = (
    "response",
    "traffic-memory",
    "traffic-disk",
    "database",
)

_LEDGER_FIELDS = ("hits", "misses", "puts", "evictions")


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of sorted samples, by nearest rank."""
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


class LatencyReservoir:
    """Sliding window of latencies (seconds), read by nearest rank.

    The one latency window: an endpoint's ``/metrics`` percentiles
    (2048 samples), and per queue class the p95 that deadline admission
    and the adaptive limiter read (64 and 32 samples).  Reads sort the
    window, O(capacity).
    """

    def __init__(self, capacity: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=capacity)
        self.count = 0

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        self._samples.append(seconds)
        self.count += 1

    def clear(self) -> None:
        """Start the window over (``count`` keeps its total)."""
        self._samples.clear()

    def percentiles(self) -> dict[str, float | None]:
        """p50/p95/p99 of the retained window, in milliseconds."""
        if not self._samples:
            return {"p50_ms": None, "p95_ms": None, "p99_ms": None}
        ordered = sorted(self._samples)
        return {
            "p50_ms": _nearest_rank(ordered, 0.50) * 1e3,
            "p95_ms": _nearest_rank(ordered, 0.95) * 1e3,
            "p99_ms": _nearest_rank(ordered, 0.99) * 1e3,
        }

    def p95(self) -> float | None:
        """Windowed p95 in seconds; ``None`` until enough samples exist
        (admission must not guess from one observation)."""
        if len(self._samples) < 4:
            return None
        return _nearest_rank(sorted(self._samples), 0.95)


class EndpointStats:
    """Outcome counters + latency reservoir + histogram of one endpoint.

    The reservoir keeps raw samples (exact in-process percentiles);
    the histogram keeps the same stream in the fixed mergeable bucket
    layout so shard snapshots can be summed by the fabric router.  Both
    record on every request (a few ns each); the histogram appears in
    snapshots only when asked for, keeping the default JSON unchanged.
    """

    def __init__(self, reservoir: int = 2048) -> None:
        self.total = 0
        self.outcomes = {name: 0 for name in OUTCOMES}
        self.latency = LatencyReservoir(reservoir)
        self.histogram = LatencyHistogram()

    def record(self, outcome: str, seconds: float) -> None:
        if outcome not in self.outcomes:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.total += 1
        self.outcomes[outcome] += 1
        self.latency.record(seconds)
        self.histogram.record(seconds)

    def snapshot(self, histograms: bool = False) -> dict:
        data = {
            "requests": self.total,
            "outcomes": dict(self.outcomes),
            "latency": self.latency.percentiles(),
        }
        if histograms:
            data["latency_histogram"] = self.histogram.to_dict()
        return data


class ServiceMetrics:
    """All counters of one server, snapshotted by ``/metrics``.

    Thread-safe: the asyncio server records from its loop thread, but
    tests and the background-server helper may read concurrently.
    """

    def __init__(self, reservoir: int = 2048) -> None:
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self.endpoints: dict[str, EndpointStats] = {}
        # Recorded tier counts (arriving with results); attached tiers
        # report their own ledgers and are merged in at snapshot time.
        self.tiers = {
            name: {field: 0 for field in _LEDGER_FIELDS}
            for name in TIER_NAMES
        }
        self._attached: dict[str, object] = {}
        # Predictor-path ledger: which path produced the traffic
        # reports behind fresh tune work (layer-condition fast path vs.
        # cache replay; mismatches are LC cross-check divergences).
        self.predictor = {
            "lc_served": 0,
            "sim_served": 0,
            "lc_validation_mismatch": 0,
        }
        # Per-stage wall-time attribution: request lifecycle stages
        # (normalize/cache/execute) on every request, plus obs span
        # aggregates folded in when a request ran traced.
        self.stages: dict[str, dict] = {}

    def record_request(
        self, endpoint: str, outcome: str, seconds: float
    ) -> None:
        """Count one finished request."""
        with self._lock:
            stats = self.endpoints.get(endpoint)
            if stats is None:
                stats = self.endpoints[endpoint] = EndpointStats(
                    self._reservoir
                )
            stats.record(outcome, seconds)

    def record_tier(
        self,
        tier: str,
        hits: int = 0,
        misses: int = 0,
        puts: int = 0,
        evictions: int = 0,
    ) -> None:
        """Add to one tier's recorded ledger (unknown names register)."""
        with self._lock:
            ledger = self.tiers.setdefault(
                tier, {field: 0 for field in _LEDGER_FIELDS}
            )
            ledger["hits"] += hits
            ledger["misses"] += misses
            ledger["puts"] += puts
            ledger["evictions"] += evictions

    def attach_tier(self, name: str, tier) -> None:
        """Register a live :class:`~repro.store.tier.Tier`.

        Its own ledger is read at every snapshot and summed with any
        recorded counts under the same name, so a tier the server
        consults directly (response LRU, database adapter)
        needs no per-request ``record_tier`` bookkeeping.
        """
        with self._lock:
            self._attached[name] = tier
            self.tiers.setdefault(
                name, {field: 0 for field in _LEDGER_FIELDS}
            )

    def record_predictor(
        self,
        lc_served: int = 0,
        sim_served: int = 0,
        lc_validation_mismatch: int = 0,
    ) -> None:
        """Add one job's predictor-path serve counts."""
        if not (lc_served or sim_served or lc_validation_mismatch):
            return
        with self._lock:
            self.predictor["lc_served"] += lc_served
            self.predictor["sim_served"] += sim_served
            self.predictor["lc_validation_mismatch"] += lc_validation_mismatch

    def record_stages(self, stage_seconds: dict[str, float]) -> None:
        """Fold one request's per-stage wall times in (single lock)."""
        if not stage_seconds:
            return
        with self._lock:
            for name, seconds in stage_seconds.items():
                entry = self.stages.get(name)
                if entry is None:
                    entry = self.stages[name] = {"count": 0, "total_s": 0.0}
                entry["count"] += 1
                entry["total_s"] += seconds

    @staticmethod
    def _hit_rate(ledger: dict) -> float | None:
        total = ledger["hits"] + ledger["misses"]
        return ledger["hits"] / total if total else None

    def _tier_rows(self) -> dict:
        """Recorded + attached ledgers merged into one table (locked)."""
        rows = {}
        for name, ledger in self.tiers.items():
            row = {field: ledger[field] for field in _LEDGER_FIELDS}
            tier = self._attached.get(name)
            if tier is not None:
                stats = tier.stats()
                for field in _LEDGER_FIELDS:
                    row[field] += int(stats.get(field, 0))
                row["size"] = stats.get("size", 0)
            row["hit_rate"] = self._hit_rate(row)
            rows[name] = row
        return rows

    def tier_totals(self) -> dict[str, dict[str, int]]:
        """Cumulative ``{tier: {"hits", "misses"}}`` (recorded +
        attached, locked) — the SLO engine's hit-rate feed."""
        with self._lock:
            return {
                name: {"hits": row["hits"], "misses": row["misses"]}
                for name, row in self._tier_rows().items()
            }

    def snapshot(self, histograms: bool = False, **extra: object) -> dict:
        """JSON-ready state; ``extra`` merges server-owned gauges in
        (queue depth, pool utilization, uptime, ...).  ``histograms``
        adds each endpoint's mergeable bucket rows — requested by the
        fabric fan-in and ``?histograms=1``, off by default so the
        plain ``/metrics`` document is unchanged."""
        with self._lock:
            data = {
                "endpoints": {
                    path: stats.snapshot(histograms=histograms)
                    for path, stats in sorted(self.endpoints.items())
                },
                "tiers": self._tier_rows(),
                "predictor": {
                    **self.predictor,
                    "lc_fraction": self._hit_rate(
                        {
                            "hits": self.predictor["lc_served"],
                            "misses": self.predictor["sim_served"],
                        }
                    ),
                },
                "stages": {
                    name: {
                        "count": entry["count"],
                        "total_s": entry["total_s"],
                        "mean_ms": entry["total_s"] / entry["count"] * 1e3,
                    }
                    for name, entry in sorted(self.stages.items())
                },
            }
        data.update(extra)
        return data
