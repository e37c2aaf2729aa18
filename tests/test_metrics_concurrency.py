"""ServiceMetrics under concurrent writers: the bookkeeping invariants
must hold at every snapshot, not just at rest.

The server records from its loop thread while tests, the background
helper and the fabric prober read concurrently; these tests hammer the
same object from many threads and assert the sums that the SLO engine
and the perf gate rely on (outcome counts add up to totals, histogram
count matches the request count, tier ledgers are monotone).
"""

import threading

from repro.service.metrics import ServiceMetrics

N_THREADS = 8
PER_THREAD = 500
OUTCOME_CYCLE = ("cache", "fresh", "shed", "failed")


def hammer_requests(metrics, barrier, endpoint):
    barrier.wait()
    for i in range(PER_THREAD):
        outcome = OUTCOME_CYCLE[i % len(OUTCOME_CYCLE)]
        metrics.record_request(endpoint, outcome, seconds=0.001 * (i % 7))


def test_outcome_sums_match_totals_under_concurrency():
    metrics = ServiceMetrics(reservoir=64)
    barrier = threading.Barrier(N_THREADS + 1)
    threads = [
        threading.Thread(
            target=hammer_requests,
            args=(metrics, barrier, f"/endpoint-{t % 3}"),
        )
        for t in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()

    # Read snapshots while the writers run: every snapshot must be
    # internally consistent even mid-flight (the lock covers both the
    # counter bumps and the reads).
    barrier.wait()
    for _ in range(50):
        snap = metrics.snapshot(histograms=True)
        for row in snap["endpoints"].values():
            assert sum(row["outcomes"].values()) == row["requests"]
            assert row["latency_histogram"]["count"] == row["requests"]
    for thread in threads:
        thread.join()

    snap = metrics.snapshot(histograms=True)
    total = sum(row["requests"] for row in snap["endpoints"].values())
    assert total == N_THREADS * PER_THREAD
    for row in snap["endpoints"].values():
        assert sum(row["outcomes"].values()) == row["requests"]
        hist = row["latency_histogram"]
        assert hist["count"] == row["requests"]
        assert sum(hist["buckets"].values()) == hist["count"]
    # Per-outcome totals across endpoints: the cycle distributes each
    # outcome exactly PER_THREAD/4 times per thread.
    per_outcome = {}
    for row in snap["endpoints"].values():
        for outcome, n in row["outcomes"].items():
            per_outcome[outcome] = per_outcome.get(outcome, 0) + n
    expected = N_THREADS * PER_THREAD // len(OUTCOME_CYCLE)
    for outcome in OUTCOME_CYCLE:
        assert per_outcome[outcome] == expected


def test_tier_totals_stable_under_concurrent_writers():
    metrics = ServiceMetrics()
    barrier = threading.Barrier(N_THREADS)
    stop = threading.Event()
    errors = []

    def write():
        barrier.wait()
        for _ in range(PER_THREAD):
            metrics.record_tier("response", hits=2, misses=1)
            metrics.record_tier("database", puts=1)

    def read():
        last = {}
        while not stop.is_set():
            totals = metrics.tier_totals()
            for name, row in totals.items():
                prev = last.get(name, {"hits": 0, "misses": 0})
                # Cumulative ledgers must be monotone — the SLO tier
                # sampler turns them into deltas and clamps at zero,
                # so a backwards step would silently drop bad events.
                if (
                    row["hits"] < prev["hits"]
                    or row["misses"] < prev["misses"]
                ):
                    errors.append((name, prev, row))
            last = {k: dict(v) for k, v in totals.items()}

    writers = [
        threading.Thread(target=write) for _ in range(N_THREADS - 1)
    ]
    reader = threading.Thread(target=read)
    reader.start()
    for thread in writers:
        thread.start()
    barrier.wait()
    for thread in writers:
        thread.join()
    stop.set()
    reader.join()

    assert errors == []
    totals = metrics.tier_totals()
    assert totals["response"]["hits"] == (N_THREADS - 1) * PER_THREAD * 2
    assert totals["response"]["misses"] == (N_THREADS - 1) * PER_THREAD


def test_predictor_and_stage_counters_under_concurrency():
    metrics = ServiceMetrics()
    barrier = threading.Barrier(N_THREADS)

    def work():
        barrier.wait()
        for _ in range(PER_THREAD):
            metrics.record_predictor(lc_served=1)
            metrics.record_stages({"execute": 0.001, "cache": 0.0005})

    threads = [threading.Thread(target=work) for _ in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    snap = metrics.snapshot()
    expected = N_THREADS * PER_THREAD
    assert snap["predictor"]["lc_served"] == expected
    assert snap["stages"]["execute"]["count"] == expected
    assert snap["stages"]["execute"]["total_s"] > 0
