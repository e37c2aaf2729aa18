"""Benchmark the tuning/prediction service end to end.

Times the HTTP service (``repro.service``) over a loopback socket:

* cold vs. warm throughput — the first pass over a set of distinct
  ``/tune`` payloads executes on the worker pool; repeat passes are
  served from the in-process response cache and are expected to
  sustain >= 10x the cold request rate (the median over ``ROUNDS``
  cold-then-warm rounds, each over its own never-seen payloads),
* client- and server-side latency percentiles (p50/p95/p99), and
* admission control — a flood of distinct requests against a
  ``queue_limit=1`` server must shed with HTTP 429 while the server
  stays healthy.

Run standalone::

    python benchmarks/bench_service.py [--quick] [--json PATH] \
        [--artifact PATH] [--timestamp ISO]

``--artifact`` additionally writes a standardized
``BENCH_service.json`` record (see ``benchmarks/artifact.py``) that
the perf gate diffs against the committed baseline.

``--smoke`` instead exercises the ``python -m repro serve`` subprocess
path (healthz -> predict -> metrics -> SIGTERM drain) and exits 0 on a
clean drain; CI uses it as the service smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig

SCALE = 1 / 32  # shrink caches so the exact simulation stays fast

STENCILS_FULL = ("3d7pt", "3d27pt", "heat3d", "3d25pt")
STENCILS_QUICK = ("3d7pt", "heat3d")

#: Cold-then-warm rounds behind ``warm_over_cold``.  Each leg lasts
#: tens of milliseconds, so one leg can land in a slow phase of the
#: host; the median over rounds measures the cache instead.
ROUNDS = 5


def _cfg(**kwargs) -> ServiceConfig:
    defaults = dict(port=0, executor="thread", workers=4, queue_limit=256)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def _payloads(quick: bool, round_: int = 0) -> list[dict]:
    # Tuning runs are the expensive request class (tens to hundreds of
    # ms fresh), so the warm/cold ratio measures the cache, not the
    # socket overhead.  Each round widens x by one, so no round's
    # payloads were seen before.
    stencils = STENCILS_QUICK if quick else STENCILS_FULL
    nx = 32 + round_
    grids = ([16, 16, nx],) if quick else ([16, 16, nx], [16, 32, nx])
    return [
        {"stencil": s, "grid": list(g), "cache_scale": SCALE}
        for s in stencils
        for g in grids
    ]


def _percentiles_ms(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def pct(q: float) -> float:
        idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return round(ordered[idx] * 1e3, 3)

    return {"p50_ms": pct(0.50), "p95_ms": pct(0.95), "p99_ms": pct(0.99)}


def bench_throughput(quick: bool) -> dict:
    """Cold (pool) vs. warm (response cache) request rates.

    ``ROUNDS`` rounds run one after another in one server, each a cold
    leg over its own payloads and then ``warm_passes`` warm passes over
    the same payloads.  The rates and their ratio are medians over the
    rounds.
    """
    warm_passes = 10 if quick else 25
    latencies: list[float] = []
    rounds = []
    with BackgroundServer(_cfg()) as bg:
        client = bg.client
        for round_ in range(ROUNDS):
            payloads = _payloads(quick, round_)

            t0 = time.perf_counter()
            for p in payloads:
                client.tune(**p)
            cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            for _ in range(warm_passes):
                for p in payloads:
                    t1 = time.perf_counter()
                    client.tune(**p)
                    latencies.append(time.perf_counter() - t1)
            warm_s = time.perf_counter() - t0

            cold_rps = len(payloads) / cold_s
            warm_rps = warm_passes * len(payloads) / warm_s
            rounds.append({
                "cold_s": round(cold_s, 4),
                "warm_s": round(warm_s, 4),
                "cold_rps": round(cold_rps, 1),
                "warm_rps": round(warm_rps, 1),
                "warm_over_cold": round(warm_rps / cold_rps, 1),
            })

        snap = bg.metrics_snapshot()

    endpoint = snap["endpoints"]["/tune"]
    return {
        "rounds": rounds,
        "distinct_payloads": ROUNDS * len(payloads),
        "warm_requests": ROUNDS * warm_passes * len(payloads),
        "cold_rps": median(r["cold_rps"] for r in rounds),
        "warm_rps": median(r["warm_rps"] for r in rounds),
        "warm_over_cold": median(r["warm_over_cold"] for r in rounds),
        "client_latency": _percentiles_ms(latencies),
        "server_latency": endpoint["latency"],
        "outcomes": endpoint["outcomes"],
        "response_cache_hit_rate": snap["tiers"]["response"]["hit_rate"],
        # One hit ratio per store tier (None = never consulted), read
        # from the unified repro.store ledger the server exposes.
        "tier_hit_rates": {
            name: row["hit_rate"] for name, row in snap["tiers"].items()
        },
        # Which traffic-predictor path served the fresh tune work.  At
        # the benchmark's cache_scale the LC fast path honestly
        # declines (scaled caches break its preconditions), so this
        # records sim_served work — the gate only checks it is present.
        "predictor": snap["predictor"],
    }


def bench_load_shed(quick: bool) -> dict:
    """Flood a queue_limit=1 server; count 429s, verify it survives."""
    n_requests = 16 if quick else 32
    payloads = [
        {"stencil": "3d7pt", "grid": [8 + 2 * (i % 8), 16, 32 + 16 * (i // 8)],
         "cache_scale": SCALE}
        for i in range(n_requests)
    ]
    for attempt in range(3):
        with BackgroundServer(_cfg(workers=1, queue_limit=1)) as bg:
            client = ServiceClient(port=bg.port, retries=0)

            def fire(p):
                try:
                    client.request("POST", "/predict", p)
                    return 200
                except ServiceError as err:
                    return err.status

            with ThreadPoolExecutor(max_workers=n_requests) as pool:
                statuses = list(pool.map(fire, payloads))
            healthy = bg.client.healthz()["http_status"] == 200
            snap = bg.metrics_snapshot()
        shed = statuses.count(429)
        if shed > 0:  # overlap achieved; otherwise retry the flood
            break
    return {
        "requests": n_requests,
        "ok": statuses.count(200),
        "shed": shed,
        "healthy_after": healthy,
        "attempts": attempt + 1,
        "metrics_shed": snap["endpoints"]["/predict"]["outcomes"]["shed"],
    }


def run(quick: bool = True) -> dict:
    throughput = bench_throughput(quick)
    load_shed = bench_load_shed(quick)
    return {
        "quick": quick,
        "throughput": throughput,
        "load_shed": load_shed,
    }


def to_artifact(result: dict, timestamp: str) -> dict:
    """Fold one :func:`run` record into the standard artifact schema."""
    from artifact import make_artifact

    throughput = result["throughput"]
    return make_artifact(
        name="service",
        config={"quick": result["quick"], "cache_scale": SCALE},
        metrics={
            "warm_over_cold": throughput["warm_over_cold"],
            "cold_rps": throughput["cold_rps"],
            "warm_rps": throughput["warm_rps"],
            "warm_response_hit_rate": throughput["response_cache_hit_rate"],
            "shed": result["load_shed"]["shed"],
            "healthy_after": result["load_shed"]["healthy_after"],
            "detail": {
                "throughput": throughput,
                "load_shed": result["load_shed"],
            },
        },
        timestamp=timestamp,
    )


def smoke() -> int:
    """``python -m repro serve`` subprocess: predict, metrics, drain."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--workers", "2", "--executor", "thread"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if not match:
            print(f"no address in banner: {banner!r}", file=sys.stderr)
            return 1
        client = ServiceClient(port=int(match.group(1)))
        assert client.healthz()["status"] == "ok"
        result = client.predict(
            stencil="3d7pt", grid=[16, 16, 32], cache_scale=SCALE
        )
        assert result["result"]["mlups"] > 0
        metrics = client.metrics()
        assert metrics["endpoints"]["/predict"]["requests"] == 1
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0 or "drained" not in out:
            print(f"unclean drain (rc={proc.returncode}):\n{out}",
                  file=sys.stderr)
            return 1
        print("service smoke ok: healthz -> predict -> metrics -> drain")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument(
        "--artifact", default=None,
        help="write a standardized BENCH artifact record here",
    )
    parser.add_argument(
        "--timestamp", default=None,
        help="ISO timestamp recorded in the artifact (default: now)",
    )
    parser.add_argument(
        "--artifact-dir", default=None,
        help="accumulate a timestamped BENCH artifact into this "
        "directory (trajectory input for benchmarks/trend.py)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the serve-subprocess smoke instead of the benchmark",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    result = run(quick=args.quick)
    text = json.dumps(result, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if args.artifact or args.artifact_dir:
        from artifact import utc_now, write_artifact, write_artifact_dir

        stamp = args.timestamp or utc_now()
        record = to_artifact(result, stamp)
        if args.artifact:
            write_artifact(args.artifact, record)
        if args.artifact_dir:
            write_artifact_dir(args.artifact_dir, record)
    ratio = result["throughput"]["warm_over_cold"]
    shed = result["load_shed"]["shed"]
    print(
        f"# warm/cold throughput {ratio:.1f}x, "
        f"{shed} requests shed with 429, "
        f"healthy_after={result['load_shed']['healthy_after']}",
        file=sys.stderr,
    )
    if ratio < 10:
        print("FAIL: warm throughput below 10x cold", file=sys.stderr)
        return 1
    if shed == 0 or not result["load_shed"]["healthy_after"]:
        print("FAIL: load shedding not observed cleanly", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
