"""Load-generate against the sharded fabric vs one process.

A zipfian-popularity, mixed-endpoint workload (predict / tune / rank)
is replayed against (a) one single-process service and (b) a 3-shard
fabric behind the consistent-hash router, in three phases:

* **warmup** — every distinct payload once (fills the response caches
  and runs the tune jobs fresh through the job ledger),
* **sustained** — N zipf-sampled requests from concurrent clients; the
  measured RPS and client p50/p95/p99 are the headline numbers,
* **burst** — a spike of distinct cold payloads with ``retries=0``;
  shed (HTTP 429) and degraded responses are *reported as rates*, not
  asserted, because whether a burst sheds depends on queue headroom.

A fourth phase (``bench_cost_isolation``) turns cost routing on against
a single-process server: greedy tune sweeps saturate the dedicated
expensive queue while cheap analytic predicts are latency-probed — the
cheap p95 must not collapse (``cheap_isolation_ratio``), and the cheap
lane must never shed.

A fifth phase (``bench_overload``) replays the same tune storm against
a plain one-worker server and one with the overload stack armed (SLO
burn alerts -> brownout ladder + adaptive limits): the plain server's
predicts starve behind the sweeps while the armed one pages, browns
out, and keeps answering predicts from the analytic model.  The
headline is ``overload_goodput_ratio`` (armed / plain predict goodput,
>= 1 required) plus the guard that the ladder actually engaged.

After the fabric run the job ledger must be fully drained (no pending
tune job without a published result) and every shard still healthy —
those are the gate's exact guards.  The RPS comparisons are gated
**relative to a committed baseline from the same box**
(``benchmarks/baselines/BENCH_fabric_load.json``): on a single-core
host the fabric cannot win by parallelism, so the honest check is that
neither topology regressed, not a cross-machine absolute.

Run standalone::

    python benchmarks/bench_fabric_load.py [--quick] [--json PATH] \
        [--artifact PATH] [--timestamp ISO]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.autotune.jobs import JobLedger
from repro.fabric import BackgroundFabric, FabricConfig
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.overload import BROWNOUT_STAGES

SCALE = 1 / 32  # shrink caches so the exact simulation stays fast
ZIPF_EXPONENT = 1.1
SEED = 20260809


def build_workload(quick: bool) -> list[dict]:
    """Distinct request payloads, most-popular first (zipf rank 1..n)."""
    stencils = ("3d7pt", "heat3d") if quick else ("3d7pt", "heat3d",
                                                  "3d27pt", "3d25pt")
    grids = ([16, 16, 32], [16, 32, 32]) if quick else (
        [16, 16, 32], [16, 32, 32], [24, 24, 32], [32, 32, 32])
    work: list[dict] = []
    for s in stencils:
        for g in grids:
            work.append({"path": "/predict",
                         "payload": {"stencil": s, "grid": list(g),
                                     "cache_scale": SCALE}})
    for method in ("radau_iia", "lobatto_iiia"):
        work.append({"path": "/rank",
                     "payload": {"method": method, "grid": [16, 16, 32],
                                 "cache_scale": SCALE, "validate": False}})
    for s in stencils[:2]:
        work.append({"path": "/tune",
                     "payload": {"stencil": s, "grid": [16, 16, 32],
                                 "tuner": "ecm", "cache_scale": SCALE}})
    return work


def zipf_schedule(n_requests: int, n_items: int, seed: int) -> list[int]:
    """Zipf-popularity item indices (rank r drawn ∝ 1/r^s), seeded."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n_items)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc / total)
    schedule = []
    for _ in range(n_requests):
        u = rng.random()
        idx = next(i for i, c in enumerate(cumulative) if u <= c)
        schedule.append(idx)
    return schedule


def _percentiles_ms(samples: list[float]) -> dict:
    ordered = sorted(samples)

    def pct(q: float) -> float:
        idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return round(ordered[idx] * 1e3, 3)

    return {"p50_ms": pct(0.50), "p95_ms": pct(0.95), "p99_ms": pct(0.99)}


def _fire(client: ServiceClient, item: dict) -> tuple[float, str]:
    """One request; returns (latency_s, outcome-tag)."""
    t0 = time.perf_counter()
    try:
        response = client.request("POST", item["path"], item["payload"])
    except ServiceError as err:
        return time.perf_counter() - t0, f"http_{err.status}"
    except Exception:
        return time.perf_counter() - t0, "transport_error"
    tag = response.get("served", "ok")
    if response.get("degraded"):
        tag = "degraded"
    return time.perf_counter() - t0, tag


def drive(host: str, port: int, quick: bool) -> dict:
    """The three load phases against one target address."""
    workload = build_workload(quick)
    n_sustained = 240 if quick else 1200
    concurrency = 8
    client = ServiceClient(host=host, port=port, retries=2)

    # -- warmup: every payload once (tunes run fresh exactly here) ----
    t0 = time.perf_counter()
    for item in workload:
        client.request("POST", item["path"], item["payload"])
    warmup_s = time.perf_counter() - t0

    # -- sustained: zipf-sampled mixed traffic, concurrent clients ----
    schedule = [workload[i] for i in
                zipf_schedule(n_sustained, len(workload), SEED)]
    outcomes: dict[str, int] = {}
    latencies: list[float] = []
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for latency, tag in pool.map(lambda it: _fire(client, it), schedule):
            latencies.append(latency)
            outcomes[tag] = outcomes.get(tag, 0) + 1
    sustained_s = time.perf_counter() - t0

    # -- burst: a spike of distinct cold predicts, no retries ---------
    burst_n = 24 if quick else 48
    burst_items = [
        {"path": "/predict",
         "payload": {"stencil": "3d7pt",
                     "grid": [8 + 2 * (i % 12), 16, 32 + 16 * (i // 12)],
                     "cache_scale": SCALE}}
        for i in range(burst_n)
    ]
    burst_client = ServiceClient(host=host, port=port, retries=0)
    burst_outcomes: dict[str, int] = {}
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=burst_n) as pool:
        for _, tag in pool.map(
            lambda it: _fire(burst_client, it), burst_items
        ):
            burst_outcomes[tag] = burst_outcomes.get(tag, 0) + 1
    burst_s = time.perf_counter() - t0

    shed = burst_outcomes.get("http_429", 0)
    degraded = (outcomes.get("degraded", 0)
                + burst_outcomes.get("degraded", 0))
    errors = sum(
        count for tag, count in {**outcomes, **burst_outcomes}.items()
        if tag in ("http_500", "http_504", "transport_error")
    )
    # Per-tier hit ratios from the unified store ledger.  The fabric
    # router nests its fan-in under "aggregate"; a single process
    # reports the same tier shape at the top level.
    body = client.metrics()
    tiers = body.get("aggregate", body).get("tiers", {})
    tier_hit_rates = {
        name: ledger.get("hit_rate") for name, ledger in tiers.items()
    }
    served_approx = (outcomes.get("approximate", 0)
                     + burst_outcomes.get("approximate", 0))
    return {
        "distinct_payloads": len(workload),
        "warmup_s": round(warmup_s, 4),
        "sustained_requests": n_sustained,
        "sustained_s": round(sustained_s, 4),
        "sustained_rps": round(n_sustained / sustained_s, 1),
        "latency": _percentiles_ms(latencies),
        "outcomes": outcomes,
        "burst_requests": burst_n,
        "burst_s": round(burst_s, 4),
        "burst_outcomes": burst_outcomes,
        "shed": shed,
        "shed_rate": round(shed / burst_n, 4),
        "degraded": degraded,
        "degraded_rate": round(
            degraded / (n_sustained + burst_n), 4
        ),
        "errors": errors,
        "tier_hit_rates": tier_hit_rates,
        "approximate_served": served_approx,
        "approx_serve_rate": round(
            served_approx / (n_sustained + burst_n), 4
        ),
    }


def bench_cost_isolation(quick: bool) -> dict:
    """Cheap-lane latency while the expensive queue is saturated.

    With cost routing on and a dedicated one-worker expensive pool,
    multi-second greedy tune sweeps are parked on their own queue; the
    cheap lane (analytic predicts) must keep serving at its idle
    latency.  Reported as ``cheap_isolation_ratio`` = idle p95 /
    saturated p95 — near 1.0 when isolation holds, collapsing toward 0
    if expensive work blocks the cheap lane.
    """
    n_cheap = 24 if quick else 64
    cfg = ServiceConfig(
        port=0,
        executor="thread",
        workers=4,
        queue_limit=256,
        cost_routing=True,
        cost_threshold_s=1e-3,
        expensive_workers=1,
        expensive_queue_limit=8,
    )
    tune_items = [
        {"stencil": s, "grid": [24, 24, 32], "machine": m,
         "tuner": "greedy", "cache_scale": SCALE}
        for s in ("3d7pt", "heat3d") for m in ("clx", "rome")
    ]

    def cheap_p95(client: ServiceClient, z: int) -> float:
        # A per-phase depth axis keeps every payload distinct from the
        # other phase's, so both phases do fresh (uncached) work.
        samples = []
        for i in range(n_cheap):
            payload = {"stencil": "3d7pt",
                       "grid": [8 + 2 * (i % 12), 16 + 2 * (i // 12), z],
                       "cache_scale": SCALE, "exact": True}
            t0 = time.perf_counter()
            client.request("POST", "/predict", payload)
            samples.append(time.perf_counter() - t0)
        return _percentiles_ms(samples)["p95_ms"]

    with BackgroundServer(cfg) as bg:
        client = ServiceClient(port=bg.port)
        idle_p95_ms = cheap_p95(client, 32)
        with ThreadPoolExecutor(max_workers=len(tune_items)) as pool:
            futures = [
                pool.submit(client.request, "POST", "/tune", item)
                for item in tune_items
            ]
            # Wait until the expensive queue actually has work parked.
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if (bg.service.dispatcher.queue_snapshot()["expensive"]
                        ["pending"] >= 2):
                    break
                time.sleep(0.005)
            saturated_p95_ms = cheap_p95(client, 48)
            expensive_pending = (
                bg.service.dispatcher.queue_snapshot()["expensive"]["pending"]
            )
            for f in futures:
                f.result(timeout=300)
        queues = bg.metrics_snapshot()["queues"]
    return {
        "cheap_requests": n_cheap,
        "expensive_jobs": len(tune_items),
        "expensive_pending_during_probe": expensive_pending,
        "cheap_p95_idle_ms": idle_p95_ms,
        "cheap_p95_saturated_ms": saturated_p95_ms,
        "cheap_isolation_ratio": round(
            idle_p95_ms / saturated_p95_ms, 4
        ) if saturated_p95_ms else None,
        "cheap_shed": queues["cheap"]["shed"],
        "expensive_shed": queues["expensive"]["shed"],
    }


#: SLO for the overload phase: tight windows and a low page threshold
#: so a saturated one-worker pool pages within a second or two, letting
#: the brownout ladder engage inside a benchmark-sized run.
OVERLOAD_SLO = {
    "windows": {"page": [0.5, 1.0], "warn": [1.5, 3.0]},
    "burn": {"page": 1.0, "warn": 0.75},
    "objectives": [
        {"name": "availability", "type": "availability", "target": 0.999},
        {"name": "latency-p95", "type": "latency", "quantile": 0.95,
         "threshold_ms": 50.0},
    ],
}


def _overload_target(resilient: bool) -> ServiceConfig:
    base = dict(
        port=0,
        executor="thread",
        workers=1,
        queue_limit=64,
        request_timeout_s=15.0,
        drain_timeout_s=10.0,
    )
    if resilient:
        base.update(
            slo_enabled=True,
            slo_config=json.dumps(OVERLOAD_SLO),
            adaptive_limits=True,
            adaptive_target_ms=1000.0,
            brownout=True,
            brownout_escalate_s=2.0,
            brownout_recover_s=0.7,
        )
    return ServiceConfig(**base)


def _overload_drive(resilient: bool, quick: bool) -> dict:
    """Predict goodput while greedy tunes saturate a one-worker pool.

    The same storm hits a plain server and one with the overload stack
    armed (SLO burn -> brownout ladder + adaptive limits): the plain
    server's predicts starve behind multi-second tune sweeps, the
    resilient one pages, browns out, and keeps serving predicts from
    the analytic model.  Returns goodput/latency plus what the ladder
    did; ``run()`` reports the ratio.
    """
    window_s = 1.5 if quick else 2.5
    with BackgroundServer(_overload_target(resilient)) as bg:
        stop_load = threading.Event()
        tune_outcomes: dict[str, int] = {}
        tune_lock = threading.Lock()

        def tune_storm(thread_id: int) -> None:
            client = ServiceClient(port=bg.port, retries=0, timeout_s=20.0)
            k = 0
            while not stop_load.is_set():
                k += 1
                # Cycle a 128-combo cross product at near-constant grid
                # volume: distinct payloads (a cached tune costs nothing
                # and would defuse the storm) whose ~100ms sweeps land
                # often enough inside the SLO's page window to keep the
                # burn alert alive.
                idx = (thread_id * 43 + k) % 128
                payload = {
                    "stencil": "3d7pt",
                    "grid": [
                        14 + 2 * (idx % 4),
                        14 + 2 * ((idx // 4) % 4),
                        14 + 2 * ((idx // 16) % 4),
                    ],
                    "machine": "clx" if idx < 64 else "rome",
                    "tuner": "greedy",
                    "cache_scale": SCALE,
                }
                try:
                    client.request("POST", "/tune", payload)
                    tag = "ok"
                except ServiceError as err:
                    tag = f"http_{err.status}"
                    time.sleep(0.05)  # don't hot-spin on sheds
                except Exception:
                    tag = "transport_error"
                with tune_lock:
                    tune_outcomes[tag] = tune_outcomes.get(tag, 0) + 1

        storm = [
            threading.Thread(target=tune_storm, args=(i,)) for i in range(3)
        ]
        for t in storm:
            t.start()

        # Wait for the stack to reach its steady overload state: the
        # plain server just needs queued work; the resilient one must
        # have walked the ladder to the analytic stage.
        engaged = False
        deadline = time.time() + 20.0
        while time.time() < deadline:
            if resilient:
                health = bg.client.healthz()
                if health.get("brownout", {}).get("stage", 0) >= 2:
                    engaged = True
                    break
            else:
                if bg.service.dispatcher.pending >= 2:
                    engaged = True
                    break
            time.sleep(0.05)

        # -- the measured window: predict goodput under the storm -----
        ok_latencies: list[float] = []
        probe_outcomes: dict[str, int] = {}
        probe_lock = threading.Lock()
        stop_at = time.perf_counter() + window_s

        def probe(thread_id: int) -> None:
            client = ServiceClient(port=bg.port, retries=0, timeout_s=3.0)
            k = 0
            while time.perf_counter() < stop_at:
                k += 1
                payload = {
                    "stencil": "heat3d",
                    "grid": [16, 16 + 2 * thread_id, 64 + k],
                    "cache_scale": SCALE,
                }
                t0 = time.perf_counter()
                try:
                    client.request("POST", "/predict", payload)
                except ServiceError as err:
                    tag = f"http_{err.status}"
                except Exception:
                    tag = "starved"  # socket timeout: the pool is busy
                else:
                    tag = "ok"
                    with probe_lock:
                        ok_latencies.append(time.perf_counter() - t0)
                with probe_lock:
                    probe_outcomes[tag] = probe_outcomes.get(tag, 0) + 1

        t0 = time.perf_counter()
        probes = [
            threading.Thread(target=probe, args=(i,)) for i in range(2)
        ]
        for t in probes:
            t.start()
        for t in probes:
            t.join(timeout=window_s + 30.0)
        measured_s = time.perf_counter() - t0

        stop_load.set()
        for t in storm:
            t.join(timeout=60.0)
        healthy = bg.client.healthz()["http_status"] == 200
        max_stage = 0
        if resilient:
            snapshot = bg.client.metrics().get("overload", {})
            max_stage = snapshot.get("brownout", {}).get("stage", 0)
            for entry in snapshot.get("brownout", {}).get(
                "transitions", []
            ):
                if entry["direction"] == "escalate":
                    max_stage = max(
                        max_stage,
                        BROWNOUT_STAGES.index(entry["to"]),
                    )
    errors = sum(
        count for tag, count in {**tune_outcomes, **probe_outcomes}.items()
        if tag in ("http_500", "transport_error")
    )
    goodput = probe_outcomes.get("ok", 0)
    return {
        "resilient": resilient,
        "window_s": round(measured_s, 4),
        "goodput": goodput,
        "goodput_rps": round(goodput / measured_s, 2),
        "predict_latency": (
            _percentiles_ms(ok_latencies) if ok_latencies else None
        ),
        "probe_outcomes": probe_outcomes,
        "tune_outcomes": tune_outcomes,
        "engaged": engaged,
        "max_brownout_stage": max_stage,
        "errors": errors,
        "healthy_after": healthy,
    }


def bench_overload(quick: bool) -> dict:
    """Goodput under sustained overload, with/without the resilience
    stack; the headline is ``goodput_ratio`` (armed / plain)."""
    plain = _overload_drive(resilient=False, quick=quick)
    armed = _overload_drive(resilient=True, quick=quick)
    ratio = (
        round(armed["goodput_rps"] / plain["goodput_rps"], 3)
        if plain["goodput_rps"]
        else None  # the plain server fully starved: strictly better
    )
    return {
        "plain": plain,
        "armed": armed,
        "goodput_ratio": ratio,
        "brownout_engaged": armed["engaged"]
        and armed["max_brownout_stage"] >= 2,
        "errors": plain["errors"] + armed["errors"],
        "healthy_after": plain["healthy_after"] and armed["healthy_after"],
    }


def run(quick: bool = True) -> dict:
    # Single process first (its numbers are the comparison base).
    with BackgroundServer(
        ServiceConfig(port=0, executor="thread", workers=2)
    ) as single:
        single_report = drive(single.config.host, single.port, quick)
        single_healthy = single.client.healthz()["http_status"] == 200

    fabric_dir = Path(tempfile.mkdtemp(prefix="bench-fabric-"))
    config = FabricConfig(
        fabric_dir=str(fabric_dir),
        port=0,
        shards=3,
        probe_interval_s=0.5,
        shard=ServiceConfig(executor="thread", workers=1, steal_interval_s=0.2),
    )
    with BackgroundFabric(config) as fabric:
        fabric_report = drive(config.host, fabric.port, quick)
        # Every enqueued tune job must have a published result: a
        # pending job here would be work the fabric lost track of.
        ledger = JobLedger(fabric_dir / "jobs")
        deadline = time.time() + 15.0
        pending = ledger.pending()
        while pending and time.time() < deadline:
            time.sleep(0.2)
            pending = ledger.pending()
        health = fabric.client.healthz()
        fabric_healthy = (
            health["http_status"] == 200
            and all(info["up"] for info in health["shards"].values())
        )
    cost = bench_cost_isolation(quick)
    overload = bench_overload(quick)
    return {
        "quick": quick,
        "single": single_report,
        "fabric": fabric_report,
        "cost": cost,
        "overload": overload,
        "single_healthy_after": single_healthy,
        "fabric_healthy_after": fabric_healthy,
        "lost_jobs": len(pending),
        "fabric_over_single": round(
            fabric_report["sustained_rps"]
            / single_report["sustained_rps"],
            3,
        ),
    }


def to_artifact(result: dict, timestamp: str) -> dict:
    """Fold one :func:`run` record into the standard artifact schema."""
    from artifact import make_artifact

    return make_artifact(
        name="fabric_load",
        config={
            "quick": result["quick"],
            "cache_scale": SCALE,
            "shards": 3,
            "zipf_exponent": ZIPF_EXPONENT,
        },
        metrics={
            "fabric_rps": result["fabric"]["sustained_rps"],
            "single_rps": result["single"]["sustained_rps"],
            "fabric_over_single": result["fabric_over_single"],
            "fabric_p99_ms": result["fabric"]["latency"]["p99_ms"],
            "shed_rate": result["fabric"]["shed_rate"],
            "degraded_rate": result["fabric"]["degraded_rate"],
            "errors": (result["fabric"]["errors"]
                       + result["single"]["errors"]),
            "lost_jobs": result["lost_jobs"],
            "healthy_after": (result["fabric_healthy_after"]
                              and result["single_healthy_after"]),
            "cheap_isolation_ratio": result["cost"]["cheap_isolation_ratio"],
            "approx_serve_rate": result["fabric"]["approx_serve_rate"],
            "overload_goodput_ratio": result["overload"]["goodput_ratio"],
            "overload_brownout_engaged": (
                result["overload"]["brownout_engaged"]
            ),
            "overload_errors": result["overload"]["errors"],
            "overload_healthy_after": result["overload"]["healthy_after"],
            "detail": {
                "single": result["single"],
                "fabric": result["fabric"],
                "cost": result["cost"],
                "overload": result["overload"],
            },
        },
        timestamp=timestamp,
    )


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
    args = parser.parse_args(argv)
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
    print(
        f"# single {result['single']['sustained_rps']} rps, "
        f"fabric {result['fabric']['sustained_rps']} rps "
        f"({result['fabric_over_single']}x), "
        f"shed_rate={result['fabric']['shed_rate']}, "
        f"cheap_isolation={result['cost']['cheap_isolation_ratio']}, "
        f"overload_goodput_ratio={result['overload']['goodput_ratio']}, "
        f"lost_jobs={result['lost_jobs']}, "
        f"healthy_after={result['fabric_healthy_after']}",
        file=sys.stderr,
    )
    if result["lost_jobs"]:
        print("FAIL: fabric lost tune jobs", file=sys.stderr)
        return 1
    if result["cost"]["cheap_shed"]:
        print("FAIL: cheap lane shed while only the expensive queue "
              "was saturated", file=sys.stderr)
        return 1
    if not (result["fabric_healthy_after"]
            and result["single_healthy_after"]):
        print("FAIL: a target was unhealthy after the load", file=sys.stderr)
        return 1
    if result["fabric"]["errors"] or result["single"]["errors"]:
        print("FAIL: hard errors during the load", file=sys.stderr)
        return 1
    if not result["overload"]["brownout_engaged"]:
        print("FAIL: brownout ladder never engaged under the overload "
              "storm", file=sys.stderr)
        return 1
    if result["overload"]["errors"]:
        print("FAIL: hard errors during the overload phase",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
