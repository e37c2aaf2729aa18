"""Live-server drills of cost-classed admission.

These hit a real :class:`BackgroundServer` over HTTP, mirroring the
soak-test harness: cheap jobs run in the server process, expensive ones
on the pool, and a saturated expensive lane sheds without touching the
cheap one.
"""

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

import repro.service.jobs as jobs
from repro import faults
from repro.cachesim.dispatch import predictor_counters
from repro.service.background import BackgroundServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig

SCALE = 1 / 32  # shrink caches so exact simulation stays fast

BASE = {"stencil": "3d7pt", "grid": [16, 16, 32], "cache_scale": SCALE}


def _cfg(**kwargs) -> ServiceConfig:
    defaults = dict(
        port=0,
        executor="thread",
        workers=4,
        queue_limit=256,
        request_timeout_s=120.0,
        drain_timeout_s=30.0,
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


#: Priced at about 0.4 s by the classifier: the expensive class.
EXPENSIVE_TUNE = {"stencil": "3d7pt", "grid": [24, 24, 48],
                  "tuner": "exhaustive", "cache_scale": SCALE}


class TestCostRouting:
    def test_queue_schema_in_metrics(self):
        cfg = _cfg(queue_limit=2, request_timeout_s=300.0, workers=1)
        with BackgroundServer(cfg) as bg:
            body = bg.client.metrics()
        queues = body["queues"]
        assert set(queues) == {"cheap", "expensive"}
        for row in queues.values():
            assert {"pending", "depth", "limit", "shed", "deadline_s",
                    "workers"} <= set(row)
            assert row["limit"] == 2
            assert row["deadline_s"] == 300.0
            assert row["workers"] == 1

    def test_default_config_keeps_legacy_limits(self):
        with BackgroundServer(ServiceConfig(port=0)) as bg:
            snap = bg.metrics_snapshot()
        for row in snap["queues"].values():
            assert row["limit"] == 64
            assert row["deadline_s"] == 120.0
            assert row["workers"] == 2
        assert snap["pool"] == {"workers": 2, "executor": "process",
                                "busy": 0, "utilization": 0.0}

    def test_cheap_jobs_run_in_process_and_never_start_the_pool(self):
        with BackgroundServer(ServiceConfig(port=0)) as bg:
            answers = [
                bg.client.predict(**BASE),
                bg.client.tune(**BASE, tuner="ecm"),
                bg.client.rank(method="radau_iia", grid=[16, 16, 32],
                               cache_scale=SCALE, validate=False),
            ]
            lanes = dict(bg.service.dispatcher._lanes)
            classes = bg.service.dispatcher.overload_snapshot()["classes"]
        assert [a["served"] for a in answers] == ["fresh"] * 3
        assert set(lanes) == {"cheap"}
        assert isinstance(lanes["cheap"], ThreadPoolExecutor)
        assert [classes[c]["admitted"] for c in ("cheap", "expensive")] == [
            3, 0
        ]

    def test_expensive_tune_runs_on_the_process_pool(self):
        with BackgroundServer(ServiceConfig(port=0)) as bg:
            tune = bg.client.tune(**EXPENSIVE_TUNE)
            predict = bg.client.predict(**BASE)
            lanes = dict(bg.service.dispatcher._lanes)
            classes = bg.service.dispatcher.overload_snapshot()["classes"]
            rows = bg.service.flight.tail(n=2)
        assert tune["served"] == predict["served"] == "fresh"
        assert tune["result"]["best_mlups"] > 0
        assert isinstance(lanes["expensive"], ProcessPoolExecutor)
        assert {row["endpoint"]: row["queue_class"] for row in rows} == {
            "/tune": "expensive", "/predict": "cheap",
        }
        for row in classes.values():
            assert row["admitted"] == 1
            assert row["admitted"] == row["executed"] + row["swept"]

    def test_broken_pool_is_replaced_by_the_next_expensive_job(self):
        # The pool's only worker dies inside the first expensive tune,
        # which breaks the pool.  That job answers 500 and strikes the
        # breaker; the next expensive job starts a fresh pool (whose
        # initializer arms no fault) instead of meeting the broken one.
        with BackgroundServer(ServiceConfig(port=0, workers=1)) as bg:
            raw = ServiceClient(port=bg.port, retries=0)
            # The plan reaches the pool through its initializer, armed
            # when the first expensive job creates it.
            with faults.injected("service.tune:every=1:mode=exit"):
                with pytest.raises(ServiceError) as err:
                    raw.request("POST", "/tune", EXPENSIVE_TUNE)
                broken = bg.service.dispatcher._lanes.get("expensive")
            breaker = bg.service.breakers["/tune"].snapshot()
            env = raw.request("POST", "/tune", EXPENSIVE_TUNE)
            lane = bg.service.dispatcher._lanes["expensive"]
        assert err.value.status == 500
        assert err.value.body["error"].startswith("BrokenProcessPool")
        assert breaker["consecutive_failures"] == 1
        assert broken is None  # dropped by the job that hit the break
        assert isinstance(lane, ProcessPoolExecutor)
        assert env["served"] == "fresh" and env["result"]["best_mlups"] > 0

    def test_pool_start_does_not_inherit_a_held_lock(self):
        # Another thread of the server process holds a module lock
        # that the tune takes while the first expensive job starts the
        # pool.  A worker forked from the server would inherit that
        # lock held, with no thread to release it, and hang.
        lock = predictor_counters()._lock
        held, release = threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(timeout=10)
        cfg = ServiceConfig(port=0, workers=1, request_timeout_s=20.0,
                            drain_timeout_s=2.0)
        try:
            with BackgroundServer(cfg) as bg:
                raw = ServiceClient(port=bg.port, retries=0, timeout_s=60.0)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    tune = pool.submit(
                        raw.request, "POST", "/tune", EXPENSIVE_TUNE
                    )
                    deadline = time.monotonic() + 15
                    while bg.service.dispatcher.pending < 1:
                        if time.monotonic() > deadline:
                            pytest.fail("tune never reached the pool")
                        time.sleep(0.005)
                    time.sleep(0.5)  # the pool starts under the lock
                    release.set()
                    env = tune.result(timeout=60)
        finally:
            release.set()
            holder.join()
        assert env["served"] == "fresh"

    def test_expensive_saturation_spares_cheap(self, monkeypatch):
        release = threading.Event()
        real_tune = jobs.tune_job

        def gated_tune(payload):
            release.wait(timeout=30)
            return real_tune(payload)

        monkeypatch.setitem(
            jobs.JOBS, "/tune", (jobs.normalize_tune, gated_tune)
        )
        cfg = _cfg(queue_limit=1, workers=1)
        tunes = [dict(EXPENSIVE_TUNE, machine=machine)
                 for machine in ("clx", "rome")]
        try:
            with BackgroundServer(cfg) as bg:
                raw = ServiceClient(port=bg.port, retries=0)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    first = pool.submit(
                        raw.request, "POST", "/tune", tunes[0]
                    )
                    # Wait until the first tune is parked in the
                    # expensive lane, so the shed below is
                    # deterministic.
                    deadline = time.monotonic() + 15
                    while (
                        bg.service.dispatcher.queue_snapshot()["expensive"][
                            "pending"
                        ] < 1
                    ):
                        if time.monotonic() > deadline:
                            pytest.fail("tune never reached the queue")
                        time.sleep(0.005)
                    # A second expensive job sheds at its own limit…
                    with pytest.raises(ServiceError) as err:
                        raw.request("POST", "/tune", tunes[1])
                    assert err.value.status == 429
                    # …while the cheap class still serves immediately.
                    env = raw.request(
                        "POST", "/predict",
                        {"stencil": "3d7pt", "grid": [8, 16, 32],
                         "cache_scale": SCALE},
                    )
                    assert env["served"] == "fresh"
                    release.set()
                    first.result(timeout=60)
                snap = bg.metrics_snapshot()
        finally:
            release.set()

        queues = snap["queues"]
        assert queues["expensive"]["shed"] == 1
        assert queues["cheap"]["shed"] == 0
        outcomes = snap["endpoints"]["/tune"]["outcomes"]
        assert outcomes["shed"] == 1
