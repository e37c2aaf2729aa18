"""Request coalescing and cost-classed admission onto two lanes.

The dispatcher keeps one task per distinct in-flight request key: a
second identical request *joins* the running task instead of
re-executing it (coalescing).  Every fresh job runs in the lane of its
cost class (:func:`repro.service.cost.classify`):

* ``cheap`` jobs (predictions, ECM tunes, unvalidated rankings, small
  sweeps) run in the server process, on ``workers`` threads;
* ``expensive`` jobs run on a pool of ``workers`` slots, created on
  first use: processes (``executor="process"``, the default) or
  threads.  A process pool starts its workers with the ``spawn``
  method, never by forking the server, whose lane threads may hold a
  lock in the middle of a job; the server's fault plan reaches them
  through the pool's initializer.  A pool that breaks (a worker died)
  is dropped, so the next job of its class starts a fresh one.

Admission control is a bounded count of fresh in-flight jobs *per
class*: each class admits up to ``queue_limit`` jobs of its own, so a
burst of multi-second tune sweeps saturates its own lane instead of
shedding microsecond predictions.  Beyond it the dispatcher sheds (the
server turns that into HTTP 429).

Two overload-control layers ride on top (see
:mod:`repro.service.overload`):

* A fresh job carrying a propagated deadline is wrapped in a *sweep
  guard*: if the deadline expired while the job sat in its lane's
  queue, the worker raises :class:`DeadlineSwept` at dequeue instead
  of executing for a caller that already gave up.  Per-class
  ``admitted``/``executed``/``swept`` counters keep the invariant
  ``admitted == executed + swept`` once the queue drains.
* With ``config.adaptive_limits`` each class's admission bound becomes
  ``min(queue_limit, AIMD limit)``; finished fresh jobs feed their
  total latency back into the limiter and the per-class latency
  window (which deadline admission consults for the observed p95).
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Awaitable, Callable

from repro import faults
from repro.service.config import ServiceConfig
from repro.service.cost import JOB_CLASSES
from repro.service.metrics import LatencyReservoir
from repro.service.overload import AdaptiveLimiter

__all__ = ["Overloaded", "DeadlineSwept", "CoalescingDispatcher"]


class Overloaded(RuntimeError):
    """Admission control tripped: too many in-flight jobs."""


class DeadlineSwept(RuntimeError):
    """The job's deadline expired while it waited in the queue."""


def _deadline_guarded(deadline_epoch: float, fn, payload: dict) -> dict:
    """Top-level (picklable) sweep guard run by the lane's worker:
    a job whose caller's deadline already passed is dropped at dequeue
    instead of executed."""
    now = time.time()
    if now >= deadline_epoch:
        raise DeadlineSwept(
            f"deadline expired {now - deadline_epoch:.3f}s before dequeue"
        )
    return fn(payload)


def _pool_init(fault_specs: tuple) -> None:
    """Arm the server's fault plan in a pool worker, with fresh
    per-process trigger state (a spawned worker inherits none)."""
    faults.install(faults.FaultPlan(fault_specs) if fault_specs else None)


class CoalescingDispatcher:
    """Deduplicate identical in-flight requests; bound fresh admissions.

    All methods must be called from the event-loop thread (the server's
    request handlers); the lane threads and pool workers only ever see
    the pure job functions.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # One executor per class, each created on first use.
        self._lanes: dict[str, Executor] = {}
        self._inflight: dict[str, asyncio.Task] = {}
        # Fresh jobs admitted and not yet finished, per queue class.
        self._class_pending = {cls: 0 for cls in JOB_CLASSES}
        self._class_shed = {cls: 0 for cls in JOB_CLASSES}
        # Deadline bookkeeping: admitted == executed + swept once the
        # queue drains (the property test drills this invariant).
        self._class_admitted = {cls: 0 for cls in JOB_CLASSES}
        self._class_executed = {cls: 0 for cls in JOB_CLASSES}
        self._class_swept = {cls: 0 for cls in JOB_CLASSES}
        # Observed total latency per class (deadline admission's p95
        # source) — always on, a deque append per finished fresh job.
        self._trackers = {cls: LatencyReservoir(64) for cls in JOB_CLASSES}
        self._limiters: dict[str, AdaptiveLimiter] | None = None
        if config.adaptive_limits:
            self._limiters = {
                cls: AdaptiveLimiter(
                    ceiling=config.queue_limit,
                    target_s=config.class_adaptive_target_s(cls),
                )
                for cls in JOB_CLASSES
            }

    # -- gauges ---------------------------------------------------------
    @property
    def pending(self) -> int:
        """Fresh jobs admitted and not yet finished (running + queued)."""
        return sum(self._class_pending.values())

    @property
    def busy(self) -> int:
        """Lane slots currently occupied, summed over both lanes (each
        has ``workers`` slots)."""
        workers = self.config.workers
        return sum(min(n, workers) for n in self._class_pending.values())

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but waiting for a free slot in their lane."""
        return self.pending - self.busy

    @property
    def utilization(self) -> float:
        """Busy fraction of both lanes' slots, in [0, 1]."""
        return self.busy / (len(JOB_CLASSES) * self.config.workers)

    def queue_snapshot(self) -> dict:
        """Per-class queue gauges for ``/metrics``."""
        workers = self.config.workers
        snapshot = {}
        for cls in JOB_CLASSES:
            pending = self._class_pending[cls]
            snapshot[cls] = {
                "pending": pending,
                "depth": max(0, pending - workers),
                "limit": self.config.queue_limit,
                "shed": self._class_shed[cls],
                "deadline_s": self.config.request_timeout_s,
                "workers": workers,
            }
            # The adaptive gauge appears only when the limiter is on,
            # keeping the default /metrics document byte-identical.
            if self._limiters is not None:
                snapshot[cls]["adaptive_limit"] = self._limiters[cls].limit
        return snapshot

    def overload_snapshot(self) -> dict:
        """Per-class overload-control gauges (deadline sweep counters,
        observed p95, adaptive limiter state) for the ``/metrics``
        ``overload`` section."""
        classes: dict[str, dict] = {}
        for cls in JOB_CLASSES:
            p95 = self._trackers[cls].p95()
            row = {
                "admitted": self._class_admitted[cls],
                "executed": self._class_executed[cls],
                "swept": self._class_swept[cls],
                "observed_p95_ms": (
                    round(p95 * 1e3, 3) if p95 is not None else None
                ),
            }
            if self._limiters is not None:
                row["adaptive"] = self._limiters[cls].snapshot()
            classes[cls] = row
        return {"classes": classes}

    def class_limit(self, job_class: str) -> int:
        """The admission bound in force: ``queue_limit``, further
        tightened by the AIMD limiter when adaptive limits are on."""
        limit = self.config.queue_limit
        if self._limiters is not None:
            limit = min(limit, self._limiters[job_class].limit)
        return limit

    def observed_p95_s(self, job_class: str) -> float | None:
        """Windowed p95 total latency of one class (``None`` while the
        sample is too small to judge a deadline by)."""
        return self._trackers[job_class].p95()

    # -- lifecycle ------------------------------------------------------
    def _lane(self, job_class: str) -> Executor:
        """The executor of one class, created on first use."""
        lane = self._lanes.get(job_class)
        if lane is not None:
            return lane
        workers = self.config.workers
        if job_class == "expensive" and self.config.executor == "process":
            lane = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_pool_init,
                initargs=(faults.active_specs(),),
            )
        else:
            lane = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-{job_class}"
            )
        self._lanes[job_class] = lane
        return lane

    async def drain(self, timeout: float) -> bool:
        """Wait for all in-flight jobs; ``True`` if everything finished."""
        tasks = list(self._inflight.values())
        if not tasks:
            return True
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        return not pending

    def _release_lanes(self) -> list[Executor]:
        lanes = list(self._lanes.values())
        self._lanes.clear()
        return lanes

    def shutdown(self) -> None:
        """Tear the lanes down without waiting for their workers
        (cancels jobs still queued inside them)."""
        for lane in self._release_lanes():
            lane.shutdown(wait=False, cancel_futures=True)

    async def join(self, timeout_s: float) -> None:
        """Tear the lanes down and wait, off the event loop, up to
        ``timeout_s`` for their workers to exit.

        A process that returns while its pool worker has not yet been
        told to exit can hang in interpreter shutdown and leave that
        worker orphaned; joining here rules that out.
        """
        joins = [
            asyncio.ensure_future(
                asyncio.to_thread(lane.shutdown, cancel_futures=True)
            )
            for lane in self._release_lanes()
        ]
        if joins:
            await asyncio.wait(joins, timeout=timeout_s)

    # -- dispatch -------------------------------------------------------
    def dispatch(
        self,
        key: str,
        fn: Callable[[dict], dict],
        payload: dict,
        on_result: Callable[[dict], None] | None = None,
        job_class: str = "cheap",
        deadline_epoch: float | None = None,
    ) -> tuple[str, Awaitable[dict]]:
        """Route one request; returns ``("coalesced"|"fresh", awaitable)``.

        Raises :class:`Overloaded` when a fresh job would exceed its
        class's admission bound.  ``on_result`` runs on the loop with a
        successful result *before* the key leaves the in-flight map —
        populate response caches there, so a request can never slip
        between job completion and cache fill and re-execute.  Awaiters
        must wrap the returned task in ``asyncio.shield`` so a
        per-request timeout does not cancel the shared job other
        waiters ride on.

        A ``deadline_epoch`` (absolute ``time.time()`` seconds) arms
        the sweep guard: if it passes while the job waits for a lane
        slot, the job raises :class:`DeadlineSwept` at dequeue instead
        of executing.  Coalesced waiters share the fresh dispatcher's
        deadline fate — a later arrival with more budget re-requests
        after the swept key is released.
        """
        if job_class not in self._class_pending:
            raise ValueError(f"unknown job class {job_class!r}")
        task = self._inflight.get(key)
        if task is not None:
            return "coalesced", task
        limit = self.class_limit(job_class)
        if self._class_pending[job_class] >= limit:
            self._class_shed[job_class] += 1
            raise Overloaded(
                f"{self._class_pending[job_class]} jobs in flight "
                f"(limit {limit})"
            )
        self._class_pending[job_class] += 1
        self._class_admitted[job_class] += 1
        if deadline_epoch is not None:
            fn = functools.partial(_deadline_guarded, deadline_epoch, fn)
        task = asyncio.get_running_loop().create_task(
            self._run(key, fn, payload, on_result, job_class)
        )
        # Consume exceptions even if every waiter timed out first.
        task.add_done_callback(lambda t: t.cancelled() or t.exception())
        self._inflight[key] = task
        return "fresh", task

    async def _run(
        self,
        key: str,
        fn: Callable[[dict], dict],
        payload: dict,
        on_result: Callable[[dict], None] | None,
        job_class: str,
    ) -> dict:
        swept = False
        t0 = time.perf_counter()
        try:
            loop = asyncio.get_running_loop()
            lane = self._lane(job_class)
            try:
                result = await loop.run_in_executor(lane, fn, payload)
            except DeadlineSwept:
                swept = True
                raise
            except BrokenExecutor:
                # A broken pool refuses every later submit: drop it (if
                # no other job has already), so the next job of this
                # class starts a fresh one.  This job still fails.
                if self._lanes.get(job_class) is lane:
                    del self._lanes[job_class]
                    lane.shutdown(wait=False, cancel_futures=True)
                raise
            if on_result is not None:
                on_result(result)
            return result
        finally:
            self._class_pending[job_class] -= 1
            self._inflight.pop(key, None)
            if swept:
                self._class_swept[job_class] += 1
            else:
                # Executed = the worker actually ran it (success or
                # job failure alike — both consumed a lane slot).
                self._class_executed[job_class] += 1
                elapsed = time.perf_counter() - t0
                self._trackers[job_class].record(elapsed)
                if self._limiters is not None:
                    self._limiters[job_class].record(elapsed)
