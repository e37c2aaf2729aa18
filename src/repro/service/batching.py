"""Request coalescing + batching onto a worker pool, with admission.

The dispatcher owns the executor (thread or process pool — job bodies
in :mod:`repro.service.jobs` are picklable top-level functions so both
work) and keeps one task per distinct in-flight request key: a second
identical request *joins* the running task instead of re-executing it
(coalescing).  Heterogeneous requests batch naturally — each fresh job
is one pool item, and the pool's ``workers`` slots drain the queue.

Admission control is a bounded count of fresh in-flight jobs *per
queue class*: cost-aware routing (``config.cost_routing``) splits
admissions into a ``cheap`` and an ``expensive`` queue with their own
limits and deadlines, so a burst of multi-second tune sweeps saturates
its own queue instead of shedding microsecond predictions.  With
routing off everything rides the ``cheap`` queue under the legacy
``queue_limit`` — behavior is byte-identical to the single-queue
dispatcher.  Beyond a class's limit the dispatcher sheds (the server
turns that into HTTP 429).

Two overload-control layers ride on top (see
:mod:`repro.service.overload`):

* A fresh job carrying a propagated deadline is wrapped in a *sweep
  guard*: if the deadline expired while the job sat in the pool queue,
  the worker raises :class:`DeadlineSwept` at dequeue instead of
  executing for a caller that already gave up.  Per-class
  ``admitted``/``executed``/``swept`` counters keep the invariant
  ``admitted == executed + swept`` once the queue drains.
* With ``config.adaptive_limits`` each class's admission bound becomes
  ``min(static limit, AIMD limit)``; finished fresh jobs feed their
  total latency back into the limiter and the per-class latency
  tracker (which deadline admission consults for the observed p95).
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Awaitable, Callable

from repro.service.config import ServiceConfig
from repro.service.cost import JOB_CLASSES
from repro.service.overload import AdaptiveLimiter, ClassLatencyTracker

__all__ = ["Overloaded", "DeadlineSwept", "CoalescingDispatcher"]


class Overloaded(RuntimeError):
    """Admission control tripped: too many in-flight jobs."""


class DeadlineSwept(RuntimeError):
    """The job's deadline expired while it waited in the queue."""


def _deadline_guarded(deadline_epoch: float, fn, payload: dict) -> dict:
    """Top-level (picklable) sweep guard run inside the pool worker:
    a job whose caller's deadline already passed is dropped at dequeue
    instead of executed."""
    now = time.time()
    if now >= deadline_epoch:
        raise DeadlineSwept(
            f"deadline expired {now - deadline_epoch:.3f}s before dequeue"
        )
    return fn(payload)


class CoalescingDispatcher:
    """Deduplicate identical in-flight requests; bound fresh admissions.

    All methods must be called from the event-loop thread (the server's
    request handlers); the executor threads/processes only ever see the
    pure job functions.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._executor: Executor | None = None
        self._expensive_executor: Executor | None = None
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
        self._trackers = {cls: ClassLatencyTracker() for cls in JOB_CLASSES}
        self._limiters: dict[str, AdaptiveLimiter] | None = None
        if config.adaptive_limits:
            self._limiters = {
                cls: AdaptiveLimiter(
                    ceiling=config.class_queue_limit(cls),
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
        """Pool slots currently occupied (bounded by the pool sizes)."""
        cheap = min(self._class_pending["cheap"], self.config.workers)
        expensive = self._class_pending["expensive"]
        if self.config.expensive_workers is not None:
            return cheap + min(expensive, self.config.expensive_workers)
        # Shared pool: both classes compete for the same slots.
        return min(self.pending, self.config.workers)

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but waiting for a free pool slot."""
        return max(0, self.pending - self.busy)

    @property
    def utilization(self) -> float:
        """Busy fraction of the pools in [0, 1]."""
        slots = self.config.workers + (self.config.expensive_workers or 0)
        return self.busy / slots

    def queue_snapshot(self) -> dict:
        """Per-class queue gauges for ``/metrics``.

        Always two classes; with routing off the ``expensive`` row is
        all-idle (everything admits as ``cheap``), so dashboards keep a
        stable schema either way.
        """
        snapshot = {}
        for cls in JOB_CLASSES:
            pending = self._class_pending[cls]
            workers = self._class_workers(cls)
            snapshot[cls] = {
                "pending": pending,
                "depth": max(0, pending - workers),
                "limit": self.config.class_queue_limit(cls),
                "shed": self._class_shed[cls],
                "deadline_s": self.config.class_timeout_s(cls),
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
        """The admission bound in force: the static class limit, further
        tightened by the AIMD limiter when adaptive limits are on."""
        limit = self.config.class_queue_limit(job_class)
        if self._limiters is not None:
            limit = min(limit, self._limiters[job_class].limit)
        return limit

    def observed_p95_s(self, job_class: str) -> float | None:
        """Windowed p95 total latency of one class (``None`` while the
        sample is too small to judge a deadline by)."""
        return self._trackers[job_class].p95()

    def _class_workers(self, job_class: str) -> int:
        if (
            job_class == "expensive"
            and self.config.expensive_workers is not None
        ):
            return self.config.expensive_workers
        return self.config.workers

    # -- lifecycle ------------------------------------------------------
    def _make_executor(self, workers: int) -> Executor:
        if self.config.executor == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )

    def _ensure_executor(self, job_class: str = "cheap") -> Executor:
        if (
            job_class == "expensive"
            and self.config.expensive_workers is not None
        ):
            if self._expensive_executor is None:
                self._expensive_executor = self._make_executor(
                    self.config.expensive_workers
                )
            return self._expensive_executor
        if self._executor is None:
            self._executor = self._make_executor(self.config.workers)
        return self._executor

    async def drain(self, timeout: float) -> bool:
        """Wait for all in-flight jobs; ``True`` if everything finished."""
        tasks = list(self._inflight.values())
        if not tasks:
            return True
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        return not pending

    def _release_executors(self) -> list[Executor]:
        executors = [
            executor
            for executor in (self._executor, self._expensive_executor)
            if executor is not None
        ]
        self._executor = self._expensive_executor = None
        return executors

    def shutdown(self) -> None:
        """Tear the pools down without waiting for their workers
        (cancels jobs still queued inside them)."""
        for executor in self._release_executors():
            executor.shutdown(wait=False, cancel_futures=True)

    async def join(self, timeout_s: float) -> None:
        """Tear the pools down and wait, off the event loop, up to
        ``timeout_s`` for their workers to exit.

        A process that returns while its pool worker has not yet been
        told to exit can hang in interpreter shutdown and leave that
        worker orphaned; joining here rules that out.
        """
        joins = [
            asyncio.ensure_future(
                asyncio.to_thread(executor.shutdown, cancel_futures=True)
            )
            for executor in self._release_executors()
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
        the sweep guard: if it passes while the job waits for a pool
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
            try:
                result = await loop.run_in_executor(
                    self._ensure_executor(job_class), fn, payload
                )
            except DeadlineSwept:
                swept = True
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
                # job failure alike — both consumed a pool slot).
                self._class_executed[job_class] += 1
                elapsed = time.perf_counter() - t0
                self._trackers[job_class].record(elapsed)
                if self._limiters is not None:
                    self._limiters[job_class].record(elapsed)
