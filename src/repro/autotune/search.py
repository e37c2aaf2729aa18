"""Tuner implementations and their cost accounting.

The evaluation layer here is *supervised*: worker-pool failures are
retried and requeued, crashed pools are restarted (falling back to
in-process evaluation when restarts are exhausted), and whatever could
not be completed is reported in an explicit :class:`EvalLedger` rather
than aborting the sweep and discarding finished measurements.  Fault
points (:mod:`repro.faults`) cover both the in-worker evaluation and
the parent-side pool so every recovery path can be exercised
deterministically in tests and chaos runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

from repro import faults, obs
from repro.autotune.checkpoint import TunerCheckpoint, tuner_fingerprint
from repro.blocking.spatial import analytic_block_selection
from repro.cachesim.dispatch import (
    PREDICTORS,
    PredictorError,
    predictor_counters,
)
from repro.cachesim.memo import default_traffic_cache
from repro.codegen.plan import KernelPlan, block_sizes, candidate_plans
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.perf.simulate import Measurement, simulate_kernel
from repro.stencil.spec import StencilSpec


class TunerError(RuntimeError):
    """A tuning run that could not produce a single measurement."""


@dataclass
class EvalLedger:
    """Recovery accounting for one batch of variant evaluations.

    ``retried_jobs`` counts re-submissions (including jobs requeued
    after a pool break); ``failed_jobs``/``skipped_jobs`` list the plan
    labels that were given up on (retries exhausted) or never attempted
    (deadline expired); ``resumed_jobs`` counts measurements restored
    from a checkpoint instead of re-run.

    ``lc_served``/``sim_served`` count traffic reports produced by the
    layer-condition fast path vs. the cache replay across the batch
    (memo hits count in neither); ``lc_validation_mismatch`` counts
    cross-checks (``REPRO_LC_VALIDATE=1``) where the LC answer diverged
    from the simulator and the simulated report was served instead.
    """

    retried_jobs: int = 0
    failed_jobs: list = field(default_factory=list)
    skipped_jobs: list = field(default_factory=list)
    pool_restarts: int = 0
    resumed_jobs: int = 0
    in_process_fallback: bool = False
    lc_served: int = 0
    sim_served: int = 0
    lc_validation_mismatch: int = 0
    # Per-tier traffic-memo breakdown (unified store ledger: a disk hit
    # is distinguishable from a memory hit; disk misses are overall
    # misses).  Zeros when no disk tier is configured.
    mem_hits: int = 0
    mem_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def degraded(self) -> bool:
        """Whether the batch is missing measurements a clean run has."""
        return bool(self.failed_jobs or self.skipped_jobs)

    def merge(self, other: "EvalLedger") -> None:
        """Fold another batch's accounting into this one."""
        self.retried_jobs += other.retried_jobs
        self.failed_jobs.extend(other.failed_jobs)
        self.skipped_jobs.extend(other.skipped_jobs)
        self.pool_restarts += other.pool_restarts
        self.resumed_jobs += other.resumed_jobs
        self.in_process_fallback = (
            self.in_process_fallback or other.in_process_fallback
        )
        self.lc_served += other.lc_served
        self.sim_served += other.sim_served
        self.lc_validation_mismatch += other.lc_validation_mismatch
        self.mem_hits += other.mem_hits
        self.mem_misses += other.mem_misses
        self.disk_hits += other.disk_hits
        self.disk_misses += other.disk_misses


@dataclass
class TunerResult:
    """Outcome of one tuning run, with its cost ledger.

    ``variants_run`` counts kernels that had to be *executed* (the
    expensive part the paper eliminates); ``simulated_run_seconds`` sums
    the simulated wall time those runs would have cost on the target
    machine; ``tuner_seconds`` is the actual time the tuner logic took.
    ``traffic_cache_hits``/``misses`` count traffic-memoization lookups
    during the run; ``workers`` records the degree of parallelism used.
    ``lc_served``/``sim_served``/``lc_validation_mismatch`` break the
    memo misses down by which predictor path produced the report (see
    :class:`EvalLedger`).

    The recovery fields mirror :class:`EvalLedger`: ``degraded`` is True
    when the result was produced from partial work (some jobs failed or
    were skipped), and the remaining fields say exactly what was
    retried, lost, restored from a checkpoint, or rescued by the
    in-process fallback.
    """

    tuner: str
    best_plan: KernelPlan
    best_mlups: float
    variants_examined: int
    variants_run: int
    simulated_run_seconds: float
    tuner_seconds: float
    trace: list[tuple[str, float]] = field(default_factory=list)
    traffic_cache_hits: int = 0
    traffic_cache_misses: int = 0
    workers: int = 1
    degraded: bool = False
    retried_jobs: int = 0
    failed_jobs: list = field(default_factory=list)
    skipped_jobs: list = field(default_factory=list)
    pool_restarts: int = 0
    resumed_jobs: int = 0
    in_process_fallback: bool = False
    lc_served: int = 0
    sim_served: int = 0
    lc_validation_mismatch: int = 0
    traffic_mem_hits: int = 0
    traffic_mem_misses: int = 0
    traffic_disk_hits: int = 0
    traffic_disk_misses: int = 0

    def apply_ledger(self, ledger: EvalLedger) -> "TunerResult":
        """Stamp a batch ledger's accounting onto this result."""
        self.degraded = ledger.degraded
        self.retried_jobs = ledger.retried_jobs
        self.failed_jobs = list(ledger.failed_jobs)
        self.skipped_jobs = list(ledger.skipped_jobs)
        self.pool_restarts = ledger.pool_restarts
        self.resumed_jobs = ledger.resumed_jobs
        self.in_process_fallback = ledger.in_process_fallback
        self.lc_served = ledger.lc_served
        self.sim_served = ledger.sim_served
        self.lc_validation_mismatch = ledger.lc_validation_mismatch
        self.traffic_mem_hits = ledger.mem_hits
        self.traffic_mem_misses = ledger.mem_misses
        self.traffic_disk_hits = ledger.disk_hits
        self.traffic_disk_misses = ledger.disk_misses
        return self


# --- supervised parallel variant evaluation --------------------------------
#
# Measurements are deterministic functions of (plan, seed), so evaluating a
# batch of variants in worker processes and reducing the results in submission
# order yields exactly the serial tuner's outcome.  The GridSet is rebuilt in
# each worker (its NumPy buffers are large and never read by the simulator's
# address arithmetic) instead of being pickled per task.

_WORKER_STATE: dict = {}

#: Per-job retry budget and pool-restart budget before falling back to
#: in-process evaluation.
DEFAULT_RETRIES = 2
DEFAULT_POOL_RESTARTS = 2


def _worker_init(
    spec: StencilSpec,
    interior_shape: tuple[int, ...],
    extra_halo: int,
    machine: Machine,
    fault_specs: tuple = (),
    predictor: str = "auto",
) -> None:
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["grids"] = GridSet(spec, interior_shape, extra_halo)
    _WORKER_STATE["machine"] = machine
    _WORKER_STATE["predictor"] = predictor
    # Arm the parent's fault plan with fresh per-process trigger state —
    # explicit rather than inherited, so spawn behaves like fork and an
    # ``nth=K`` trigger means "this worker's K-th call" deterministically.
    faults.install(faults.FaultPlan(fault_specs) if fault_specs else None)


def _eval_one(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    seed: int,
    predictor: str = "auto",
) -> tuple[
    Measurement, int, int, tuple[int, int, int], tuple[int, int, int, int]
]:
    """Evaluate one job, returning the traffic-memo lookup deltas too.

    The fourth element is the per-job delta of the process-wide
    predictor counters ``(lc_served, sim_served, lc_validation_mismatch)``
    — measured here so it rides back across the pool boundary with the
    result instead of being lost in the worker process.  The fifth is
    the per-tier traffic-memo delta ``(mem_hits, mem_misses, disk_hits,
    disk_misses)``, splitting the overall lookups by which store tier
    served them.
    """
    faults.check("tuner.eval")
    cache = default_traffic_cache()
    h0, m0 = cache.hits, cache.misses
    t0 = cache.tier_counts()
    c0 = predictor_counters().snapshot()
    meas = simulate_kernel(
        spec, grids, plan, machine, seed=seed, predictor=predictor
    )
    c1 = predictor_counters().snapshot()
    delta = (
        c1["lc_served"] - c0["lc_served"],
        c1["sim_served"] - c0["sim_served"],
        c1["lc_validation_mismatch"] - c0["lc_validation_mismatch"],
    )
    t1 = cache.tier_counts()
    tiers = tuple(b - a for a, b in zip(t0, t1))
    return meas, cache.hits - h0, cache.misses - m0, delta, tiers


def _worker_eval(
    job: tuple[KernelPlan, int],
) -> tuple[
    Measurement, int, int, tuple[int, int, int], tuple[int, int, int, int]
]:
    plan, seed = job
    faults.check("tuner.worker")
    return _eval_one(
        _WORKER_STATE["spec"],
        _WORKER_STATE["grids"],
        plan,
        _WORKER_STATE["machine"],
        seed,
        predictor=_WORKER_STATE.get("predictor", "auto"),
    )


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.time() >= deadline


def _serial_fill(
    spec: StencilSpec,
    grids: GridSet,
    machine: Machine,
    jobs: list[tuple[KernelPlan, int]],
    todo: set,
    attempts: dict,
    deadline: float | None,
    retries: int,
    results: list,
    ledger: EvalLedger,
    on_complete,
    predictor: str = "auto",
) -> None:
    """Run the ``todo`` jobs in this process, with retries and deadline.

    The deadline is only honored once *some* measurement exists
    (completed here or restored from a checkpoint): a request must not
    time out into an empty result when running the first job would give
    it a usable one.

    :class:`~repro.cachesim.dispatch.PredictorError` propagates
    immediately: a forced ``predictor="lc"`` declining a variant is
    deterministic, so retrying it is pointless and swallowing it would
    silently turn the sweep into a degraded partial search with a
    potentially different winner.
    """
    progress = any(r is not None for r in results)
    for i in sorted(todo):
        plan, seed = jobs[i]
        if progress and _expired(deadline):
            ledger.skipped_jobs.append(plan.describe())
            continue
        while True:
            try:
                res = _eval_one(
                    spec, grids, plan, machine, seed, predictor=predictor
                )
            except PredictorError:
                raise
            except Exception:
                attempts[i] = attempts.get(i, 0) + 1
                if attempts[i] <= retries:
                    ledger.retried_jobs += 1
                    continue
                ledger.failed_jobs.append(plan.describe())
                break
            results[i] = res
            progress = True
            if on_complete is not None:
                on_complete(i, res)
            break
    todo.clear()


def _pool_fill(
    spec: StencilSpec,
    grids: GridSet,
    machine: Machine,
    jobs: list[tuple[KernelPlan, int]],
    todo: set,
    attempts: dict,
    workers: int,
    deadline: float | None,
    retries: int,
    max_pool_restarts: int,
    results: list,
    ledger: EvalLedger,
    on_complete,
    predictor: str = "auto",
) -> None:
    """Supervised pool evaluation of the ``todo`` jobs.

    Per-job futures with bounded retries; a broken pool (worker death,
    injected ``tuner.pool`` fault) requeues its lost jobs into a fresh
    pool, and after ``max_pool_restarts`` restarts the remainder runs
    in-process so the sweep always completes.  A worker-side
    :class:`~repro.cachesim.dispatch.PredictorError` is deterministic
    (see :func:`_serial_fill`) and propagates without retries.
    """
    extra_halo = grids.output.halo - spec.radius
    initargs = (
        spec,
        grids.interior_shape,
        extra_halo,
        machine,
        faults.active_specs(),
        predictor,
    )
    restarts = 0

    def record(i: int, res) -> None:
        results[i] = res
        todo.discard(i)
        if on_complete is not None:
            on_complete(i, res)

    def progress() -> bool:
        return any(r is not None for r in results)

    while todo:
        if progress() and _expired(deadline):
            for i in sorted(todo):
                ledger.skipped_jobs.append(jobs[i][0].describe())
            todo.clear()
            return
        broken = False
        futures: dict = {}
        ex = ProcessPoolExecutor(
            max_workers=min(workers, len(todo)),
            initializer=_worker_init,
            initargs=initargs,
        )
        try:
            for i in sorted(todo):
                try:
                    faults.check("tuner.pool")
                    futures[ex.submit(_worker_eval, jobs[i])] = i
                except (faults.FaultInjected, BrokenExecutor):
                    broken = True
                    break
            pending = set(futures)
            while pending and not broken:
                timeout = None
                if deadline is not None and progress():
                    timeout = max(0.0, deadline - time.time())
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:  # deadline expired with jobs in flight
                    for fut in pending:
                        fut.cancel()
                    break
                for fut in done:
                    i = futures[fut]
                    try:
                        res = fut.result()
                    except BrokenExecutor:
                        broken = True
                        continue
                    except PredictorError:
                        raise
                    except Exception:
                        attempts[i] = attempts.get(i, 0) + 1
                        if attempts[i] <= retries:
                            ledger.retried_jobs += 1
                            try:
                                nf = ex.submit(_worker_eval, jobs[i])
                            except BrokenExecutor:
                                broken = True
                                continue
                            futures[nf] = i
                            pending.add(nf)
                        else:
                            ledger.failed_jobs.append(jobs[i][0].describe())
                            todo.discard(i)
                        continue
                    record(i, res)
        finally:
            ex.shutdown(wait=True, cancel_futures=True)
        # Salvage anything that completed while shutting down (a broken
        # pool or an expired deadline leaves finished futures behind).
        for fut, i in futures.items():
            if i in todo and fut.done() and not fut.cancelled():
                if fut.exception() is None:
                    record(i, fut.result())
        if not todo:
            return
        if broken:
            # Jobs lost to the crashed pool go around again.
            ledger.retried_jobs += len(todo)
            restarts += 1
            ledger.pool_restarts += 1
            if restarts > max_pool_restarts:
                ledger.in_process_fallback = True
                _serial_fill(
                    spec, grids, machine, jobs, todo, attempts,
                    deadline, retries, results, ledger, on_complete,
                    predictor=predictor,
                )
                return
        # A non-broken exit with work left means the deadline expired:
        # the loop head will ledger the rest as skipped (or, with no
        # progress yet, run another round).


def _evaluate_variants(
    spec: StencilSpec,
    grids: GridSet,
    machine: Machine,
    jobs: list[tuple[KernelPlan, int]],
    workers: int = 1,
    deadline: float | None = None,
    retries: int = DEFAULT_RETRIES,
    max_pool_restarts: int = DEFAULT_POOL_RESTARTS,
    precomputed: dict | None = None,
    on_complete=None,
    predictor: str = "auto",
) -> tuple[list, EvalLedger]:
    """Evaluate ``(plan, seed)`` jobs, serially or in worker processes.

    Returns ``(results, ledger)``: ``results`` holds one
    ``(measurement, cache_hit_delta, cache_miss_delta, predictor_delta)``
    tuple per job in submission order — ``None`` where the job failed
    after retries or was skipped on deadline — and ``ledger`` accounts
    for every recovery action taken (including per-predictor serve
    counts folded from the results).  ``precomputed`` maps job indices
    to already known results (checkpoint resume); ``on_complete(index,
    result)`` fires for each fresh completion (checkpoint write-out).

    The reduction over a fully successful ``results`` is independent of
    ``workers``, retries and pool restarts.  A
    :class:`~repro.cachesim.dispatch.PredictorError` (forced
    ``predictor="lc"`` on a variant the analysis declines) is raised
    rather than ledgered: it is deterministic, so the batch could only
    ever complete degraded, with a winner the other predictors might
    not pick.
    """
    if predictor not in PREDICTORS:
        raise ValueError(
            f"unknown predictor {predictor!r}; choose from {PREDICTORS}"
        )
    ledger = EvalLedger()
    results: list = [None] * len(jobs)
    if precomputed:
        for i, res in precomputed.items():
            if 0 <= i < len(results) and res is not None:
                results[i] = res
                ledger.resumed_jobs += 1
    with obs.span("tuner.evaluate") as sp:
        todo = {i for i, r in enumerate(results) if r is None}
        sp.add(jobs=len(jobs), workers=max(1, workers))
        if ledger.resumed_jobs:
            sp.add(resumed=ledger.resumed_jobs)
        attempts: dict = {}
        if workers <= 1 or len(todo) <= 1:
            _serial_fill(
                spec, grids, machine, jobs, todo, attempts,
                deadline, retries, results, ledger, on_complete,
                predictor=predictor,
            )
        else:
            # Spans cannot cross process boundaries: the pool's wall
            # time is attributed here at the submission site, not
            # inside the workers.
            _pool_fill(
                spec, grids, machine, jobs, todo, attempts, workers,
                deadline, retries, max_pool_restarts, results, ledger,
                on_complete,
                predictor=predictor,
            )
        for entry in results:
            if entry is None:
                continue
            lc, sim, mismatch = entry[3]
            ledger.lc_served += lc
            ledger.sim_served += sim
            ledger.lc_validation_mismatch += mismatch
            if len(entry) > 4:  # older checkpoints lack the tier split
                mh, mm, dh, dm = entry[4]
                ledger.mem_hits += mh
                ledger.mem_misses += mm
                ledger.disk_hits += dh
                ledger.disk_misses += dm
        for key, value in (
            ("retried", ledger.retried_jobs),
            ("failed", len(ledger.failed_jobs)),
            ("skipped", len(ledger.skipped_jobs)),
            ("pool_restarts", ledger.pool_restarts),
            ("lc_served", ledger.lc_served),
            ("sim_served", ledger.sim_served),
            ("lc_mismatch", ledger.lc_validation_mismatch),
        ):
            if value:
                sp.add(**{key: value})
    return results, ledger


def _open_checkpoint(
    checkpoint,
    tuner_name: str,
    spec: StencilSpec,
    grids: GridSet,
    machine: Machine,
    seed: int,
) -> TunerCheckpoint | None:
    """Resolve a tuner's ``checkpoint`` argument (path or instance)."""
    if checkpoint is None or isinstance(checkpoint, TunerCheckpoint):
        return checkpoint
    if isinstance(checkpoint, (str, os.PathLike)):
        return TunerCheckpoint(
            checkpoint,
            tuner_fingerprint(tuner_name, spec, grids, machine, seed),
        )
    raise TypeError(
        f"checkpoint must be a path or TunerCheckpoint, got {checkpoint!r}"
    )


def _checkpoint_hooks(
    cp: TunerCheckpoint | None,
    spec: StencilSpec,
    grids: GridSet,
    machine: Machine,
    jobs: list[tuple[KernelPlan, int]],
):
    """Build the (precomputed, on_complete) pair for one jobs batch."""
    if cp is None:
        return None, None
    keys = [cp.job_key(spec, grids, plan, machine, seed) for plan, seed in jobs]
    precomputed = {}
    for i, key in enumerate(keys):
        meas = cp.get(key)
        if meas is not None:
            precomputed[i] = (meas, 0, 0, (0, 0, 0), (0, 0, 0, 0))

    def on_complete(i: int, res) -> None:
        cp.put(keys[i], res[0])

    return precomputed, on_complete


def make_tuner(
    name: str,
    workers: int = 1,
    checkpoint=None,
    validate: bool = True,
    predictor: str = "auto",
):
    """Construct a tuner by registry name (see :data:`TUNERS`).

    The single entry point shared by :class:`repro.core.YaskSite`, the
    CLI and the service: ``workers`` and ``checkpoint`` are forwarded to
    the empirical tuners and ignored by the analytic one (nothing to
    parallelise or resume); ``validate`` is the analytic tuner's
    single-validation-run switch.  ``predictor`` selects the traffic
    predictor used for every variant evaluation (see
    :func:`repro.cachesim.driver.measure_sweep`): under ``"auto"`` and
    ``"simulate"`` reports are bit-identical, so tuner winners match
    exactly.  Forcing ``"lc"`` raises
    :class:`~repro.cachesim.dispatch.PredictorError` as soon as any
    variant is declined — tuner sweeps include blocked variants the
    analysis never certifies, so a forced-lc tune fails loudly instead
    of returning a degraded partial winner.
    """
    try:
        cls = TUNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown tuner {name!r}; choose from {sorted(TUNERS)}"
        ) from None
    if name == "ecm":
        return cls(validate=validate, predictor=predictor)
    return cls(workers=workers, checkpoint=checkpoint, predictor=predictor)


class ExhaustiveTuner:
    """Run every candidate plan and keep the fastest (YASK-style search).

    ``workers > 1`` evaluates the candidates in that many processes; the
    reduction walks results in candidate order with a strict ``>``, so
    the chosen plan is identical to the serial run for any ``workers``.
    ``checkpoint`` (a path or :class:`TunerCheckpoint`) persists
    completed measurements so an interrupted sweep resumes where it
    died.
    """

    name = "exhaustive"

    def __init__(self, workers: int = 1, checkpoint=None,
                 predictor: str = "auto"):
        self.workers = workers
        self.checkpoint = checkpoint
        self.predictor = predictor

    def tune(
        self,
        spec: StencilSpec,
        grids: GridSet,
        machine: Machine,
        seed: int = 0,
        deadline: float | None = None,
    ) -> TunerResult:
        """Search the full spatial-block space empirically."""
        start = time.perf_counter()
        shape = grids.interior_shape
        best: tuple[float, KernelPlan] | None = None
        trace: list[tuple[str, float]] = []
        sim_seconds = 0.0
        cache_hits = cache_misses = 0
        lups = 1
        for s in shape:
            lups *= s
        jobs = [
            (plan, seed + i)
            for i, plan in enumerate(candidate_plans(spec, shape, machine))
        ]
        cp = _open_checkpoint(
            self.checkpoint, self.name, spec, grids, machine, seed
        )
        precomputed, on_complete = _checkpoint_hooks(
            cp, spec, grids, machine, jobs
        )
        results, ledger = _evaluate_variants(
            spec, grids, machine, jobs,
            workers=self.workers, deadline=deadline,
            precomputed=precomputed, on_complete=on_complete,
            predictor=self.predictor,
        )
        if cp is not None:
            cp.flush()
        n_fresh = 0
        resumed = set(precomputed or ())
        for i, ((plan, _), entry) in enumerate(zip(jobs, results)):
            if entry is None:
                continue
            meas, dh, dm = entry[:3]
            if i not in resumed:
                n_fresh += 1
                sim_seconds += meas.runtime_seconds(lups) * 2  # warm-up+timed
            cache_hits += dh
            cache_misses += dm
            trace.append((plan.describe(), meas.mlups))
            if best is None or meas.mlups > best[0]:
                best = (meas.mlups, plan)
        if best is None:
            raise TunerError(
                f"exhaustive sweep produced no measurements "
                f"({len(jobs)} jobs, {len(ledger.failed_jobs)} failed)"
            )
        return TunerResult(
            tuner=self.name,
            best_plan=best[1],
            best_mlups=best[0],
            variants_examined=len(jobs),
            variants_run=n_fresh,
            simulated_run_seconds=sim_seconds,
            tuner_seconds=time.perf_counter() - start,
            trace=trace,
            traffic_cache_hits=cache_hits,
            traffic_cache_misses=cache_misses,
            workers=self.workers,
        ).apply_ledger(ledger)


class GreedyLineSearchTuner:
    """Tune one axis at a time, keeping other axes fixed (common heuristic).

    Cheaper than exhaustive but can land in a local optimum — included
    as the middle ground in the tuning-cost table.
    """

    name = "greedy"

    def __init__(self, workers: int = 1, checkpoint=None,
                 predictor: str = "auto"):
        self.workers = workers
        self.checkpoint = checkpoint
        self.predictor = predictor

    def tune(
        self,
        spec: StencilSpec,
        grids: GridSet,
        machine: Machine,
        seed: int = 0,
        deadline: float | None = None,
    ) -> TunerResult:
        """Axis-by-axis line search over block sizes.

        Candidates within one axis are independent, so each axis's batch
        is evaluated via :func:`_evaluate_variants` (parallel when
        ``workers > 1``); the per-candidate seed numbering matches the
        serial loop exactly.  An axis whose candidates all failed keeps
        its current block size (the failures appear in the ledger).
        """
        start = time.perf_counter()
        shape = grids.interior_shape
        dim = spec.dim
        lups = 1
        for s in shape:
            lups *= s
        current = list(shape)
        trace: list[tuple[str, float]] = []
        n_run = 0
        n_examined = 0
        sim_seconds = 0.0
        cache_hits = cache_misses = 0
        best_mlups = -1.0
        run_seed = seed
        ledger = EvalLedger()
        cp = _open_checkpoint(
            self.checkpoint, self.name, spec, grids, machine, seed
        )
        for axis in range(dim - 1):
            sizes = block_sizes(shape[axis])
            jobs = []
            for size in sizes:
                cand = list(current)
                cand[axis] = size
                jobs.append((KernelPlan(block=tuple(cand)), run_seed))
                run_seed += 1
            precomputed, on_complete = _checkpoint_hooks(
                cp, spec, grids, machine, jobs
            )
            results, axis_ledger = _evaluate_variants(
                spec, grids, machine, jobs,
                workers=self.workers, deadline=deadline,
                precomputed=precomputed, on_complete=on_complete,
                predictor=self.predictor,
            )
            ledger.merge(axis_ledger)
            resumed = set(precomputed or ())
            axis_best = None
            for i, (size, (plan, _), entry) in enumerate(
                zip(sizes, jobs, results)
            ):
                if entry is None:
                    continue
                meas, dh, dm = entry[:3]
                n_examined += 1
                if i not in resumed:
                    n_run += 1
                    sim_seconds += meas.runtime_seconds(lups) * 2
                cache_hits += dh
                cache_misses += dm
                trace.append((plan.describe(), meas.mlups))
                if axis_best is None or meas.mlups > axis_best[0]:
                    axis_best = (meas.mlups, size)
            if axis_best is not None:
                current[axis] = axis_best[1]
                best_mlups = axis_best[0]
        if cp is not None:
            cp.flush()
        if best_mlups < 0:
            raise TunerError(
                "greedy line search produced no measurements "
                f"({len(ledger.failed_jobs)} failed, "
                f"{len(ledger.skipped_jobs)} skipped)"
            )
        return TunerResult(
            tuner=self.name,
            best_plan=KernelPlan(block=tuple(current)),
            best_mlups=best_mlups,
            variants_examined=n_examined,
            variants_run=n_run,
            simulated_run_seconds=sim_seconds,
            tuner_seconds=time.perf_counter() - start,
            trace=trace,
            traffic_cache_hits=cache_hits,
            traffic_cache_misses=cache_misses,
            workers=self.workers,
        ).apply_ledger(ledger)


class EcmGuidedTuner:
    """YaskSite's analytic path: model every candidate, run only the winner.

    The single validation run is optional (``validate=False`` gives the
    paper's pure offline mode with zero executions).  If the validation
    run itself fails after retries, the analytic prediction is returned
    with ``degraded=True`` — the model's answer is still useful, and
    this is exactly the service's breaker-open degraded mode.
    """

    name = "ecm"

    def __init__(self, validate: bool = True, capacity_factor: float = 1.0,
                 predictor: str = "auto"):
        self.validate = validate
        self.capacity_factor = capacity_factor
        self.predictor = predictor

    def tune(
        self,
        spec: StencilSpec,
        grids: GridSet,
        machine: Machine,
        seed: int = 0,
        deadline: float | None = None,
    ) -> TunerResult:
        """Analytic selection over the same candidate space."""
        start = time.perf_counter()
        shape = grids.interior_shape
        choice = analytic_block_selection(
            spec, shape, machine, capacity_factor=self.capacity_factor
        )
        n_run = 0
        sim_seconds = 0.0
        cache_hits = cache_misses = 0
        mlups = choice.prediction.mlups
        trace = [(choice.plan.describe(), mlups)]
        ledger = EvalLedger()
        if self.validate:
            lups = 1
            for s in shape:
                lups *= s
            results, ledger = _evaluate_variants(
                spec, grids, machine, [(choice.plan, seed)],
                deadline=deadline,
                predictor=self.predictor,
            )
            entry = results[0]
            if entry is not None:
                meas, cache_hits, cache_misses = entry[:3]
                n_run = 1
                sim_seconds = meas.runtime_seconds(lups) * 2
                mlups = meas.mlups
                trace.append((choice.plan.describe(), mlups))
        return TunerResult(
            tuner=self.name,
            best_plan=choice.plan,
            best_mlups=mlups,
            variants_examined=choice.candidates_examined,
            variants_run=n_run,
            simulated_run_seconds=sim_seconds,
            tuner_seconds=time.perf_counter() - start,
            trace=trace,
            traffic_cache_hits=cache_hits,
            traffic_cache_misses=cache_misses,
        ).apply_ledger(ledger)


#: Registry of tuner implementations by CLI/service name.
TUNERS = {
    "ecm": EcmGuidedTuner,
    "exhaustive": ExhaustiveTuner,
    "greedy": GreedyLineSearchTuner,
}
