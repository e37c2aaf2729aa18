"""Benchmark the measurement substrate itself.

Unlike the ``bench_f*``/``bench_t*`` files (which time the paper's
*experiments*), this one times the simulator that powers them:

* the per-access reference replay (``repro.cachesim.lru.reference_sweep``:
  one batch per grid row, one access at a time) vs. ``measure_sweep``'s
  batched engine on a blocked sweep,
* the same comparison at the 1/32 cache scale of the experiments and
  of tuner sweeps, where the batched engine's one kernel replays the
  2-set L1 like every other level, fed through the shared sweep prefix,
* cold vs. memoized ``simulate_kernel`` (traffic-cache hit path),
* the unhoisted block search (an argmin of ``ecm.predict`` over every
  candidate) vs. ``analytic_block_selection``, which evaluates the
  stencil and machine invariants once per search, asserting both pick
  the same plan and prediction, and
* serial replay-only variant sweeps vs. the layer-condition fast path
  (``predictor="auto"``: LC-exact serves + order-equivalence collapse
  + shared sweep prefixes), asserting the measurements stay
  bit-identical across predictors.

Run standalone::

    python benchmarks/bench_perf_substrate.py [--quick] [--json PATH] \
        [--artifact PATH] [--timestamp ISO]

It prints a JSON record with the speedups; the batched engine is
expected to be >= 3x on the blocked 3d7pt replay, the memoized path
>= 10x over a cold simulate_kernel, and the predictor fast path >= 3x
on the exhaustive sweeps (geomean).  Engine timings interleave the two
sides within each repeat, so a slow phase of the host hits both.
``--artifact`` additionally writes a standardized
``BENCH_perf_substrate.json`` record (see ``benchmarks/artifact.py``)
that the perf gate diffs against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.blocking.spatial import analytic_block_selection
from repro.cachesim import TrafficCache, driver, measure_sweep, prefix_stats
from repro.cachesim.dispatch import predictor_counters
from repro.cachesim.lru import reference_sweep
from repro.codegen.plan import KernelPlan, candidate_plans
from repro.ecm.model import predict
from repro.grid.grid import GridSet
from repro.machine.presets import cascade_lake_sp
from repro.perf.simulate import simulate_kernel
from repro.stencil.library import get_stencil

#: (stencil, grid shape, block) cases for the engine comparison.
CASES_FULL = [
    ("3d7pt", (40, 40, 96), (20, 20, 96)),
    ("3d25pt", (32, 32, 64), (16, 16, 64)),
]
CASES_QUICK = [
    ("3d7pt", (32, 32, 64), (16, 16, 64)),
]

#: (stencil, grid shape) cases for the exhaustive variant sweeps.
SWEEP_CASES_FULL = [
    ("heat2d", (2048, 256)),
    ("2d9pt_box", (2048, 256)),
    ("3d7pt", (48, 48, 128)),
]
SWEEP_CASES_QUICK = [
    ("heat2d", (1024, 256)),
    ("3d7pt", (32, 32, 64)),
]

#: (stencil, grid shape, block) of the scaled-cache replay comparison.
SCALED_CASE = ("3d7pt", (32, 32, 64), (16, 16, 64))
SCALED_FACTOR = 1 / 32

#: Stencils and cold-band grids (volume within 5% of 32^3) of the
#: block-search comparison on clx; one timed sample runs every case
#: ``SELECT_PASSES`` times.
SELECT_STENCILS = ("3d7pt", "heat3d")
SELECT_GRIDS = [
    (57, 29, 19), (29, 16, 68), (18, 64, 29), (41, 43, 19), (16, 21, 95),
    (32, 31, 32),
]
SELECT_PASSES = 10

#: Cold ``simulate_kernel`` repeats (best of) and memoized calls per
#: timed batch (best of 3 batches) of the memoization comparison.
MEMO_COLD_REPEATS = 5
MEMO_CALLS = 50


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_best(fns: list, repeats: int) -> list[float]:
    """Best-of-``repeats`` time of each function, run in turn within
    every repeat so host slowdowns spread over all of them."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _engine_repeats(quick: bool) -> int:
    return 3 if quick else 2


def bench_engines(quick: bool) -> list[dict]:
    """Time the reference vs. the batched replay on identical sweeps."""
    machine = cascade_lake_sp()
    repeats = _engine_repeats(quick)
    rows = []
    for name, shape, block in (CASES_QUICK if quick else CASES_FULL):
        spec = get_stencil(name)
        grids = GridSet(spec, shape)
        plan = KernelPlan(block=block)

        def scalar():
            return reference_sweep(spec, grids, plan, machine)

        def vector():
            # predictor="simulate" keeps LC analysis out of the engine
            # timing: this section compares replay engines only.
            return measure_sweep(
                spec, grids, plan, machine,
                traffic_cache=None, predictor="simulate",
            )

        r_scalar = scalar()
        r_vector = vector()
        if r_scalar.as_dict() != r_vector.as_dict():
            raise AssertionError(
                f"{name}: engine reports differ:"
                f" {r_scalar.as_dict()} vs {r_vector.as_dict()}"
            )
        t_scalar, t_vector = _interleaved_best([scalar, vector], repeats)
        rows.append(
            {
                "case": name,
                "grid": list(shape),
                "block": list(block),
                "scalar_s": round(t_scalar, 4),
                "vector_s": round(t_vector, 4),
                "speedup": round(t_scalar / t_vector, 2),
            }
        )
    return rows


def bench_scaled_replay(quick: bool) -> dict:
    """Time the reference vs. ``measure_sweep`` on 1/32-scaled caches.

    At this scale the L1 has two sets and L2 and L3 have 32 and 64;
    the batched engine replays all three with its one stack-distance
    kernel.  This is the replay of every experiment and tuner sweep.
    """
    machine = cascade_lake_sp().scaled_caches(SCALED_FACTOR)
    name, shape, block = SCALED_CASE
    spec = get_stencil(name)
    grids = GridSet(spec, shape)
    plan = KernelPlan(block=block)

    def scalar():
        return reference_sweep(spec, grids, plan, machine)

    def auto():
        return measure_sweep(
            spec, grids, plan, machine,
            traffic_cache=None, predictor="simulate",
        )

    r_scalar = scalar()
    r_auto = auto()
    if r_scalar.as_dict() != r_auto.as_dict():
        raise AssertionError(
            f"{name} at cache scale {SCALED_FACTOR:g}: engine reports"
            f" differ: {r_scalar.as_dict()} vs {r_auto.as_dict()}"
        )
    t_scalar, t_auto = _interleaved_best(
        [scalar, auto], _engine_repeats(quick)
    )
    return {
        "case": name,
        "grid": list(shape),
        "block": list(block),
        "cache_scale": SCALED_FACTOR,
        "scalar_s": round(t_scalar, 4),
        "auto_s": round(t_auto, 4),
        "speedup": round(t_scalar / t_auto, 2),
    }


def _reference_block_selection(spec, shape, machine):
    """Argmin of ``ecm.predict`` over every candidate plan, ties broken
    toward the larger block volume: the search without hoisting."""
    best = None
    for plan in candidate_plans(spec, shape, machine):
        pred = predict(spec, shape, plan, machine)
        key = (pred.t_ecm, -plan.block_volume())
        if best is None or key < best[0]:
            best = (key, plan, pred)
    return best[1], best[2]


def bench_block_select(quick: bool) -> dict:
    """Time the unhoisted block search vs. ``analytic_block_selection``.

    Both must return the same plan and an equal prediction for every
    case; the timing then isolates the cost of re-deriving the stencil
    and machine invariants for each candidate.
    """
    machine = cascade_lake_sp()
    cases = [
        (get_stencil(name), shape)
        for name in SELECT_STENCILS
        for shape in SELECT_GRIDS
    ]
    for spec, shape in cases:
        plan, pred = _reference_block_selection(spec, shape, machine)
        choice = analytic_block_selection(spec, shape, machine)
        if choice.plan != plan or choice.prediction != pred:
            raise AssertionError(
                f"{spec.name} {shape}: block search picked"
                f" {choice.plan} but the reference picked {plan}"
            )

    def reference():
        for _ in range(SELECT_PASSES):
            for spec, shape in cases:
                _reference_block_selection(spec, shape, machine)

    def hoisted():
        for _ in range(SELECT_PASSES):
            for spec, shape in cases:
                analytic_block_selection(spec, shape, machine)

    t_reference, t_hoisted = _interleaved_best(
        [reference, hoisted], _engine_repeats(quick)
    )
    return {
        "stencils": list(SELECT_STENCILS),
        "grids": [list(g) for g in SELECT_GRIDS],
        "searches": len(cases) * SELECT_PASSES,
        "reference_s": round(t_reference, 4),
        "hoisted_s": round(t_hoisted, 4),
        "speedup": round(t_reference / t_hoisted, 2),
    }


def bench_memoization(quick: bool) -> dict:
    """Time cold vs. memoized simulate_kernel on one configuration.

    The cold leg is the best of ``MEMO_COLD_REPEATS`` calls, each as
    cold as the first: a fresh :class:`TrafficCache` and an empty
    shared sweep-prefix cache, which ``simulate_kernel`` replays
    through.  The memoized leg is the mean call of a batch of
    ``MEMO_CALLS`` traffic-cache hits, best of 3 batches: one hit takes
    0.1-0.3 ms, too short to time alone.
    """
    machine = cascade_lake_sp()
    name, shape, block = ("3d7pt", (32, 32, 64), (16, 16, 64))
    spec = get_stencil(name)
    grids = GridSet(spec, shape)
    plan = KernelPlan(block=block)

    def run(cache: TrafficCache):
        return simulate_kernel(
            spec, grids, plan, machine, seed=0, traffic_cache=cache
        )

    def cold_run():
        driver._PREFIX_CACHE.clear()
        return run(TrafficCache())

    t_cold = _best_of(cold_run, MEMO_COLD_REPEATS)
    cache = TrafficCache()
    cold = run(cache)
    t_warm = _best_of(
        lambda: [run(cache) for _ in range(MEMO_CALLS)], 3
    ) / MEMO_CALLS
    warm = run(cache)
    if warm.cycles_per_lup != cold.cycles_per_lup:
        raise AssertionError("memoized measurement differs from cold run")
    return {
        "case": name,
        "grid": list(shape),
        "cold_s": round(t_cold, 4),
        "memoized_s": round(t_warm, 6),
        "speedup": round(t_cold / t_warm, 1),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }


def bench_sweeps(quick: bool) -> dict:
    """Serial replay-only exhaustive sweeps vs. the predictor fast path.

    The serial baseline evaluates every candidate plan with
    ``predictor="simulate"`` and no traffic memo — the pre-fast-path
    cost of an exhaustive tune.  The fast path uses ``predictor="auto"``
    with a fresh :class:`TrafficCache`, which layers the LC-exact serve,
    the order-equivalence collapse and the shared sweep prefix.  Every
    per-variant measurement must be bit-identical between the two runs
    (the LC fast path is served only when provably exact, and noise is
    seeded per variant), so winners agree by construction — asserted
    anyway.
    """
    machine = cascade_lake_sp()
    cases = SWEEP_CASES_QUICK if quick else SWEEP_CASES_FULL
    rows = []
    for name, shape in cases:
        spec = get_stencil(name)
        grids = GridSet(spec, shape)
        plans = list(candidate_plans(spec, shape, machine))

        t0 = time.perf_counter()
        serial = [
            simulate_kernel(
                spec, grids, plan, machine, seed=i,
                traffic_cache=None, predictor="simulate",
            )
            for i, plan in enumerate(plans)
        ]
        serial_s = time.perf_counter() - t0

        cache = TrafficCache()
        counters0 = predictor_counters().snapshot()
        prefixes0 = prefix_stats()
        t0 = time.perf_counter()
        fast = [
            simulate_kernel(
                spec, grids, plan, machine, seed=i,
                traffic_cache=cache, predictor="auto",
            )
            for i, plan in enumerate(plans)
        ]
        fast_s = time.perf_counter() - t0
        counters1 = predictor_counters().snapshot()
        prefixes1 = prefix_stats()

        for plan, a, b in zip(plans, serial, fast):
            if a.mlups != b.mlups or a.cycles_per_lup != b.cycles_per_lup:
                raise AssertionError(
                    f"{name} {plan}: fast-path measurement differs:"
                    f" {a.mlups} vs {b.mlups} MLUPS"
                )
        winner = max(range(len(plans)), key=lambda i: serial[i].mlups)
        rows.append(
            {
                "case": name,
                "grid": list(shape),
                "variants": len(plans),
                "serial_s": round(serial_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(serial_s / fast_s, 2),
                "winner_block": list(plans[winner].block),
                "winner_mlups": round(serial[winner].mlups, 3),
                "lc_served": (
                    counters1["lc_served"] - counters0["lc_served"]
                ),
                "sim_served": (
                    counters1["sim_served"] - counters0["sim_served"]
                ),
                "memo_hits": cache.hits,
                "prefix_builds": prefixes1["builds"] - prefixes0["builds"],
                "prefix_reuses": prefixes1["reuses"] - prefixes0["reuses"],
            }
        )
    speedups = [row["speedup"] for row in rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    total_serial = sum(row["serial_s"] for row in rows)
    total_fast = sum(row["fast_s"] for row in rows)
    return {
        "rows": rows,
        "geomean_speedup": round(geomean, 2),
        "total_speedup": round(total_serial / total_fast, 2),
        "lc_fraction": round(
            sum(r["lc_served"] for r in rows)
            / max(1, sum(r["lc_served"] + r["sim_served"] for r in rows)),
            3,
        ),
    }


def run(quick: bool = True) -> dict:
    """Produce the substrate-performance record."""
    engines = bench_engines(quick)
    scaled = bench_scaled_replay(quick)
    select = bench_block_select(quick)
    memo = bench_memoization(quick)
    sweeps = bench_sweeps(quick)
    return {
        "quick": quick,
        "engine_speedups": engines,
        "scaled_replay": scaled,
        "block_select": select,
        "memoization": memo,
        "sweeps": sweeps,
        "rows": engines + [scaled, select, memo] + sweeps["rows"],
    }


def to_artifact(result: dict, timestamp: str) -> dict:
    """Fold one :func:`run` record into the standard artifact schema."""
    from artifact import make_artifact

    return make_artifact(
        name="perf_substrate",
        config={"quick": result["quick"]},
        metrics={
            "engine_speedup_min": min(
                r["speedup"] for r in result["engine_speedups"]
            ),
            "scaled_replay_speedup": result["scaled_replay"]["speedup"],
            "block_select_speedup": result["block_select"]["speedup"],
            "memoization_speedup": result["memoization"]["speedup"],
            "sweep_geomean_speedup": result["sweeps"]["geomean_speedup"],
            "sweep_total_speedup": result["sweeps"]["total_speedup"],
            "sweep_lc_fraction": result["sweeps"]["lc_fraction"],
            "detail": {
                "engine_speedups": result["engine_speedups"],
                "scaled_replay": result["scaled_replay"],
                "block_select": result["block_select"],
                "memoization": result["memoization"],
                "sweeps": result["sweeps"],
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
    worst = min(r["speedup"] for r in result["engine_speedups"])
    print(
        f"# vector engine >= {worst:.2f}x, "
        f"scaled replay {result['scaled_replay']['speedup']:.2f}x, "
        f"block search {result['block_select']['speedup']:.2f}x, "
        f"memoized >= {result['memoization']['speedup']:.0f}x, "
        f"sweep fast path {result['sweeps']['geomean_speedup']:.2f}x "
        f"geomean (lc fraction "
        f"{result['sweeps']['lc_fraction']:.2f})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
