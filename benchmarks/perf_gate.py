"""Gate a fresh benchmark artifact against a committed baseline.

Usage::

    python benchmarks/perf_gate.py BASELINE.json CURRENT.json \
        [--tolerance 0.5]

Both files are standardized BENCH artifacts (see
``benchmarks/artifact.py``); the artifact ``name`` selects the rule
set.  The gate checks **relative** metrics only — speedups, ratios and
fractions — never absolute wall times, so it is robust to slower CI
hardware.  A ratio metric passes when it is at least

    max(absolute_floor, tolerance * baseline_value)

with a generous default tolerance of 0.5 (a genuine fast-path
regression collapses these ratios toward 1x, far below half the
baseline; ordinary machine noise does not).  Boolean and count-style
guards (load shedding observed, server healthy, LC fraction nonzero)
are checked exactly.
"""

from __future__ import annotations

import argparse
import sys

from artifact import load_artifact

#: name -> {metric: (absolute_floor, use_relative)}.  Relative metrics
#: must also clear tolerance * baseline.
RATIO_RULES = {
    "perf_substrate": {
        "engine_speedup_min": 3.0,
        # Scalar reference vs. the batched engine on 1/32-scaled caches,
        # where one stack-distance kernel replays the 2-set L1 and the
        # 32- and 64-set L2 and L3 (ten quick runs on one 2-vCPU host:
        # 7.33-10.74; the per-round and per-op kernels it replaced read
        # 1.70-2.19 on the same host).
        "scaled_replay_speedup": 3.5,
        # Argmin of ecm.predict over every candidate vs. the hoisted
        # analytic_block_selection on cold-band 3d7pt/heat3d grids (ten
        # quick runs on one 2-vCPU host: 3.11-5.13).  Re-deriving the
        # stencil and machine invariants per candidate drops it to
        # about 1x.
        "block_select_speedup": 2.5,
        "memoization_speedup": 10.0,
        "sweep_geomean_speedup": 3.0,
        "sweep_total_speedup": 1.5,
    },
    "service": {
        "warm_over_cold": 10.0,
        # Warm passes re-serve a fixed payload set from the response
        # tier, so its hit ratio is workload-determined (~0.9); a
        # regression here means the response tier stopped admitting or
        # serving.
        "warm_response_hit_rate": 0.75,
    },
    # The fabric adds a router hop, so on a single-core box its warm
    # RPS trails one process; the honest gate is "did not regress
    # relative to the committed same-box baseline", not an absolute.
    "fabric_load": {
        "fabric_rps": 25.0,
        # With persistent connections on every hop (ten quick runs on
        # one 2-vCPU host: 0.593-1.019; 0.49-0.60 when every hop opened
        # a connection per request), about half the ten-run minimum.
        "fabric_over_single": 0.3,
    },
}

#: name -> {metric: predicate description} checked exactly.
GUARDS = {
    "perf_substrate": {
        "sweep_lc_fraction": lambda v: v > 0,
    },
    "service": {
        "shed": lambda v: v >= 1,
        "healthy_after": lambda v: v is True,
    },
    "fabric_load": {
        "errors": lambda v: v == 0,
        "lost_jobs": lambda v: v == 0,
        "healthy_after": lambda v: v is True,
        # Cheap p95 with the expensive queue saturated vs idle.  Very
        # lenient (timing-noise-proof): isolation has failed outright
        # when cheap latency blows up by more than ~20x.
        "cheap_isolation_ratio": lambda v: v is not None and v > 0.05,
        # bench_overload: armed predict goodput over plain goodput
        # under the same tune storm.  ``None`` means the plain server
        # starved completely (strictly better); otherwise the armed
        # server must at least match it — in practice the margin is
        # orders of magnitude, so >= 1 is timing-noise-proof.
        "overload_goodput_ratio": lambda v: v is None or v >= 1.0,
        # The ratio only means something if the ladder actually walked
        # to the analytic stage — otherwise the resilience stack was
        # never exercised.
        "overload_brownout_engaged": lambda v: v is True,
        # Storm tunes the armed server answered from its response
        # cache: every storm payload is distinct, so any hit means a
        # repeated payload, which no longer loads the one-worker pool
        # and lets the ladder stall.
        "overload_storm_cache_hits": lambda v: v == 0,
        "overload_errors": lambda v: v == 0,
        "overload_healthy_after": lambda v: v is True,
    },
}


def gate(
    baseline: dict,
    current: dict,
    tolerance: float,
    missing: str = "warn",
) -> tuple[list[str], list[str]]:
    """Check ``current`` against ``baseline``.

    Returns ``(failures, warnings)``.  A rule whose baseline value is
    absent can no longer be skipped silently: with ``missing="warn"``
    (the default) the metric is still checked against its absolute
    floor and the hole is reported as a warning; with
    ``missing="fail"`` it is a failure — use that once a baseline has
    been committed with the full metric set.
    """
    if missing not in ("warn", "fail"):
        raise ValueError(f"missing must be 'warn' or 'fail', got {missing!r}")
    failures: list[str] = []
    warnings: list[str] = []
    name = current["name"]
    if baseline["name"] != name:
        return [
            f"artifact mismatch: baseline {baseline['name']!r}"
            f" vs current {name!r}"
        ], warnings
    if name not in RATIO_RULES and name not in GUARDS:
        return [f"no gate rules for benchmark {name!r}"], warnings
    base_quick = baseline["config"].get("quick")
    cur_quick = current["config"].get("quick")
    if base_quick != cur_quick:
        # Quick and full runs measure different case sets; their
        # ratios are not comparable.
        return [
            f"config mismatch: baseline quick={base_quick}"
            f" vs current quick={cur_quick}"
        ], warnings
    for metric, floor in RATIO_RULES.get(name, {}).items():
        base = baseline["metrics"].get(metric)
        cur = current["metrics"].get(metric)
        if cur is None:
            failures.append(f"{metric}: missing from current artifact")
            continue
        if base is None:
            message = (
                f"{metric}: absent from baseline"
                f" (rev {baseline.get('git_rev', '?')}) —"
                f" checked against absolute floor {floor} only;"
                f" re-commit the baseline to restore the relative gate"
            )
            (failures if missing == "fail" else warnings).append(message)
            if missing == "fail":
                continue
        bound = floor if base is None else max(floor, tolerance * base)
        if cur < bound:
            failures.append(
                f"{metric}: {cur} < {round(bound, 3)}"
                f" (floor {floor}, baseline {base},"
                f" tolerance {tolerance})"
            )
    for metric, predicate in GUARDS.get(name, {}).items():
        if metric not in current["metrics"]:
            message = f"{metric}: guard target absent from current artifact"
            (failures if missing == "fail" else warnings).append(message)
            continue
        cur = current["metrics"].get(metric)
        try:
            ok = predicate(cur)
        except TypeError:
            # A predicate like ``v >= 1`` crashes on None/strings; an
            # uncomparable value is a failed guard, not a crashed gate.
            ok = False
        if not ok:
            failures.append(f"{metric}: guard failed (value {cur!r})")
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json artifact")
    parser.add_argument("current", help="freshly produced artifact")
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="fraction of the baseline ratio that must be retained",
    )
    parser.add_argument(
        "--missing", choices=("warn", "fail"), default="warn",
        help="what an absent baseline metric / guard target does: "
        "'warn' (default) lists the hole and falls back to the "
        "absolute floor; 'fail' fails the gate",
    )
    args = parser.parse_args(argv)
    baseline = load_artifact(args.baseline)
    current = load_artifact(args.current)
    failures, warnings = gate(
        baseline, current, args.tolerance, missing=args.missing
    )
    name = current["name"]
    for warning in warnings:
        print(f"PERF GATE WARN [{name}]: {warning}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"PERF GATE FAIL [{name}]: {failure}", file=sys.stderr)
        return 1
    checked = sorted(RATIO_RULES.get(name, {})) + sorted(GUARDS.get(name, {}))
    summary = f"perf gate ok [{name}]: {', '.join(checked)}"
    if warnings:
        summary += f" ({len(warnings)} warning(s) above)"
    print(
        summary
        + f" (baseline rev {baseline['git_rev']},"
        f" current rev {current['git_rev']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
