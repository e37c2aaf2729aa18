"""Cost-classed admission: price a job analytically, route it by class.

The server must decide *before* running a job whether it is a
microsecond analytic answer or a multi-second simulation sweep — after
is too late, the queue is already blocked.  The classifier prices each
normalized request with the analytic in-core ECM estimate
(:func:`repro.perf.simulate.analytic_cycles_per_lup` — pure arithmetic
over the stencil expression and the core description, no cache
simulation) scaled by grid volume and the variant count the chosen
tuner will sweep.  A job priced at :data:`EXPENSIVE_S` or more runs in
the ``expensive`` class, on the server's pool; every other job runs in
the ``cheap`` class, on threads of the server process.

The estimate is deliberately coarse: its only job is to keep
multi-second tune sweeps from queueing ahead of microsecond
predictions, so being within an order of magnitude is enough.
Per-family estimates are memoized in an :class:`~repro.store.tier.LruTier`
(the classifier runs on the event loop, on every fresh request).
"""

from __future__ import annotations

from math import prod

from repro.store.tier import LruTier

__all__ = ["classify", "EXPENSIVE_S", "JOB_CLASSES", "estimate_seconds"]

#: Queue classes, fastest first.
JOB_CLASSES = ("cheap", "expensive")

#: Estimated host seconds at or above which a job classes as expensive.
EXPENSIVE_S = 0.25

#: Simulated-replay slowdown: the exact cache simulator replays the
#: access stream in Python, costing roughly this many host cycles per
#: simulated kernel cycle.  Order-of-magnitude calibration only.
HOST_REPLAY_FACTOR = 2000.0

#: Variants a tuner sweep evaluates (coarse: the exhaustive tuner's
#: candidate count varies with grid rank; the greedy tuner converges in
#: around a dozen evaluations; the ecm tuner runs one validation).
TUNER_VARIANTS = {"ecm": 1.0, "greedy": 12.0, "exhaustive": 32.0}

#: family key → estimated seconds per simulated variant evaluation.
_estimates = LruTier("cost-estimates", capacity=256)


def _per_variant_seconds(stencil: str, machine: str, grid) -> float:
    """Host seconds to simulate one variant of this family (memoized)."""
    key = f"{stencil}|{machine}|{len(grid)}"
    cached = _estimates.peek(key)
    volume = prod(grid) if grid else 1
    if cached is not None:
        return cached * volume
    from repro.machine.presets import get_machine
    from repro.perf.simulate import analytic_cycles_per_lup
    from repro.stencil.library import get_stencil

    spec = get_stencil(stencil)
    mach = get_machine(machine)
    cycles = analytic_cycles_per_lup(spec, mach)
    per_lup_s = cycles / (mach.freq_ghz * 1e9) * HOST_REPLAY_FACTOR
    _estimates.put(key, per_lup_s)
    return per_lup_s * volume


def estimate_seconds(endpoint: str, normalized: dict) -> float:
    """Coarse host-seconds estimate of one normalized job.

    ``/predict`` is analytic (effectively free).  ``/tune`` scales the
    per-variant simulation estimate by the tuner's sweep size.
    ``/rank`` without validation is prediction-only; with validation it
    measures every variant (priced like a small sweep).  Unknown
    stencils/machines price as 0.0 — normalization already rejected
    them, and a misprice only affects queueing, not correctness.
    """
    if endpoint == "/predict":
        return 0.0
    try:
        if endpoint == "/tune":
            tuner = normalized.get("tuner", "ecm")
            if tuner == "ecm":
                return 0.0
            per_variant = _per_variant_seconds(
                normalized["stencil"],
                normalized["machine"],
                normalized.get("grid", ()),
            )
            return per_variant * TUNER_VARIANTS.get(tuner, 16.0)
        if endpoint == "/rank":
            if not normalized.get("validate"):
                return 0.0
            # Composite-kernel measurement: corrector iterations over a
            # radius-1 star; price it as a handful of variant sweeps of
            # the canonical star stencil of matching rank.
            grid = normalized.get("grid", ())
            per_variant = _per_variant_seconds(
                "2d5pt" if len(grid) == 2 else "3d7pt",
                normalized["machine"],
                grid,
            )
            return per_variant * 8.0
    except Exception:
        return 0.0
    return 0.0


def classify(endpoint: str, normalized: dict) -> str:
    """The queue class of one normalized request."""
    if estimate_seconds(endpoint, normalized) >= EXPENSIVE_S:
        return "expensive"
    return "cheap"
