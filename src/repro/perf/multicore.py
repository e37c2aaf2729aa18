"""Multicore performance simulation via domain decomposition.

Threads get contiguous slabs of the outermost axis (YASK's OpenMP
strategy).  One representative interior slab is replayed through a
private hierarchy; the memory term is charged with the bandwidth an
individual core actually gets once ``n`` cores contend for the socket
(or CCX) bandwidth.  Aggregate performance is per-core performance
times cores — which saturates naturally as the contended memory term
grows.
"""

from __future__ import annotations

from math import prod

import numpy as np

from repro.cachesim.driver import measure_stream
from repro.cachesim.stream import sweep_stream
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.perf.simulate import (
    Measurement,
    NOISE_SIGMA,
    simulated_cycles,
    simulated_incore,
)
from repro.stencil.spec import StencilSpec


def simulate_scaling(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    core_counts: list[int],
    seed: int = 0,
) -> list[Measurement]:
    """Simulated aggregate performance at each core count.

    Returns one :class:`~repro.perf.simulate.Measurement` per entry of
    ``core_counts``; ``cycles_per_lup`` is the *aggregate* (per-domain)
    value, i.e. ``mlups`` is total machine performance.
    """
    shape = grids.interior_shape
    rng = np.random.default_rng(seed)
    results = []
    for n in core_counts:
        if n <= 0 or n > machine.cores:
            raise ValueError(f"core count {n} outside 1..{machine.cores}")
        slab = max(1, shape[0] // n)
        # Representative interior slab (away from domain boundaries).
        z_lo = slab * min(n // 2, max(0, shape[0] // slab - 1))
        z_hi = min(shape[0], z_lo + slab)
        lups = (z_hi - z_lo) * prod(shape[1:])

        # Warm replay then measured replay, like the single-core driver.
        traffic = measure_stream(
            machine,
            lambda: sweep_stream(spec, grids, plan, z_range=(z_lo, z_hi)),
            lups=lups,
        )
        per_core_cycles = simulated_cycles(
            *simulated_incore(spec, machine), traffic, machine, n_cores=n
        )
        per_core_cycles *= 1.0 + rng.normal(0.0, NOISE_SIGMA)
        aggregate_cycles = per_core_cycles / n
        results.append(
            Measurement(
                spec_name=spec.name,
                machine_name=machine.name,
                plan_label=plan.describe(),
                cores=n,
                cycles_per_lup=float(aggregate_cycles),
                traffic=traffic,
                freq_ghz=machine.freq_ghz,
            )
        )
    return results
