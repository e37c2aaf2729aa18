"""Single-core kernel performance simulation.

The simulated runtime of one sweep is::

    cycles = max(T_exec, T_ports + T_traffic) * (1 + noise)

where ``T_exec`` is the arithmetic pipeline time (instruction counts
with a pipeline-inefficiency factor — deliberately *not* the idealised
ECM in-core model), ``T_ports`` the L1 load/store port time, and
``T_traffic`` charges the cache-line counts *observed by the exact
cache simulator* at each boundary with that boundary's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro import obs
from repro.cachesim.driver import measure_sweep
from repro.cachesim.hierarchy import TrafficReport
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.stencil.spec import StencilSpec

#: Pipeline inefficiency of real kernels vs. ideal port throughput
#: (frontend stalls, address generation, remainder loops).
PIPELINE_FACTOR = 1.15

#: Relative sigma of the multiplicative run-to-run noise.
NOISE_SIGMA = 0.02


@dataclass(frozen=True)
class Measurement:
    """Simulated measurement of one kernel configuration."""

    spec_name: str
    machine_name: str
    plan_label: str
    cores: int
    cycles_per_lup: float
    traffic: TrafficReport

    @property
    def mlups(self) -> float:
        """Measured performance in MLUP/s (per scaling domain)."""
        return self.freq_ghz * 1e3 / self.cycles_per_lup

    # freq is carried via the traffic report's machine indirectly; store it:
    freq_ghz: float = 0.0

    def runtime_seconds(self, lups: int) -> float:
        """Wall time for ``lups`` lattice updates."""
        return self.cycles_per_lup * lups / (self.freq_ghz * 1e9)


def simulated_incore(
    spec: StencilSpec, machine: Machine
) -> tuple[float, float]:
    """Arithmetic pipeline and L1 port cycles per update of a stencil."""
    core = machine.core
    lanes = core.simd_lanes(spec.dtype_bytes)
    flops = spec.flop_counts
    adds = flops["+"] + flops["-"]
    muls = flops["*"]
    divs = flops["/"]
    fused = min(adds, muls) if core.has_fma else 0
    uops = fused + (adds - fused) + (muls - fused)
    cycles_per_vec = uops / core.fma_ports + divs * 8.0
    t_exec = cycles_per_vec / lanes * PIPELINE_FACTOR
    t_ports = (
        spec.n_accesses / core.load_ports + 1.0 / core.store_ports
    ) / lanes
    return t_exec, t_ports


def analytic_cycles_per_lup(spec: StencilSpec, machine: Machine) -> float:
    """In-core cycles-per-update floor, with no traffic simulation.

    ``max(T_exec, T_ports)`` — the part of the performance model that
    is pure arithmetic over the stencil expression and the core
    description.  Used by the service's cost-aware admission to price a
    job in microseconds without touching the cache simulator the job
    itself would run.
    """
    return max(simulated_incore(spec, machine))


def simulate_traffic_time(
    traffic: TrafficReport,
    machine: Machine,
    n_cores: int = 1,
) -> float:
    """Cycles per LUP charged for observed per-boundary line traffic."""
    if traffic.lups <= 0:
        raise ValueError("traffic report has no lups recorded")
    cycles = 0.0
    for k in range(len(traffic.loads)):
        lines_per_lup = traffic.total_lines(k) / traffic.lups
        if k == len(traffic.loads) - 1:
            cy_per_line = machine.mem_cycles_per_line(n_cores)
        else:
            cy_per_line = machine.caches[k].cycles_per_line()
        cycles += lines_per_lup * cy_per_line
    return cycles


def simulated_cycles(
    t_exec: float,
    t_ports: float,
    traffic: TrafficReport,
    machine: Machine,
    n_cores: int = 1,
) -> float:
    """Noiseless cycles per update: ``max(T_exec, T_ports + T_traffic)``.

    Every simulated kernel shape composes its timing here; each caller
    draws its own noise.
    """
    t_traffic = simulate_traffic_time(traffic, machine, n_cores=n_cores)
    return max(t_exec, t_ports + t_traffic)


def simulate_kernel(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    seed: int = 0,
    warmup: bool = True,
    n_cores: int = 1,
    traffic_cache="default",
    predictor: str = "auto",
) -> Measurement:
    """Measure one sweep: exact cache replay + cycle accounting + noise.

    The traffic replay is memoized (see
    :func:`repro.cachesim.driver.measure_sweep`); the seeded noise is
    applied *after* the lookup, so cached and cold calls produce
    identical measurements for identical seeds.  ``predictor`` selects
    how the traffic is produced (``"auto"``/``"lc"``/``"simulate"``);
    LC-served traffic is bit-identical to the replay and the noise is
    applied afterwards either way, so the measurement never depends on
    the predictor that served it.
    """
    plan = plan.clipped(grids.interior_shape)
    with obs.span("perf.simulate"):
        traffic = measure_sweep(
            spec, grids, plan, machine, warmup=warmup,
            traffic_cache=traffic_cache, predictor=predictor,
        )
        cycles = simulated_cycles(
            *simulated_incore(spec, machine), traffic, machine,
            n_cores=n_cores,
        )
        rng = np.random.default_rng(seed)
        cycles *= 1.0 + rng.normal(0.0, NOISE_SIGMA)
    return Measurement(
        spec_name=spec.name,
        machine_name=machine.name,
        plan_label=plan.describe(),
        cores=n_cores,
        cycles_per_lup=float(cycles),
        traffic=traffic,
        freq_ghz=machine.freq_ghz,
    )
