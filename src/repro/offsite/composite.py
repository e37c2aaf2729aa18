"""ECM prediction and exact-cache measurement for composite kernels.

Composite kernels run through the stencil path's model (DESIGN.md, "One
model, every kernel shape").  This module keeps only what is specific
to them: the in-core counts (ideal FMA contraction, on purpose), the
multi-array line stream and the memo key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

import numpy as np

from repro import obs
from repro.cachesim.driver import measure_stream
from repro.cachesim.hierarchy import TrafficReport
from repro.cachesim.memo import resolve_traffic_cache, stream_key
from repro.codegen.plan import KernelPlan, candidate_blocks
from repro.ecm.layer_conditions import (
    LayerConditionModel,
    LayerConditionReport,
)
from repro.ecm.model import compose, cycle_terms, transfer_cycles
from repro.grid.grid import Grid
from repro.machine.machine import Machine
from repro.offsite.kernels import CompositeKernel
from repro.perf.simulate import NOISE_SIGMA, PIPELINE_FACTOR, simulated_cycles
from repro.stencil.spec import star_offsets


class VariantGrids:
    """Named arrays of one ODE variant in a shared address space."""

    PAGE = 4096

    def __init__(
        self,
        names: tuple[str, ...],
        interior_shape: tuple[int, ...],
        halo: int,
        dtype_bytes: int = 8,
    ) -> None:
        self.interior_shape = tuple(interior_shape)
        self._grids: dict[str, Grid] = {}
        addr = 0
        for name in names:
            grid = Grid(
                name=name,
                interior_shape=self.interior_shape,
                halo=halo,
                dtype_bytes=dtype_bytes,
                base_addr=addr,
            )
            self._grids[name] = grid
            addr += grid.footprint_bytes
            addr += (-addr) % self.PAGE

    def __getitem__(self, name: str) -> Grid:
        return self._grids[name]

    def __contains__(self, name: str) -> bool:
        return name in self._grids

    @property
    def names(self) -> tuple[str, ...]:
        """Array names in address order."""
        return tuple(self._grids)


def _incore(
    kernel: CompositeKernel, machine: Machine, dtype_bytes: int
) -> tuple[float, float]:
    """In-core ``(T_OL, T_nOL)`` per update of a composite kernel.

    Ideal FMA contraction, one SIMD load per distinct read offset and
    one store per output array.
    """
    core = machine.core
    lanes = core.simd_lanes(dtype_bytes)
    t_ol = kernel.flops_per_lup / 2.0 / core.fma_ports / lanes
    t_nol = (
        kernel.loads_per_lup() / core.load_ports
        + kernel.n_store_streams / core.store_ports
    ) / lanes
    return t_ol, t_nol


# ----------------------------------------------------------------------
# Analytic prediction (the Offsite-side use of the ECM model)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompositePrediction:
    """ECM-style prediction for one composite kernel."""

    kernel_name: str
    machine_name: str
    cycles_per_lup: float
    t_data_per_lup: tuple[float, ...]
    traffic: LayerConditionReport
    mem_bytes_per_lup: float

    def seconds_per_lup(self, freq_ghz: float) -> float:
        """Wall seconds per lattice update."""
        return self.cycles_per_lup / (freq_ghz * 1e9)


def predict_kernel(
    kernel: CompositeKernel,
    interior_shape: tuple[int, ...],
    plan: KernelPlan,
    machine: Machine,
    dim: int = 3,
    dtype_bytes: int = 8,
    capacity_factor: float = 1.0,
) -> CompositePrediction:
    """Analytic cycles/LUP of a composite kernel (no execution).

    The stencil path's layer-condition model, cycle terms and ECM
    composition, fed with each read's star offsets and each write's
    also-read flag, and counted per lattice update.
    """
    plan = plan.clipped(interior_shape)
    lc = LayerConditionModel(
        [star_offsets(dim, r.radius) for r in kernel.reads],
        [w.also_read for w in kernel.writes],
        dim,
        dtype_bytes,
        machine,
        capacity_factor=capacity_factor,
    )
    traffic = lc.report(plan.block, interior_shape)
    t_data = transfer_cycles(
        traffic.elements_per_lup, dtype_bytes, 1, cycle_terms(machine)
    )
    return CompositePrediction(
        kernel_name=kernel.name,
        machine_name=machine.name,
        cycles_per_lup=compose(*_incore(kernel, machine, dtype_bytes), t_data),
        t_data_per_lup=t_data,
        traffic=traffic,
        mem_bytes_per_lup=traffic.bytes_per_lup(dtype_bytes)[-1],
    )


def select_kernel_block(
    kernel: CompositeKernel,
    interior_shape: tuple[int, ...],
    machine: Machine,
    dim: int = 3,
    capacity_factor: float = 1.0,
) -> KernelPlan:
    """Analytic per-kernel block choice (YaskSite service to Offsite).

    Same candidate blocks as the stencil tuner
    (:func:`~repro.codegen.plan.candidate_blocks`); best predicted
    cycles wins, ties toward the largest block.
    """
    best: tuple[tuple[float, int], KernelPlan] | None = None
    for block in candidate_blocks(interior_shape):
        plan = KernelPlan(block=block)
        pred = predict_kernel(
            kernel, interior_shape, plan, machine,
            dim=dim, capacity_factor=capacity_factor,
        )
        key = (pred.cycles_per_lup, -plan.block_volume())
        if best is None or key < best[0]:
            best = (key, plan)
    assert best is not None
    return best[1]


# ----------------------------------------------------------------------
# Exact-cache "measurement"
# ----------------------------------------------------------------------
def kernel_stream(
    kernel: CompositeKernel,
    grids: VariantGrids,
    plan: KernelPlan,
    dim: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Line-access stream of one composite-kernel sweep."""
    shape = grids.interior_shape
    plan = plan.clipped(shape)
    line_bytes = 64
    halo = grids[kernel.grids[0]].halo
    dtype = 8

    # Precompute (grid, offset, is_write) columns.
    read_cols: list[tuple[str, tuple[int, ...]]] = []
    for r in kernel.reads:
        for off in star_offsets(dim, r.radius):
            read_cols.append((r.grid, off))
    write_cols = [w.grid for w in kernel.writes]

    order = plan.order()
    ranges = [
        [(lo, min(lo + plan.block[a], shape[a]))
         for lo in range(0, shape[a], plan.block[a])]
        for a in range(dim)
    ]
    ordered = [ranges[a] for a in order]
    for combo in product(*ordered):
        bounds: list[tuple[int, int]] = [None] * dim  # type: ignore[list-item]
        for axis, rng in zip(order, combo):
            bounds[axis] = rng
        x0, x1 = bounds[dim - 1]
        n = x1 - x0
        if n <= 0:
            continue
        outer_iters = [range(b[0], b[1]) for b in bounds[:-1]]
        for outer in product(*outer_iters):
            firsts = []
            flags = []
            seen: dict[int, int] = {}
            for g, off in read_cols:
                layout = grids[g].layout
                idx = tuple(
                    o + halo + d for o, d in zip(off[:-1], outer)
                ) + (off[-1] + halo + x0,)
                line = layout.element_addr(idx) // line_bytes
                if line in seen:
                    continue
                seen[line] = 1
                firsts.append(line)
                flags.append(False)
            for g in write_cols:
                layout = grids[g].layout
                idx = tuple(halo + d for d in outer) + (halo + x0,)
                line = layout.element_addr(idx) // line_bytes
                firsts.append(line)
                flags.append(True)
            first_addr = grids[write_cols[0]].layout.element_addr(
                tuple(halo + d for d in outer) + (halo + x0,)
            )
            last_addr = first_addr + (n - 1) * dtype
            n_chunks = int(last_addr // line_bytes - first_addr // line_bytes + 1)
            cols = np.array(firsts, dtype=np.int64)
            lines = (
                cols[None, :] + np.arange(n_chunks, dtype=np.int64)[:, None]
            ).ravel()
            writes = np.tile(np.array(flags, dtype=bool), n_chunks)
            yield lines, writes


def _kernel_key(
    kernel: CompositeKernel,
    grids: VariantGrids,
    plan: KernelPlan,
    machine: Machine,
    dim: int,
    warmup: bool,
) -> str:
    """Content key of one composite-kernel replay (see ``stream_key``)."""
    plan = plan.clipped(grids.interior_shape)
    payload = {
        "kernel": kernel.name,
        "reads": [[r.grid, r.radius, r.dim] for r in kernel.reads],
        "writes": [[w.grid, w.also_read] for w in kernel.writes],
        "grids": [
            [
                g,
                grids[g].base_addr,
                grids[g].halo,
                grids[g].dtype_bytes,
                list(grids[g].layout.shape),
            ]
            for g in grids.names
        ],
        "shape": list(grids.interior_shape),
        "block": list(plan.block),
        "order": list(plan.order()),
        "dim": dim,
        "machine": [
            [c.name, c.size_bytes, c.line_bytes, c.assoc, c.victim,
             c.write_policy.value]
            for c in machine.caches
        ],
        "warmup": bool(warmup),
    }
    return stream_key("offsite-kernel", payload)


def measure_kernel(
    kernel: CompositeKernel,
    grids: VariantGrids,
    plan: KernelPlan,
    machine: Machine,
    dim: int = 3,
    seed: int = 0,
    warmup: bool = True,
    traffic_cache="default",
) -> tuple[float, TrafficReport]:
    """Simulated (cycles/LUP, traffic) of one composite-kernel sweep.

    The deterministic traffic replay is memoized behind ``traffic_cache``
    (see :mod:`repro.cachesim.memo`); the in-core cycle model and the
    seeded noise are recomputed after every lookup, so cached and cold
    calls agree bit-for-bit for equal seeds.
    """
    lups = prod(grids.interior_shape)
    with obs.span("cachesim.sweep") as sp:
        cache = resolve_traffic_cache(traffic_cache)
        traffic = None
        key = None
        if cache is not None:
            key = _kernel_key(kernel, grids, plan, machine, dim, warmup)
            traffic = cache.get(key)
            sp.add(**({"memo_hits": 1} if traffic is not None
                      else {"memo_misses": 1}))
        if traffic is None:
            with obs.span("cachesim.replay"):
                traffic = measure_stream(
                    machine, lambda: kernel_stream(kernel, grids, plan, dim),
                    lups=lups, warmup=warmup,
                )
            if cache is not None:
                cache.put(key, traffic)

    t_ol, t_nol = _incore(kernel, machine, 8)
    cycles = simulated_cycles(t_ol * PIPELINE_FACTOR, t_nol, traffic, machine)
    rng = np.random.default_rng(seed)
    cycles *= 1.0 + rng.normal(0.0, NOISE_SIGMA)
    return float(cycles), traffic
