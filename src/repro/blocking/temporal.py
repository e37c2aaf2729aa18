"""Temporal (wavefront / time-skewed) blocking.

YASK's wavefront feature fuses ``wt`` time steps over slabs of the
outermost axis, skewed by the stencil radius so dependencies are
honoured.  Data of a slab is reused across the fused steps, cutting
memory traffic by up to a factor ``wt`` for memory-bound stencils.

The implementation here is the exact 1-d time-skewing scheme: slab
``[z0, z0+slab)`` executes steps ``t = 0..wt-1`` on the shifted ranges
``[z0 - t*r, z0 + slab - t*r)`` (clipped at the domain ends), with the
two Jacobi buffers alternating per step.  The skew slope equals the
radius, the minimum that keeps the scheme correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

import numpy as np

from repro.cachesim.driver import measure_stream
from repro.cachesim.hierarchy import TrafficReport
from repro.cachesim.stream import sweep_stream
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.machine import Machine
from repro.stencil import expr as E
from repro.stencil.spec import StencilSpec


@dataclass(frozen=True)
class WavefrontPlan:
    """Temporal blocking parameters on top of a spatial plan."""

    spatial: KernelPlan
    wt: int
    slab: int

    def __post_init__(self) -> None:
        if self.wt < 1:
            raise ValueError("wt must be >= 1")
        if self.slab < 1:
            raise ValueError("slab must be >= 1")

    def describe(self) -> str:
        """Label for tables."""
        return f"{self.spatial.describe()},wt={self.wt},slab={self.slab}"


def _main_input(spec: StencilSpec) -> str:
    main = max(spec.offsets, key=lambda g: (len(spec.offsets[g]), g))
    if spec.in_place:
        raise ValueError("wavefront blocking requires a Jacobi (out-of-place) stencil")
    return main


def _step_ranges(nz: int, slab: int, wt: int, r: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(t, z_lo, z_hi)`` for every slab and fused step."""
    for z0 in range(0, nz, slab):
        last = z0 + slab >= nz
        for t in range(wt):
            lo = max(0, z0 - t * r)
            hi = nz if last else max(0, z0 + slab - t * r)
            if hi > lo:
                yield t, lo, hi


def _apply_slab(
    spec: StencilSpec,
    arrays: dict[str, np.ndarray],
    params: dict[str, float],
    halo: int,
    z_lo: int,
    z_hi: int,
    in_name: str,
    in_buf: np.ndarray,
    out_buf: np.ndarray,
    shape: tuple[int, ...],
) -> None:
    """Evaluate the stencil on planes ``[z_lo, z_hi)`` with bound buffers."""

    def view(buf: np.ndarray, off: tuple[int, ...]) -> np.ndarray:
        sl = [slice(z_lo + halo + off[0], z_hi + halo + off[0])]
        for a in range(1, spec.dim):
            sl.append(slice(halo + off[a], halo + off[a] + shape[a]))
        return buf[tuple(sl)]

    def ev(node: E.Expr):
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, E.Param):
            return params[node.name]
        if isinstance(node, E.GridAccess):
            buf = in_buf if node.grid == in_name else arrays[node.grid]
            return view(buf, node.offsets)
        if isinstance(node, E.BinOp):
            lhs, rhs = ev(node.lhs), ev(node.rhs)
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            return lhs / rhs
        raise TypeError(type(node).__name__)

    zero = tuple([0] * spec.dim)
    view(out_buf, zero)[...] = ev(spec.expr)


def run_wavefront(
    spec: StencilSpec,
    grids: GridSet,
    plan: WavefrontPlan,
    params: dict[str, float] | None = None,
) -> str:
    """Execute ``wt`` fused time steps; return the name of the grid that
    holds the final result (the main input's buffer for even ``wt``).
    """
    r = spec.radius
    in_name = _main_input(spec)
    out_name = spec.output
    shape = grids.interior_shape
    halo = grids[out_name].halo
    if plan.wt > 1 and halo < r:
        raise ValueError("halo too small for the stencil radius")
    merged = dict(spec.params)
    if params:
        merged.update(params)
    arrays = {g.name: g.data for g in grids}
    bufs = [arrays[in_name], arrays[out_name]]
    for t, lo, hi in _step_ranges(shape[0], plan.slab, plan.wt, r):
        _apply_slab(
            spec, arrays, merged, halo, lo, hi,
            in_name, bufs[t % 2], bufs[(t + 1) % 2], shape,
        )
    return out_name if plan.wt % 2 == 1 else in_name


class _RoleSwappedGrids:
    """GridSet view exchanging the main input and output grid bindings.

    Lets :func:`~repro.cachesim.stream.sweep_stream` generate address
    streams for odd wavefront steps, where the Jacobi buffers trade
    roles.
    """

    def __init__(self, grids: GridSet, a: str, b: str) -> None:
        self._grids = grids
        self._map = {a: b, b: a}
        self.interior_shape = grids.interior_shape

    def __getitem__(self, name: str):
        return self._grids[self._map.get(name, name)]


def wavefront_stream(
    spec: StencilSpec,
    grids: GridSet,
    plan: WavefrontPlan,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Line-access stream of one wavefront pass over the whole grid.

    Batches are the slabs' spatial blocks.
    """
    in_name = _main_input(spec)
    swapped = _RoleSwappedGrids(grids, in_name, spec.output)
    shape = grids.interior_shape

    for t, lo, hi in _step_ranges(shape[0], plan.slab, plan.wt, spec.radius):
        source = grids if t % 2 == 0 else swapped
        yield from sweep_stream(spec, source, plan.spatial, z_range=(lo, hi))


def measure_wavefront(
    spec: StencilSpec,
    grids: GridSet,
    plan: WavefrontPlan,
    machine: Machine,
    warmup: bool = True,
) -> TrafficReport:
    """Simulated cache traffic of one wavefront pass (``wt`` time steps)."""
    return measure_stream(
        machine,
        lambda: wavefront_stream(spec, grids, plan),
        lups=prod(grids.interior_shape) * plan.wt,
        warmup=warmup,
    )


def predict_wavefront_memtraffic(
    spec: StencilSpec,
    plan: WavefrontPlan,
    base_bytes_per_lup: float,
) -> float:
    """Analytic memory bytes/LUP under wavefront blocking.

    The slab is loaded and written once per ``wt`` fused steps; the skew
    re-reads ``wt * r`` extra planes per slab.
    """
    skew_overhead = 1.0 + plan.wt * spec.radius / plan.slab
    return base_bytes_per_lup / plan.wt * skew_overhead
