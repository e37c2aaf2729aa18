"""The per-access reference replay the batched engine is checked against.

:class:`ReferenceHierarchy` walks one access at a time through
:class:`SetAssocCache` levels, and :func:`row_stream` builds a sweep's
accesses one grid row at a time, independently of the block batches of
:func:`repro.cachesim.stream.sweep_stream`.  Together they recompute
every :class:`~repro.cachesim.hierarchy.TrafficReport` the library
produces, slowly and by the most direct route.  No library module
imports this one (``tests/test_imports.py`` checks it): only the tests
and ``benchmarks/bench_perf_substrate.py`` replay through it.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import product
from math import prod
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.cachesim.hierarchy import CacheHierarchy, TrafficReport
from repro.cachesim.stream import _sweep_blocks
from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.machine.cache import CacheLevel
from repro.machine.machine import Machine
from repro.stencil.spec import StencilSpec


class SetAssocCache:
    """Set-associative LRU cache over line numbers.

    Lines are identified by their global line number
    (``byte_address // line_bytes``).  Each set is an ``OrderedDict``
    mapping line number to a dirty flag, most recently used last.
    """

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.n_sets = level.n_sets
        self.assoc = level.assoc
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_for(self, line: int) -> OrderedDict[int, bool]:
        return self._sets[line % self.n_sets]

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; update LRU order and hit/miss counters."""
        s = self._set_for(line)
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Non-destructive membership test (no LRU or counter update)."""
        return line in self._set_for(line)

    def mark_dirty(self, line: int) -> None:
        """Set the dirty flag of a resident line."""
        s = self._set_for(line)
        if line not in s:
            raise KeyError(f"line {line} not resident")
        s[line] = True
        s.move_to_end(line)

    def insert(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Install ``line``; return ``(victim_line, victim_dirty)`` if one
        was evicted, else ``None``.

        Inserting a resident line refreshes it (dirty flags OR together).
        """
        s = self._set_for(line)
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
        s[line] = dirty
        return victim

    def remove(self, line: int) -> bool | None:
        """Invalidate ``line``; return its dirty flag, or ``None`` if absent."""
        s = self._set_for(line)
        return s.pop(line, None)

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(s) for s in self._sets)

    def lru_snapshot(self) -> list[list[tuple[int, bool]]]:
        """Per-set ``(line, dirty)`` pairs in LRU-to-MRU order."""
        return [list(s.items()) for s in self._sets]

    def flush(self) -> int:
        """Drop all contents; return the number of dirty lines discarded."""
        dirty = 0
        for s in self._sets:
            dirty += sum(1 for d in s.values() if d)
            s.clear()
        return dirty


class ReferenceHierarchy(CacheHierarchy):
    """:class:`CacheHierarchy` replayed one access at a time.

    Same levels, fill and write-back rules, counters, ``report`` and
    ``reset_counters``; only the replay differs.
    """

    level_type = SetAssocCache

    def access(self, line: int, write: bool) -> None:
        """One load or store (write-allocate) of a cache line."""
        self.accesses += 1
        if self.levels[0].lookup(line):
            if write:
                self.levels[0].mark_dirty(line)
            return
        self._miss(line, write)

    def access_many(self, lines: np.ndarray, writes: np.ndarray) -> None:
        """Replay a batch of accesses, one at a time (L1 hits inlined)."""
        l0 = self.levels[0]
        l0_sets = l0._sets
        n_sets = l0.n_sets
        self.accesses += len(lines)
        hits = 0
        for line, write in zip(lines.tolist(), writes.tolist()):
            s = l0_sets[line % n_sets]
            if line in s:
                hits += 1
                s.move_to_end(line)
                if write:
                    s[line] = True
            else:
                l0.misses += 1
                self._miss(line, write)
        l0.hits += hits

    def _miss(self, line: int, write: bool) -> None:
        """Handle an L1 miss: locate the line, fill, account traffic."""
        levels = self.levels
        n = len(levels)
        last = n - 1
        hit_level = n  # memory by default
        for i in range(1, n):
            lvl = levels[i]
            if i == last and self._victim_last:
                if lvl.contains(line):
                    lvl.hits += 1
                    lvl.remove(line)  # exclusive: hit moves the line out
                    hit_level = i
                else:
                    lvl.misses += 1
                continue
            if lvl.lookup(line):
                hit_level = i
                break
        # Lines cross every boundary between the hit level and the core.
        for i in range(min(hit_level, n)):
            self.loads[i] += 1
        # Fill the levels the request passed through (deepest first).
        fill_top = hit_level - 1 if hit_level <= last and not (
            hit_level == last and self._victim_last
        ) else last
        if self._victim_last:
            fill_top = min(fill_top, last - 1)
        for i in range(fill_top, -1, -1):
            victim = levels[i].insert(line, dirty=False)
            if victim is not None:
                self._evict(i, victim[0], victim[1])
        if write:
            levels[0].mark_dirty(line)

    def _evict(self, level_idx: int, line: int, dirty: bool) -> None:
        """Dispose of a line evicted from ``level_idx``."""
        levels = self.levels
        last = len(levels) - 1
        if level_idx == last:
            if dirty:
                self.writebacks[last] += 1
            return
        below = levels[level_idx + 1]
        if level_idx + 1 == last and self._victim_last:
            # Every L2 eviction is installed in the victim L3.
            self.writebacks[level_idx] += 1
            victim = below.insert(line, dirty=dirty)
            if victim is not None:
                self._evict(last, victim[0], victim[1])
            return
        if dirty:
            self.writebacks[level_idx] += 1
            if below.contains(line):
                below.mark_dirty(line)
            else:
                victim = below.insert(line, dirty=True)
                if victim is not None:
                    self._evict(level_idx + 1, victim[0], victim[1])
        # Clean evictions from inner levels are dropped silently (the
        # copy below stays valid in the fill-through model).


def row_stream(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    z_range: tuple[int, int] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``sweep_stream``'s accesses one grid row at a time.

    Each batch covers one row (fixed outer indices, full x range of the
    current block).  Within a row, accesses are interleaved per 64-byte
    x-chunk: all distinct read lines of the chunk, then the store line
    — the order an in-order traversal of the generated loop body
    produces at line granularity.
    """
    halo = grids[spec.output].halo
    read_offsets = [
        (g, off) for g in spec.reads for off in sorted(spec.offsets[g])
    ]
    out_layout = grids[spec.output].layout
    for bounds in _sweep_blocks(grids.interior_shape, plan, z_range):
        x0, x1 = bounds[-1]
        for outer in product(*(range(lo, hi) for lo, hi in bounds[:-1])):
            yield _row_batch(
                outer, x0, x1, halo, spec.dtype_bytes, 64, read_offsets,
                grids, out_layout,
            )


def _row_batch(
    outer: tuple[int, ...],
    x0: int,
    x1: int,
    halo: int,
    dtype: int,
    line_bytes: int,
    read_offsets,
    grids: GridSet,
    out_layout,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the interleaved line stream of one row."""
    n = x1 - x0
    first_lines = []
    for g, off in read_offsets:
        layout = grids[g].layout
        idx = tuple(o + halo + d for o, d in zip(off[:-1], outer)) + (
            off[-1] + halo + x0,
        )
        addr = layout.element_addr(idx)
        first_lines.append(addr // line_bytes)
    out_idx = tuple(halo + d for d in outer) + (halo + x0,)
    out_addr = out_layout.element_addr(out_idx)
    out_first = out_addr // line_bytes

    # Chunk count: number of distinct lines the store stream touches.
    last_out = (out_addr + (n - 1) * dtype) // line_bytes
    n_chunks = int(last_out - out_first + 1)

    uniq = sorted(set(first_lines))
    cols = np.array(uniq + [out_first], dtype=np.int64)
    lines = (cols[None, :] + np.arange(n_chunks, dtype=np.int64)[:, None]).ravel()
    writes = np.zeros((n_chunks, len(cols)), dtype=bool)
    writes[:, -1] = True
    return lines, writes.ravel()


def replay_reference(
    machine: Machine,
    stream: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]],
    lups: int = 0,
    warmup: bool = True,
) -> TrafficReport:
    """``measure_stream`` through :class:`ReferenceHierarchy`, uncoalesced.

    With ``warmup`` a first replay of ``stream()`` runs uncounted.
    """
    hier = ReferenceHierarchy(machine)
    if warmup:
        for lines, writes in stream():
            hier.access_many(lines, writes)
        hier.reset_counters()
    for lines, writes in stream():
        hier.access_many(lines, writes)
    return hier.report(lups=lups)


def reference_sweep(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    machine: Machine,
    warmup: bool = True,
) -> TrafficReport:
    """The reference for ``measure_sweep(..., predictor="simulate")``:
    the plan's row stream, replayed one access at a time."""
    return replay_reference(
        machine, lambda: row_stream(spec, grids, plan),
        lups=prod(grids.interior_shape), warmup=warmup,
    )
