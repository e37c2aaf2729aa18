"""Line-granular access streams for blocked stencil sweeps.

The stream generator walks the *same* iteration space as the generated
kernel (block loops in plan order, full unit-stride rows inside) and
yields the cache-line accesses in execution order, interleaved at
x-chunk granularity.  It is intentionally independent of the analytic
layer-condition machinery in :mod:`repro.ecm`: addresses come straight
from the grid layouts.

Each batch concatenates the rows of one spatial block: large enough for
the batched replay engine to amortise its per-batch overheads.  The
per-row generator these batches are checked against is the reference
in :mod:`repro.cachesim.lru`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from repro.codegen.plan import KernelPlan
from repro.grid.grid import GridSet
from repro.stencil.spec import StencilSpec


def canonical_sweep_plan(
    interior_shape: tuple[int, ...], plan: KernelPlan
) -> KernelPlan:
    """Collapse a plan to the coarsest plan with the *same* access stream.

    The sweep stream is fully determined by the execution order of grid
    rows.  Rows inside a block run lexicographically, and when the only
    split outer axis is the outermost one the block loop visits its
    intervals in ascending order regardless of ``loop_order`` — so the
    concatenated row order is exactly the unblocked lexicographic sweep.
    Every such variant (all full-x 2D plans; 3D plans with full y) is
    therefore stream-identical to the unblocked plan: canonicalizing
    before memoization and replay lets tuner sweeps share one replay
    across the whole equivalence class, bit-identically.
    """
    plan = plan.clipped(interior_shape)
    dim = plan.dim
    if plan.block[-1] != interior_shape[-1]:
        return plan
    if any(
        plan.block[a] < interior_shape[a] for a in range(1, dim - 1)
    ):
        return plan
    if plan.block == tuple(interior_shape) and plan.loop_order is None:
        return plan
    return replace(
        plan, block=tuple(interior_shape), loop_order=None
    )


def _block_ranges(extent: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block, extent)) for lo in range(0, extent, block)]


def _sweep_blocks(
    shape: tuple[int, ...],
    plan: KernelPlan,
    z_range: tuple[int, int] | None,
) -> Iterator[list[tuple[int, int]]]:
    """Yield per-axis bounds of every spatial block, in plan order."""
    dim = len(shape)
    plan = plan.clipped(shape)
    order = plan.order()
    ranges_per_axis = [
        _block_ranges(shape[a], plan.block[a]) for a in range(dim)
    ]
    if z_range is not None:
        lo, hi = z_range
        ranges_per_axis[0] = [
            (max(r0, lo), min(r1, hi))
            for r0, r1 in ranges_per_axis[0]
            if r1 > lo and r0 < hi
        ]
    ordered_ranges = [ranges_per_axis[a] for a in order]
    for combo in product(*ordered_ranges):
        bounds: list[tuple[int, int]] = [None] * dim  # type: ignore[list-item]
        for axis, rng in zip(order, combo):
            bounds[axis] = rng
        if any(hi <= lo for lo, hi in bounds):
            continue
        yield bounds


def sweep_stream(
    spec: StencilSpec,
    grids: GridSet,
    plan: KernelPlan,
    z_range: tuple[int, int] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield one ``(line_numbers, is_write)`` batch per spatial block.

    Blocks come in plan order and rows inside a block lexicographically.
    Within a row, accesses are interleaved per 64-byte x-chunk: all
    distinct read lines of the chunk, then the store line — the order
    an in-order traversal of the generated loop body produces at line
    granularity.

    ``z_range`` optionally restricts the outermost axis (used by the
    wavefront/temporal driver to stream skewed slabs).
    """
    halo = grids[spec.output].halo
    read_offsets = [
        (g, off) for g in spec.reads for off in sorted(spec.offsets[g])
    ]
    out_layout = grids[spec.output].layout
    for bounds in _sweep_blocks(grids.interior_shape, plan, z_range):
        yield _block_batch(
            bounds, halo, spec.dtype_bytes, 64, read_offsets, grids,
            out_layout,
        )


def _block_geometry(
    bounds: list[tuple[int, int]],
    halo: int,
    dtype: int,
    line_bytes: int,
    read_offsets,
    grids: GridSet,
    out_layout,
):
    """Vectorized per-row column/chunk geometry of one spatial block.

    Returns ``(cols_flat, col_start, cc, n_chunks, rows)``:
    ``cols_flat`` concatenates every row's sorted-unique read first
    lines followed by its store first line, ``col_start``/``cc`` index
    and count that ragged layout, and ``n_chunks`` is the per-row chunk
    count.  All derived without materializing any access array.
    """
    dim = len(bounds)
    x0 = bounds[-1][0]

    # Rows: the outer (non-x) index tuples, in the same lexicographic
    # order ``product`` yields them.
    axis_ranges = [
        np.arange(b0, b1, dtype=np.int64) for b0, b1 in bounds[:-1]
    ]
    if axis_ranges:
        mesh = np.meshgrid(*axis_ranges, indexing="ij")
        outer = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        outer = np.zeros((1, 0), dtype=np.int64)
    rows = outer.shape[0]

    # Addresses are affine in the outer indices: one base address per
    # column at the block's x origin, plus a per-grid outer contribution.
    n_cols = len(read_offsets)
    base = np.empty(n_cols, dtype=np.int64)
    weight = np.empty((dim - 1, n_cols), dtype=np.int64)
    for c, (g, off) in enumerate(read_offsets):
        layout = grids[g].layout
        strides = layout.strides
        base[c] = layout.element_addr(
            tuple(o + halo for o in off[:-1]) + (off[-1] + halo + x0,)
        )
        for a in range(dim - 1):
            weight[a, c] = strides[a] * dtype
    out_strides = out_layout.strides
    out_base = out_layout.element_addr(
        (halo,) * (dim - 1) + (halo + x0,)
    )
    out_weight = np.array(
        [out_strides[a] * dtype for a in range(dim - 1)], dtype=np.int64
    )

    addr = base[None, :] + outer @ weight               # rows x n_cols
    first = addr // line_bytes
    out_addr = out_base + outer @ out_weight            # rows
    out_first = out_addr // line_bytes
    n = bounds[-1][1] - x0
    n_chunks = (out_addr + (n - 1) * dtype) // line_bytes - out_first + 1

    # Per-row sorted unique read lines, then the store line (duplicates
    # with the store column are kept, exactly like the row generator).
    first_sorted = np.sort(first, axis=1)
    keep = np.empty(first_sorted.shape, dtype=bool)
    keep[:, :1] = True
    keep[:, 1:] = first_sorted[:, 1:] != first_sorted[:, :-1]
    cols_mat = np.concatenate([first_sorted, out_first[:, None]], axis=1)
    keep_mat = np.concatenate(
        [keep, np.ones((rows, 1), dtype=bool)], axis=1
    )
    cols_flat = cols_mat[keep_mat]
    cc = keep_mat.sum(axis=1)
    col_start = np.concatenate(([0], np.cumsum(cc)[:-1]))
    return cols_flat, col_start, cc, n_chunks, rows


def _block_batch(
    bounds: list[tuple[int, int]],
    halo: int,
    dtype: int,
    line_bytes: int,
    read_offsets,
    grids: GridSet,
    out_layout,
) -> tuple[np.ndarray, np.ndarray]:
    """One mega-batch: the concatenation of a block's row batches."""
    cols_flat, col_start, cc, n_chunks, rows = _block_geometry(
        bounds, halo, dtype, line_bytes, read_offsets, grids, out_layout
    )
    per_row = cc * n_chunks
    total = int(per_row.sum())
    row_id = np.repeat(np.arange(rows), per_row)
    row_begin = np.concatenate(([0], np.cumsum(per_row)[:-1]))
    local = np.arange(total, dtype=np.int64) - row_begin[row_id]
    cc_r = cc[row_id]
    chunk = local // cc_r
    col_idx = local - chunk * cc_r
    lines = cols_flat[col_start[row_id] + col_idx] + chunk
    writes = col_idx == cc_r - 1
    return lines, writes


#: Target accesses per mega-batch of :meth:`SweepPrefix.stream` and
#: :func:`coalesce_batches`.  Large enough to amortise the batched
#: engine's per-batch fixed costs, small enough that the engine's sort
#: keys stay within the 16-bit radix-sort range (see
#: :func:`repro.cachesim.fastlru._narrow`).
DEFAULT_PREFIX_OPS = 65_536


def coalesce_batches(
    stream: Iterable[tuple[np.ndarray, np.ndarray]],
    max_ops: int = DEFAULT_PREFIX_OPS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Concatenate consecutive ``(lines, writes)`` batches.

    Yields batches of at most ``max_ops`` accesses; a batch that has no
    neighbour to join (a single larger input batch, or one of
    :meth:`SweepPrefix.stream`'s) passes through uncopied.  The replay
    is exact LRU: its counters depend only on the access order, not on
    where the batches are cut, so the coalesced stream replays
    bit-identically while paying the batched engine's per-batch cost
    far less often.
    """
    lines_l: list[np.ndarray] = []
    writes_l: list[np.ndarray] = []
    n = 0
    for lines, writes in stream:
        if n and n + len(lines) > max_ops:
            yield _joined(lines_l, writes_l)
            lines_l, writes_l, n = [], [], 0
        lines_l.append(lines)
        writes_l.append(writes)
        n += len(lines)
    if n:
        yield _joined(lines_l, writes_l)


def _joined(
    lines_l: list[np.ndarray], writes_l: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of the buffered batches; a lone one is not copied."""
    if len(lines_l) == 1:
        return lines_l[0], writes_l[0]
    return np.concatenate(lines_l), np.concatenate(writes_l)


class SweepPrefix:
    """Shared access-stream geometry for many block variants.

    Tuner sweeps evaluate dozens of plans against the *same*
    ``(spec, grids)`` pair.  For plans whose innermost block spans the
    full x extent, every variant touches exactly the same per-row
    column/chunk geometry — only the *order* of rows differs.  This
    class runs :func:`_block_geometry` once over the whole grid and
    replays any such variant by gathering row ids in that variant's
    block order, so stream construction is paid once per grid instead
    of once per variant.

    The replay engine is an exact LRU: its traffic counters depend only
    on the access *sequence*, not on how the sequence is cut into
    batches.  That lets :meth:`stream` coalesce rows across block
    boundaries into mega-batches of roughly ``max_ops`` accesses while
    staying bit-identical to :func:`sweep_stream`.
    """

    def __init__(self, spec: StencilSpec, grids: GridSet) -> None:
        # Only the shape is kept: holding ``grids`` would pin every
        # field's data array for as long as the prefix stays cached.
        shape = self.shape = tuple(grids.interior_shape)
        halo = grids[spec.output].halo
        read_offsets = [
            (g, off) for g in spec.reads for off in sorted(spec.offsets[g])
        ]
        bounds = [(0, s) for s in shape]
        cols_flat, col_start, cc, n_chunks, rows = _block_geometry(
            bounds, halo, spec.dtype_bytes, 64, read_offsets, grids,
            grids[spec.output].layout,
        )
        self._cols_flat = cols_flat
        self._col_start = col_start.astype(np.int64)
        self._cc = cc.astype(np.int64)
        self._per_row = (cc * n_chunks).astype(np.int64)
        self._outer_shape = tuple(shape[:-1])
        self.rows = rows
        self.accesses = int(self._per_row.sum())

    def supports(self, plan: KernelPlan, z_range: tuple[int, int] | None = None) -> bool:
        """Whether ``plan`` replays through this prefix bit-identically.

        Requires the innermost block to span the full x extent (per-row
        geometry is then block-independent) and no z restriction.
        """
        plan = plan.clipped(self.shape)
        return z_range is None and plan.block[-1] == self.shape[-1]

    def _variant_rows(self, plan: KernelPlan) -> np.ndarray:
        """Global row ids of one variant's sweep, in execution order."""
        ids = []
        for bounds in _sweep_blocks(self.shape, plan, None):
            axis_ranges = [
                np.arange(b0, b1, dtype=np.int64) for b0, b1 in bounds[:-1]
            ]
            if axis_ranges:
                mesh = np.meshgrid(*axis_ranges, indexing="ij")
                ids.append(
                    np.ravel_multi_index(
                        [m.ravel() for m in mesh], self._outer_shape
                    )
                )
            else:
                ids.append(np.zeros(1, dtype=np.int64))
        return np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)

    def _expand(self, rids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the accesses of a run of rows (same arithmetic as
        :func:`_block_batch`, gathered through the precomputed geometry)."""
        per_row = self._per_row[rids]
        total = int(per_row.sum())
        row_pos = np.repeat(np.arange(len(rids)), per_row)
        row_begin = np.concatenate(([0], np.cumsum(per_row)[:-1]))
        local = np.arange(total, dtype=np.int64) - row_begin[row_pos]
        cc_r = self._cc[rids][row_pos]
        chunk = local // cc_r
        col_idx = local - chunk * cc_r
        lines = self._cols_flat[
            self._col_start[rids][row_pos] + col_idx
        ] + chunk
        writes = col_idx == cc_r - 1
        return lines, writes

    def stream(
        self, plan: KernelPlan, max_ops: int = DEFAULT_PREFIX_OPS
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield mega-batches of one variant's sweep.

        The access sequence is exactly ``sweep_stream``'s; only the
        batch boundaries differ (cut at row granularity, roughly every
        ``max_ops`` accesses).
        """
        if not self.supports(plan):
            raise ValueError(
                f"plan {plan.describe()} does not replay through this "
                f"prefix (needs full-x innermost block)"
            )
        rids = self._variant_rows(plan)
        cum = np.concatenate(([0], np.cumsum(self._per_row[rids])))
        i, n = 0, len(rids)
        while i < n:
            j = int(np.searchsorted(cum, cum[i] + max_ops, side="right")) - 1
            j = max(j, i + 1)
            yield self._expand(rids[i:j])
            i = j

