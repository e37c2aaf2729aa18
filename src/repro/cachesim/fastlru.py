"""Batched replay of the cache hierarchy (the one replay engine).

The reference in :mod:`repro.cachesim.lru` walks one access at a time
through every level.  This module replays the *same* semantics over
whole batches and produces bit-identical traffic counters and LRU
state.

**Level-phase decomposition.**  During one access, each level sees at
most three primitive operations: a *demand* probe (lookup, and on a
miss the fill of the same line — nothing else touches the level in
between, so the pair is atomic), an *install* (an eviction from the
level above being written back / victim-installed), and — for an
exclusive victim last level — a *victim demand* (probe that removes the
line on a hit and never fills).  The hierarchy is therefore replayed
level by level: level ``j`` consumes an ordered op stream and emits the
ordered op stream of level ``j+1``.  Ordering is preserved by position
arithmetic: an op at position ``p`` emits its propagated demand at
``4p`` and its eviction at ``4p+1`` (demand fill) or ``4p+2``
(install), which reproduces exactly the reference's interleaving of
probes, fills and eviction cascades.

**One stack-distance kernel per level.**  Ops on different sets
commute, and within a set LRU is decided by reuse distance: a line
re-touched at ``i`` after its last touch at ``p`` hits if and only if
the number of other lines touched in ``(p, i)`` and still resident
stays below ``assoc`` (without victim-level removals: fewer than
``assoc`` distinct lines touched in ``(p, i)``).  :func:`_replay_level`
evaluates that test for a whole batch at once, whatever the level's
set count.
The level's state enters as a prologue — the resident lines of the
sets the batch touches, replayed as touches in LRU order — and leaves
as the lines whose residency outlasts the batch.  Evictions need no
simulation: per-set occupancy (+1 per fill, -1 per victim-level
removal, clamped at ``assoc``) marks the evicting fills, and because
LRU evicts residencies in the order of their last touch, the k-th
evicting fill of a set takes that set's k-th ended residency.
"""

from __future__ import annotations

import numpy as np

from repro.machine.cache import CacheLevel

__all__ = ["VectorCache", "replay_batch"]

#: Op kinds of the per-level streams.
_DEMAND = 0   # lookup; on miss: count the load, fill, propagate deeper
_INSTALL = 1  # eviction from the level above installed into this level
_VDEMAND = 2  # demand probe of an exclusive victim level (hit removes)

#: Elements per ``window x candidates`` temporary of the windowed hit
#: test (64 KiB of indices): bounds the hit test's scratch memory
#: whatever the batch size.
_WINDOW_ELEMS = 1 << 13


def _narrow(key: np.ndarray, span: int) -> np.ndarray:
    """Cast a non-negative sort key to uint16 when its range allows.

    ``np.argsort(kind="stable")`` uses radix sort only for <= 16-bit
    integer types; the cast is order-preserving for values below 2**16.
    """
    if span <= 1 << 16:
        return key.astype(np.uint16)
    return key


class VectorCache:
    """Array-backed set-associative LRU level for the batched engine.

    Mirrors the observable state of the reference's per-access
    ``SetAssocCache`` (:mod:`repro.cachesim.lru`): row ``s`` of ``tags``
    holds the lines of set ``s`` in LRU-to-MRU order, ``-1`` marking an
    empty way (empty ways may sit anywhere in the row), and ``dirty``
    their write-back flags.
    """

    def __init__(self, level: CacheLevel) -> None:
        self.level = level
        self.n_sets = level.n_sets
        self.assoc = level.assoc
        self.tags = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        self.dirty = np.zeros((self.n_sets, self.assoc), dtype=bool)
        self.hits = 0
        self.misses = 0

    def contains(self, line: int) -> bool:
        """Non-destructive membership test."""
        return bool((self.tags[line % self.n_sets] == line).any())

    def remove(self, line: int) -> bool | None:
        """Invalidate ``line``; return its dirty flag, or ``None``."""
        s = line % self.n_sets
        ways = np.flatnonzero(self.tags[s] == line)
        if ways.size == 0:
            return None
        w = ways[0]
        was_dirty = bool(self.dirty[s, w])
        self.tags[s, w] = -1
        return was_dirty

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return int((self.tags >= 0).sum())

    def flush(self) -> int:
        """Drop all contents; return the number of dirty lines discarded."""
        n_dirty = int((self.dirty & (self.tags >= 0)).sum())
        self.tags[...] = -1
        self.dirty[...] = False
        return n_dirty

    def lru_snapshot(self) -> list[list[tuple[int, bool]]]:
        """Per-set ``(line, dirty)`` pairs in LRU-to-MRU order."""
        return [
            [(int(t), bool(d)) for t, d in zip(row, drow) if t >= 0]
            for row, drow in zip(self.tags, self.dirty)
        ]


def _hit_test(
    s_line: np.ndarray, touch: np.ndarray, assoc: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decide which ops of a set-sorted op stream hit.

    ``touch`` marks the ops that leave their line resident (everything
    but victim-level probes).  Returns ``(by_line, hit)``: the stable
    order that lists each line's ops in time order, and the per-op hit
    flags.  Within a set the stream is in time order, and a line has
    one set, so linking each op to the previous op on its line gives
    its reuse window.
    """
    m = s_line.shape[0]
    lo = int(s_line.min())
    by_line = np.argsort(
        _narrow(s_line - lo, int(s_line.max()) - lo + 1), kind="stable"
    )
    prev = np.empty(m, dtype=np.int32)
    prev[by_line[0]] = -1
    prev[by_line[1:]] = np.where(
        np.diff(s_line[by_line]) == 0, by_line[:-1], -1
    )
    # After a victim probe (a removal or a miss) the line is absent, so
    # only a touch can leave it resident for the next op.  Fewer than
    # assoc ops between two touches of a line make a hit outright.
    monotone = bool(touch.all())  # no victim probes, so no removals
    linked = prev >= 0
    if not monotone:
        linked &= touch[prev]
    short = np.arange(m) - prev <= assoc
    hit = linked & short
    cand = np.flatnonzero(linked & ~short)
    # Seen from a window opened by a touch at p, op j adds one line
    # above p's line if it is a touch, and takes one away if its last
    # touch lies inside the window: a re-touch nets 0, a victim-level
    # removal -1.  p's line survives while that count stays below
    # assoc.  Window rows past i repeat op i, whose last touch is p and
    # counts as inside: they add at most 0, so the peak is that of
    # (p, i).  Without removals the count only grows, and op j adds one
    # exactly when its last touch precedes p.  Each candidate is one
    # column, so every reduction runs across candidates.
    last_touch = np.where(linked, prev, -1)
    window = 2 * assoc
    while cand.size:
        cp = prev[cand]
        peak = np.empty(cand.size, dtype=np.int64)
        offsets = np.arange(1, window + 1)[:, None]
        cols = max(1, _WINDOW_ELEMS // window)
        for b in range(0, cand.size, cols):
            e = b + cols
            j = cp[b:e] + offsets
            np.minimum(j, cand[b:e], out=j)
            if monotone:
                peak[b:e] = (last_touch[j] < cp[b:e]).sum(axis=0)
            else:
                step = touch[j].view(np.int8) - (last_touch[j] >= cp[b:e])
                peak[b:e] = step.cumsum(axis=0, dtype=np.int32).max(axis=0)
        evicted = peak >= assoc
        whole = cand - cp <= window + 1  # the window spans (p, i)
        hit[cand[whole & ~evicted]] = True
        cand = cand[~(whole | evicted)]
        window *= 2
    return by_line, hit


def _evicting_fills(
    touch: np.ndarray, hit: np.ndarray, count: np.ndarray, assoc: int
) -> np.ndarray:
    """Indices of the fills that evict, in a set-sorted op stream.

    ``count`` holds the number of ops of each set.  Per-set occupancy
    counts +1 per fill and -1 per removal (a victim-level hit), clamped
    at assoc.  Without removals a fill evicts once its set holds assoc
    lines; with them the clamp bites wherever the running max of
    (occupancy - assoc) rises.
    """
    starts = np.cumsum(count) - count
    fill = touch & ~hit
    step = fill.view(np.int8) - (hit & ~touch)
    occ = np.cumsum(step, dtype=np.int32)
    occ -= np.repeat(occ[starts] - step[starts], count)
    if touch.all():
        return np.flatnonzero(fill & (occ > assoc))
    # A per-set offset keeps the running max from crossing sets.
    m = occ.shape[0]
    offset = np.arange(count.shape[0], dtype=np.int64) * (m + 1)
    over = np.maximum(occ - assoc, 0) + np.repeat(offset, count)
    np.maximum.accumulate(over, out=over)
    rise = np.empty(m, dtype=bool)
    rise[1:] = over[1:] > over[:-1]
    rise[starts] = False
    return np.flatnonzero(rise)


def _residencies(
    by_line: np.ndarray, hit: np.ndarray, touch: np.ndarray, flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residency ends and dirty flags of a set-sorted op stream.

    A residency runs from a fill through its hits: it ends at a touch
    whose next op on the line is a miss or absent, and its dirty flag
    is the OR over its ops.  The first op of every line is a miss.
    Returns ``(ends, dirty)``: the indices of the ends in stream order,
    and per op the OR over its residency up to that op.
    """
    m = hit.shape[0]
    miss_run = ~hit[by_line]
    flag_run = flags[by_line]
    seen = np.cumsum(flag_run, dtype=np.int32)
    before = np.where(miss_run, seen - flag_run, 0)
    np.maximum.accumulate(before, out=before)
    dirty = np.empty(m, dtype=bool)
    dirty[by_line] = seen > before
    end = np.empty(m, dtype=bool)
    end[by_line] = touch[by_line] & np.append(miss_run[1:], True)
    return np.flatnonzero(end), dirty


def _replay_level(
    cache: VectorCache,
    lines: np.ndarray,
    kinds: np.ndarray,
    flags: np.ndarray,
    pos: np.ndarray,
):
    """Replay one level's ordered op stream, vectorized over the batch.

    Returns ``(demand_hits, demand_misses, dem_lines, dem_pos,
    vic_lines, vic_dirty, vic_pos)`` where the ``dem_*`` arrays are the
    demand misses to propagate one level deeper (positions already
    rescaled) and the ``vic_*`` arrays the evicted lines (positions
    rescaled and sub-ordered after their causing op).  Only the sets
    the batch touches are read or written.
    """
    n_sets, assoc = cache.n_sets, cache.assoc
    per_set = np.bincount(lines % n_sets, minlength=n_sets)
    touched = np.flatnonzero(per_set)
    n_grp = touched.shape[0]

    # Prologue: the resident lines of the touched sets, as touches in
    # LRU order carrying their dirty flags.  Their kind is an install,
    # so they are never counted or emitted.  A stable sort by set puts
    # them ahead of the batch's ops on their set.
    held_tags = cache.tags[touched]
    held = held_tags >= 0
    n_held = held.sum(axis=1)
    n_pro = int(n_held.sum())
    s_line = np.concatenate((held_tags[held], lines))
    order = np.argsort(_narrow(s_line % n_sets, n_sets), kind="stable")
    s_line = s_line[order]
    s_flag = np.concatenate((cache.dirty[touched][held], flags))[order]
    s_kind = np.concatenate((np.full(n_pro, _INSTALL, np.int8), kinds))[order]
    count = per_set[touched] + n_held  # ops per touched set

    touch = s_kind != _VDEMAND
    by_line, hit = _hit_test(s_line, touch, assoc)
    ev = _evicting_fills(touch, hit, count, assoc)
    ends, res_dirty = _residencies(by_line, hit, touch, s_flag)

    # LRU evicts residencies in last-touch order: the k-th evicting
    # fill of a set takes the set's k-th ended residency, and the rest
    # are the set's new LRU state.
    bounds = np.cumsum(count)
    end_grp = np.searchsorted(bounds, ends, side="right")
    n_ends = np.bincount(end_grp, minlength=n_grp)
    n_evict = np.bincount(
        np.searchsorted(bounds, ev, side="right"), minlength=n_grp
    )
    way = np.arange(ends.shape[0])
    way -= (np.cumsum(n_ends) - n_ends + n_evict)[end_grp]
    gone = ends[way < 0]
    stay = way >= 0
    new_tags = np.full((n_grp, assoc), -1, dtype=np.int64)
    new_dirty = np.zeros((n_grp, assoc), dtype=bool)
    new_tags[end_grp[stay], way[stay]] = s_line[ends[stay]]
    new_dirty[end_grp[stay], way[stay]] = res_dirty[ends[stay]]
    cache.tags[touched] = new_tags
    cache.dirty[touched] = new_dirty

    probe = s_kind != _INSTALL
    n_miss = int(np.count_nonzero(probe & ~hit))
    dem = np.flatnonzero((s_kind == _DEMAND) & ~hit)
    # Positions are read only where something is emitted; prologue ops
    # never emit.  Sub-position 1 for a demand fill's eviction, 2 for an
    # install's.
    sub = np.where(s_kind[ev] == _DEMAND, 1, 2)
    return (
        int(np.count_nonzero(probe)) - n_miss,
        n_miss,
        s_line[dem],
        pos[order[dem] - n_pro] * 4,
        s_line[gone],
        res_dirty[gone],
        pos[order[ev] - n_pro] * 4 + sub,
    )


def replay_batch(hier, lines: np.ndarray, writes: np.ndarray) -> None:
    """Replay one ``(lines, writes)`` batch through the batched engine.

    Updates the hierarchy's traffic counters and per-level hit/miss
    counters exactly like the reference's per-access loop would.
    """
    n = int(len(lines))
    if n == 0:
        return
    levels = hier.levels
    n_levels = len(levels)
    last = n_levels - 1
    victim_last = hier._victim_last

    lines = np.ascontiguousarray(lines, dtype=np.int64)
    flags = np.ascontiguousarray(writes, dtype=bool)
    hier.accesses += n
    base = hier._clock
    hier._clock = base + n
    pos = np.arange(base, base + n, dtype=np.int64)
    kinds = np.zeros(n, dtype=np.int8)  # phase 0: all demand ops

    for j in range(n_levels):
        h, m, dem_lines, dem_pos, vic_lines, vic_dirty, vic_pos = (
            _replay_level(levels[j], lines, kinds, flags, pos)
        )
        levels[j].hits += h
        levels[j].misses += m
        hier.loads[j] += m

        if j == last:
            # Evictions from the deepest level go to memory if dirty.
            hier.writebacks[last] += int(vic_dirty.sum())
            break
        if victim_last and j + 1 == last:
            # Every eviction is installed into the victim level below.
            hier.writebacks[j] += int(vic_lines.shape[0])
            inst_lines = vic_lines
            inst_flags = vic_dirty
            inst_pos = vic_pos
            dem_kind = _VDEMAND
        else:
            # Only dirty lines travel down the write-back path.
            hier.writebacks[j] += int(vic_dirty.sum())
            inst_lines = vic_lines[vic_dirty]
            inst_flags = np.ones(inst_lines.shape[0], dtype=bool)
            inst_pos = vic_pos[vic_dirty]
            dem_kind = _DEMAND

        if dem_lines.shape[0] + inst_lines.shape[0] == 0:
            break
        m_lines = np.concatenate((dem_lines, inst_lines))
        m_kinds = np.concatenate(
            (
                np.full(dem_lines.shape[0], dem_kind, dtype=np.int8),
                np.full(inst_lines.shape[0], _INSTALL, dtype=np.int8),
            )
        )
        m_flags = np.concatenate(
            (np.zeros(dem_lines.shape[0], dtype=bool), inst_flags)
        )
        m_pos = np.concatenate((dem_pos, inst_pos))
        if m_pos.shape[0] > 1:
            lo = int(m_pos.min())
            key = _narrow(m_pos - lo, int(m_pos.max()) - lo + 1)
        else:
            key = m_pos
        order = np.argsort(key, kind="stable")  # positions are unique
        lines = m_lines[order]
        kinds = m_kinds[order]
        flags = m_flags[order]
        pos = m_pos[order]
