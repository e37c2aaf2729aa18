"""Cartesian rank decompositions and their halo-exchange volumes.

A global grid is split into equal boxes, one per rank, along each axis
(YASK's MPI layer requires every split to divide its axis).  A star
stencil of radius ``r`` needs, per step, ``r`` layers of each face that
borders a neighbouring rank; that volume and the message count are all
the network model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod


@dataclass(frozen=True)
class RankDecomposition:
    """``global_shape`` split into ``ranks[i]`` equal slabs along axis ``i``.

    Axes are ordered slowest first, as everywhere in the project: the
    last axis is the unit-stride one.  Every split must divide its axis
    exactly; a remainder raises ``ValueError``.
    """

    global_shape: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "global_shape", tuple(self.global_shape))
        object.__setattr__(self, "ranks", tuple(self.ranks))
        if len(self.ranks) != len(self.global_shape):
            raise ValueError(
                f"{len(self.ranks)} rank counts for a "
                f"{len(self.global_shape)}-d grid"
            )
        if any(n <= 0 for n in self.global_shape):
            raise ValueError(f"invalid grid shape {self.global_shape}")
        if any(r <= 0 for r in self.ranks):
            raise ValueError(f"rank counts must be positive: {self.ranks}")
        for n, r in zip(self.global_shape, self.ranks):
            if n % r:
                raise ValueError(
                    f"{r} ranks do not divide an axis of {n} points "
                    f"(grid {self.global_shape}, split {self.ranks})"
                )

    @property
    def n_ranks(self) -> int:
        """Total number of ranks."""
        return prod(self.ranks)

    @property
    def local_shape(self) -> tuple[int, ...]:
        """Interior shape owned by each rank."""
        return tuple(n // r for n, r in zip(self.global_shape, self.ranks))

    @property
    def split_axes(self) -> tuple[int, ...]:
        """Axes cut by the decomposition (more than one rank along them)."""
        return tuple(i for i, r in enumerate(self.ranks) if r > 1)

    def neighbor_count(self) -> int:
        """Messages one rank sends per exchange: two per split axis.

        This is an interior rank's count (every rank's, with periodic
        boundaries); the busiest rank sets the step time.
        """
        return 2 * len(self.split_axes)

    def halo_points(self, radius: int) -> int:
        """Points one rank sends per step: ``2 * r`` face layers per split axis."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        local = self.local_shape
        volume = prod(local)
        return sum(2 * radius * (volume // local[a]) for a in self.split_axes)

    def exchange_bytes_per_step(self, radius: int, dtype_bytes: int = 8) -> int:
        """Bytes one rank sends per step, at ``dtype_bytes`` per point."""
        return self.halo_points(radius) * dtype_bytes

    def surface_to_volume(self, radius: int) -> float:
        """Halo points sent per step over the points each rank owns."""
        return self.halo_points(radius) / prod(self.local_shape)


def factorizations(n: int, dims: int) -> list[tuple[int, ...]]:
    """Every ordered ``dims``-tuple of positive integers whose product is ``n``."""
    if n <= 0 or dims <= 0:
        raise ValueError("n and dims must be positive")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [f for f in product(divisors, repeat=dims) if prod(f) == n]


def best_decomposition(
    global_shape: tuple[int, ...],
    n_ranks: int,
    radius: int,
) -> RankDecomposition:
    """The divisible split of ``global_shape`` over ``n_ranks`` with the least halo.

    Candidates are ranked by exchange volume, then by message count.
    Splits still tied (the permutations of one split on a cubic grid,
    say ``(4, 2, 1)`` and ``(1, 2, 4)`` for 128³ on 8 ranks) go to the
    one with the most ranks on the slowest axes, compared axis by axis:
    the unit-stride axis is cut last, because its faces are strided and
    must be packed before they are sent.  Raises ``ValueError`` when no
    split divides the grid.
    """
    global_shape = tuple(global_shape)
    best: RankDecomposition | None = None
    best_key: tuple | None = None
    for ranks in factorizations(n_ranks, len(global_shape)):
        if any(n % r for n, r in zip(global_shape, ranks)):
            continue
        decomp = RankDecomposition(global_shape, ranks)
        key = (
            decomp.halo_points(radius),
            decomp.neighbor_count(),
            tuple(-r for r in ranks),
        )
        if best_key is None or key < best_key:
            best, best_key = decomp, key
    if best is None:
        raise ValueError(
            f"no split of {global_shape} over {n_ranks} ranks divides the grid"
        )
    return best
