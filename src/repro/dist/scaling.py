"""Distributed step-time prediction: the node's ECM rate plus halo exchanges.

Each rank is one node running the analytically blocked kernel on its
local grid at the node's multicore ECM rate; every step it then
exchanges its halo.  Compute and exchange are not overlapped, so

    step = compute + exchange,   efficiency = compute / step,

and the communication share is ``1 - efficiency``.  Efficiency is thus
measured against ideal scaling of the local grid's own node rate, the
quantity both weak and strong scaling lose to the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.blocking.spatial import analytic_block_selection
from repro.dist.decompose import RankDecomposition, best_decomposition
from repro.dist.network import NetworkModel
from repro.ecm.multicore import scaling_curve
from repro.machine.machine import Machine
from repro.stencil.spec import StencilSpec


@dataclass(frozen=True)
class DistributedPrediction:
    """Predicted time of one distributed step and what it adds up to."""

    decomposition: RankDecomposition
    compute_seconds: float
    comm_seconds: float

    @property
    def step_seconds(self) -> float:
        """Wall time of one step: compute, then exchange."""
        return self.compute_seconds + self.comm_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Share of the step spent computing (1.0 on one rank)."""
        return self.compute_seconds / self.step_seconds

    @property
    def comm_fraction(self) -> float:
        """Share of the step spent exchanging halos."""
        return self.comm_seconds / self.step_seconds

    @property
    def total_mlups(self) -> float:
        """Lattice updates per second over all ranks, in millions."""
        points = prod(self.decomposition.global_shape)
        return points / self.step_seconds / 1e6


def predict_distributed(
    spec: StencilSpec,
    global_shape: tuple[int, ...],
    n_ranks: int,
    machine: Machine,
    network: NetworkModel | None = None,
    decomposition: RankDecomposition | None = None,
) -> DistributedPrediction:
    """Predict one step of ``spec`` on ``global_shape`` over ``n_ranks`` nodes.

    ``network`` defaults to :class:`NetworkModel`'s 100 Gb/s-class
    constants and ``decomposition`` to :func:`best_decomposition`; a
    given decomposition must split this grid over ``n_ranks`` ranks, or
    ``ValueError`` is raised.  The node rate is the multicore ECM
    ceiling at ``machine.cores`` of the block that
    :func:`analytic_block_selection` picks for the local grid; each
    rank sends one field's halo (the stencil's radius, its element
    width) per step.
    """
    global_shape = tuple(global_shape)
    if len(global_shape) != spec.dim:
        raise ValueError(
            f"{len(global_shape)}-d grid for a {spec.dim}-d stencil"
        )
    if decomposition is None:
        decomposition = best_decomposition(global_shape, n_ranks, spec.radius)
    elif (
        decomposition.n_ranks != n_ranks
        or decomposition.global_shape != global_shape
    ):
        raise ValueError(
            f"decomposition {decomposition.ranks} of "
            f"{decomposition.global_shape} does not split {global_shape} "
            f"over {n_ranks} ranks"
        )
    if network is None:
        network = NetworkModel()
    local = decomposition.local_shape
    choice = analytic_block_selection(spec, local, machine)
    node = scaling_curve(choice.prediction, machine.mem_bw_gbs, machine.cores)
    return DistributedPrediction(
        decomposition=decomposition,
        compute_seconds=prod(local) / (node[-1].mlups * 1e6),
        comm_seconds=network.exchange_seconds(
            decomposition.exchange_bytes_per_step(
                spec.radius, spec.dtype_bytes
            ),
            decomposition.neighbor_count(),
        ),
    )
