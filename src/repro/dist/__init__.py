"""YASK-style MPI layer model: rank decompositions, halo exchanges and
distributed weak/strong scaling built on the node-level ECM model."""

from repro.dist.decompose import RankDecomposition, best_decomposition
from repro.dist.network import NetworkModel
from repro.dist.scaling import DistributedPrediction, predict_distributed

__all__ = [
    "RankDecomposition",
    "best_decomposition",
    "NetworkModel",
    "DistributedPrediction",
    "predict_distributed",
]
