"""Alpha-beta network model for halo exchanges between nodes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Latency plus bytes over bandwidth, capped by the node's injection rate.

    Parameters
    ----------
    latency_us:
        Per-message latency (alpha), in microseconds.
    bandwidth_gbs:
        Point-to-point bandwidth of one message (1/beta), in GB/s.
    injection_gbs:
        Rate at which one node can push bytes into the network, shared
        by all its messages in flight, in GB/s.

    The defaults describe a 100 Gb/s-class interconnect: 1.5 µs,
    12 GB/s per message and 24 GB/s per node.
    """

    latency_us: float = 1.5
    bandwidth_gbs: float = 12.0
    injection_gbs: float = 24.0

    def __post_init__(self) -> None:
        if self.latency_us < 0:
            raise ValueError("latency_us must be non-negative")
        if self.bandwidth_gbs <= 0 or self.injection_gbs <= 0:
            raise ValueError("bandwidth_gbs and injection_gbs must be positive")

    def message_seconds(self, n_bytes: float) -> float:
        """Time of one message alone: ``latency + n_bytes / bandwidth``."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return self.latency_us * 1e-6 + n_bytes / (self.bandwidth_gbs * 1e9)

    def exchange_seconds(self, total_bytes: float, n_messages: int) -> float:
        """Time of one exchange of ``n_messages`` equal messages posted at once.

        The messages travel concurrently, so the exchange costs one
        latency plus the longer of one message's transfer and the
        node's injection of all ``total_bytes``::

            latency + max(total / n / bandwidth, total / injection)

        No messages cost nothing.
        """
        if total_bytes < 0 or n_messages < 0:
            raise ValueError("total_bytes and n_messages must be non-negative")
        if n_messages == 0:
            if total_bytes:
                raise ValueError(f"{total_bytes} bytes need at least one message")
            return 0.0
        transfer = max(
            total_bytes / n_messages / (self.bandwidth_gbs * 1e9),
            total_bytes / (self.injection_gbs * 1e9),
        )
        return self.latency_us * 1e-6 + transfer
