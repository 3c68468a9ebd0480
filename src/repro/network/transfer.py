"""Point-to-point transfer helpers used by NetPIPE probes and the baselines.

These wrap :class:`~repro.network.fluid.FluidNetwork` in a convenient
synchronous interface: "run these transfers concurrently, tell me how long
each took and what bandwidth it achieved".  The saturation-tomography
baselines use exactly this to detect link interference (Fig. 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.fluid import FluidNetwork
from repro.network.routing import RoutingTable
from repro.network.topology import Topology


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one bulk transfer.

    Attributes
    ----------
    src, dst:
        Host names.
    size:
        Bytes transferred.
    duration:
        Wall-clock (simulated) seconds from common start to this transfer's
        completion.
    bandwidth:
        Achieved average bandwidth, bytes/second.
    """

    src: str
    dst: str
    size: float
    duration: float
    bandwidth: float


class PointToPointNetwork:
    """Synchronous facade for running sets of concurrent bulk transfers."""

    def __init__(self, topology: Topology, routing: Optional[RoutingTable] = None) -> None:
        self.topology = topology
        self.routing = routing or RoutingTable(topology)
        self.total_busy_time = 0.0
        self.total_bytes = 0.0
        self.measurements_run = 0

    def run_concurrent(
        self, requests: Sequence[Tuple[str, str, float]]
    ) -> List[TransferResult]:
        """Run ``(src, dst, size)`` transfers concurrently from a common start.

        Returns results in the order of ``requests``.  The simulated time
        consumed (completion of the slowest transfer) is accumulated in
        :attr:`total_busy_time`, which is how the baselines' measurement cost
        is accounted.
        """
        if not requests:
            return []
        network = FluidNetwork(self.topology, self.routing)
        transfers = network.start_transfers(
            [(src, dst, float(size), None) for src, dst, size in requests]
        )
        network.run_until_complete()
        results = []
        makespan = 0.0
        for transfer in transfers:
            duration = (transfer.finish_time or network.now) - transfer.start_time
            duration = max(duration, 1e-12)
            results.append(
                TransferResult(
                    src=transfer.src,
                    dst=transfer.dst,
                    size=transfer.size,
                    duration=duration,
                    bandwidth=transfer.size / duration,
                )
            )
            makespan = max(makespan, duration)
            self.total_bytes += transfer.size
        self.total_busy_time += makespan
        self.measurements_run += 1
        return results

    def measure_pair(self, src: str, dst: str, size: float) -> TransferResult:
        """Measure a single pair in isolation (a NetPIPE-style saturation probe)."""
        return self.run_concurrent([(src, dst, size)])[0]

    def measure_pairs_concurrently(
        self, pairs: Sequence[Tuple[str, str]], size: float
    ) -> Dict[Tuple[str, str], TransferResult]:
        """Measure several pairs simultaneously; used for interference probing."""
        results = self.run_concurrent([(src, dst, size) for src, dst in pairs])
        return {(r.src, r.dst): r for r in results}

    def isolated_bandwidth(self, src: str, dst: str) -> float:
        """Theoretical single-flow bandwidth: the bottleneck capacity of the route."""
        return self.routing.bottleneck_capacity(src, dst)
