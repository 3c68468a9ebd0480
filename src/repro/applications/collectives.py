"""Topology-aware collective communication using the recovered clusters.

The paper's motivation (§I) is that MPI-style collectives on heterogeneous
networks profit substantially from knowing the logical bandwidth clusters, and
its future work (§V) proposes feeding the tomography output into communication
libraries.  This module closes that loop on the simulated substrate with two
collectives:

* **broadcast** — a root distributes an ``m``-byte message to every host;
* **allgather** — every host contributes an ``m``-byte block and must end up
  with all blocks.

For each collective a *topology-agnostic* schedule (every transfer goes
directly between the endpoints) is compared with a *cluster-aware* schedule
that routes data through one representative per logical cluster, so bulk data
crosses each inter-cluster bottleneck once instead of once per destination.
Completion times come from the same max-min fair fluid model used by the
measurement phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clustering.partition import Partition
from repro.network.fluid import FluidNetwork
from repro.network.routing import RoutingTable
from repro.network.topology import Topology


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one collective schedule.

    Attributes
    ----------
    operation:
        ``"broadcast"`` or ``"allgather"``.
    schedule:
        ``"flat"`` (topology-agnostic) or ``"cluster-aware"``.
    completion_time:
        Simulated seconds until the last host holds its full payload.
    phases:
        Per-phase makespans (a flat schedule has a single phase).
    total_bytes:
        Total bytes injected into the network by the schedule.
    """

    operation: str
    schedule: str
    completion_time: float
    phases: Tuple[float, ...]
    total_bytes: float


def _run_phase(
    topology: Topology,
    routing: RoutingTable,
    transfers: Sequence[Tuple[str, str, float]],
) -> Tuple[float, float]:
    """Run one phase of concurrent transfers; return (makespan, bytes)."""
    if not transfers:
        return 0.0, 0.0
    network = FluidNetwork(topology, routing)
    requests = [
        (src, dst, float(size), None)
        for src, dst, size in transfers
        if src != dst and size > 0
    ]
    network.start_transfers(requests)
    network.run_until_complete()
    return network.now, sum((size for _, _, size, _ in requests), 0.0)


def _representatives(partition: Partition, hosts: Sequence[str]) -> Dict[int, str]:
    """Pick one representative host per cluster (the lexicographically first)."""
    reps: Dict[int, str] = {}
    for host in sorted(hosts):
        idx = partition.cluster_index(host)
        reps.setdefault(idx, host)
    return reps


def _validate(topology: Topology, hosts: Sequence[str], message_size: float) -> List[str]:
    hosts = list(hosts)
    if len(hosts) < 2:
        raise ValueError("collectives need at least two hosts")
    unknown = [h for h in hosts if not topology.is_host(h)]
    if unknown:
        raise ValueError(f"unknown hosts: {unknown}")
    if message_size <= 0:
        raise ValueError("message_size must be positive")
    return hosts


# ---------------------------------------------------------------------- #
# broadcast
# ---------------------------------------------------------------------- #
def flat_broadcast(
    topology: Topology,
    hosts: Sequence[str],
    root: str,
    message_size: float,
    routing: Optional[RoutingTable] = None,
) -> CollectiveResult:
    """Topology-agnostic broadcast: the root sends to every host directly."""
    hosts = _validate(topology, hosts, message_size)
    if root not in hosts:
        raise ValueError(f"root {root!r} is not among the hosts")
    routing = routing or RoutingTable(topology)
    transfers = [(root, host, message_size) for host in hosts if host != root]
    makespan, total = _run_phase(topology, routing, transfers)
    return CollectiveResult(
        operation="broadcast",
        schedule="flat",
        completion_time=makespan,
        phases=(makespan,),
        total_bytes=total,
    )


def cluster_aware_broadcast(
    topology: Topology,
    hosts: Sequence[str],
    root: str,
    message_size: float,
    partition: Partition,
    routing: Optional[RoutingTable] = None,
) -> CollectiveResult:
    """Cluster-aware broadcast: inter-cluster once, then intra-cluster fan-out.

    Phase 1: the root sends the message to one representative per *other*
    logical cluster.  Phase 2: within every cluster, the local holder (root or
    representative) sends to the remaining members.  Bulk data therefore
    crosses each inter-cluster bottleneck exactly once.
    """
    hosts = _validate(topology, hosts, message_size)
    if root not in hosts:
        raise ValueError(f"root {root!r} is not among the hosts")
    missing = [h for h in hosts if h not in partition]
    if missing:
        raise ValueError(f"partition does not cover hosts: {missing[:3]}")
    routing = routing or RoutingTable(topology)

    reps = _representatives(partition, hosts)
    root_cluster = partition.cluster_index(root)
    reps[root_cluster] = root

    phase1 = [
        (root, rep, message_size)
        for cluster, rep in reps.items()
        if cluster != root_cluster
    ]
    makespan1, bytes1 = _run_phase(topology, routing, phase1)

    phase2 = []
    for host in hosts:
        cluster = partition.cluster_index(host)
        holder = reps[cluster]
        if host != holder:
            phase2.append((holder, host, message_size))
    makespan2, bytes2 = _run_phase(topology, routing, phase2)

    return CollectiveResult(
        operation="broadcast",
        schedule="cluster-aware",
        completion_time=makespan1 + makespan2,
        phases=(makespan1, makespan2),
        total_bytes=bytes1 + bytes2,
    )


# ---------------------------------------------------------------------- #
# allgather
# ---------------------------------------------------------------------- #
def naive_allgather(
    topology: Topology,
    hosts: Sequence[str],
    message_size: float,
    routing: Optional[RoutingTable] = None,
) -> CollectiveResult:
    """Topology-agnostic allgather: every host sends its block to every other."""
    hosts = _validate(topology, hosts, message_size)
    routing = routing or RoutingTable(topology)
    transfers = [
        (src, dst, message_size) for src in hosts for dst in hosts if src != dst
    ]
    makespan, total = _run_phase(topology, routing, transfers)
    return CollectiveResult(
        operation="allgather",
        schedule="flat",
        completion_time=makespan,
        phases=(makespan,),
        total_bytes=total,
    )


def cluster_aware_allgather(
    topology: Topology,
    hosts: Sequence[str],
    message_size: float,
    partition: Partition,
    routing: Optional[RoutingTable] = None,
) -> CollectiveResult:
    """Cluster-aware allgather via per-cluster representatives.

    Phase 1 (intra-cluster gather): members send their block to their cluster
    representative.  Phase 2 (inter-cluster exchange): representatives exchange
    their clusters' aggregated blocks.  Phase 3 (intra-cluster broadcast): each
    representative distributes the blocks of all *other* clusters to its
    members.  Only aggregated cluster blocks cross the inter-cluster links, so
    the data volume over a bottleneck drops from ``|A|·|B|`` blocks to
    ``|A| + |B|`` blocks.
    """
    hosts = _validate(topology, hosts, message_size)
    missing = [h for h in hosts if h not in partition]
    if missing:
        raise ValueError(f"partition does not cover hosts: {missing[:3]}")
    routing = routing or RoutingTable(topology)

    reps = _representatives(partition, hosts)
    members: Dict[int, List[str]] = {}
    for host in hosts:
        members.setdefault(partition.cluster_index(host), []).append(host)

    # Phase 1: gather each member's block at the representative.
    phase1 = []
    for cluster, rep in reps.items():
        for host in members[cluster]:
            if host != rep:
                phase1.append((host, rep, message_size))
    makespan1, bytes1 = _run_phase(topology, routing, phase1)

    # Phase 2: representatives exchange aggregated cluster blocks.
    phase2 = []
    for cluster_a, rep_a in reps.items():
        for cluster_b, rep_b in reps.items():
            if cluster_a == cluster_b:
                continue
            phase2.append((rep_a, rep_b, message_size * len(members[cluster_a])))
    makespan2, bytes2 = _run_phase(topology, routing, phase2)

    # Phase 3: representatives distribute the remote blocks inside the cluster.
    phase3 = []
    for cluster, rep in reps.items():
        remote_blocks = sum(len(m) for c, m in members.items() if c != cluster)
        for host in members[cluster]:
            if host != rep:
                phase3.append((rep, host, message_size * remote_blocks))
    makespan3, bytes3 = _run_phase(topology, routing, phase3)

    return CollectiveResult(
        operation="allgather",
        schedule="cluster-aware",
        completion_time=makespan1 + makespan2 + makespan3,
        phases=(makespan1, makespan2, makespan3),
        total_bytes=bytes1 + bytes2 + bytes3,
    )
