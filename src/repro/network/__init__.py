"""Flow-level network substrate standing in for the Grid'5000 testbed.

The paper measures real hardware; this package provides the synthetic
equivalent: explicit topologies (hosts, switches, links with capacities),
shortest-path routing, and max-min fair bandwidth sharing among concurrent
flows.  That fluid abstraction is exactly what produces the phenomenon the
paper's metric exploits — flows crossing a shared bottleneck get a small
share of it, so BitTorrent moves fewer fragments across the bottleneck.
"""

from repro.network.topology import Host, Link, Switch, Topology, TopologyError
from repro.network.routing import RoutingTable
from repro.network.fluid import FluidNetwork, FluidTransfer
from repro.network.transfer import PointToPointNetwork, TransferResult
from repro.network.grid5000 import (
    GRID5000_SITES,
    Grid5000Builder,
    SiteSpec,
    build_bordeaux_site,
    build_flat_site,
    build_multi_site,
)

__all__ = [
    "Host",
    "Link",
    "Switch",
    "Topology",
    "TopologyError",
    "RoutingTable",
    "FluidNetwork",
    "FluidTransfer",
    "PointToPointNetwork",
    "TransferResult",
    "GRID5000_SITES",
    "Grid5000Builder",
    "SiteSpec",
    "build_bordeaux_site",
    "build_flat_site",
    "build_multi_site",
]
