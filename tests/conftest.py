"""Shared fixtures for the test suite.

Fixtures keep simulated configurations deliberately small (a handful of hosts,
a few hundred fragments) so that the whole suite runs in well under a minute;
the benchmark harness exercises the larger, paper-scale settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bittorrent import conversion
from repro.bittorrent.swarm import SwarmConfig
from repro.network import solver
from repro.graph.wgraph import WeightedGraph
from repro.network.grid5000 import Grid5000Builder, build_multi_site, default_cluster_of
from repro.network.routing import RoutingTable
from repro.network.topology import GBPS, MBPS, Host, Switch, Topology
from repro.tomography.pipeline import default_swarm_config


# --------------------------------------------------------------------- #
# topologies
# --------------------------------------------------------------------- #
@pytest.fixture
def dumbbell_topology() -> Topology:
    """Two 3-host clusters joined by a narrow inter-switch link.

    The canonical bottleneck scenario: intra-cluster links are 10× faster
    than the shared inter-cluster link.
    """
    topo = Topology(name="dumbbell")
    topo.add_switch(Switch(name="sw-left", site="left"))
    topo.add_switch(Switch(name="sw-right", site="right"))
    for side, switch in (("left", "sw-left"), ("right", "sw-right")):
        for i in range(3):
            host = topo.add_host(Host(name=f"{side}-{i}", site=side, cluster=side))
            topo.add_link(host.name, switch, capacity=100 * MBPS, latency=5e-5)
    topo.add_link("sw-left", "sw-right", capacity=10 * MBPS, latency=1e-4,
                  name="bottleneck")
    return topo


@pytest.fixture
def line_topology() -> Topology:
    """Three hosts in a row through two switches (multi-hop routing checks)."""
    topo = Topology(name="line")
    topo.add_switch(Switch(name="s1"))
    topo.add_switch(Switch(name="s2"))
    for name in ("a", "b", "c"):
        topo.add_host(Host(name=name, site="line", cluster="line"))
    topo.add_link("a", "s1", capacity=50 * MBPS)
    topo.add_link("b", "s1", capacity=50 * MBPS)
    topo.add_link("s1", "s2", capacity=25 * MBPS, name="trunk")
    topo.add_link("c", "s2", capacity=50 * MBPS)
    return topo


@pytest.fixture
def bordeaux_small() -> Topology:
    """A small Bordeaux-like site: 4 Bordeplage + 3 Bordereau + 1 Borderline."""
    builder = Grid5000Builder()
    return builder.build_single_site(
        "bordeaux", {"bordeplage": 4, "bordereau": 3, "borderline": 1}
    )


@pytest.fixture
def two_site_topology() -> Topology:
    """4 Grenoble + 4 Toulouse hosts over the Renater-like backbone."""
    return build_multi_site(
        {
            "grenoble": {default_cluster_of("grenoble"): 4},
            "toulouse": {default_cluster_of("toulouse"): 4},
        }
    )


@pytest.fixture
def routing(dumbbell_topology) -> RoutingTable:
    return RoutingTable(dumbbell_topology)


# --------------------------------------------------------------------- #
# swarm configurations
# --------------------------------------------------------------------- #
@pytest.fixture
def tiny_swarm_config() -> SwarmConfig:
    """A very small torrent for fast unit tests of the swarm."""
    return default_swarm_config(120)


@pytest.fixture
def small_swarm_config() -> SwarmConfig:
    return default_swarm_config(300)


# --------------------------------------------------------------------- #
# compiled kernels
# --------------------------------------------------------------------- #
#: The kernels the package loaded at import (fragment conversion and the
#: max-min solve): the compiled ones unless a build or load failed on this
#: platform.
LOADED_KERNEL = conversion.KERNEL
LOADED_SOLVE_KERNEL = solver.KERNEL


def over_kernels(argname, values):
    """Parametrize ``argname`` over ``values`` on both kernel sets.

    The compiled kernels keep the bare ids (``test_x[event]``); the Python
    fallbacks run as ``test_x[event-python]``.  Pairs with :func:`kernel`.
    """
    return pytest.mark.parametrize(
        (argname, "kernel"),
        [
            pytest.param(value, name, id=value if name == "c" else f"{value}-{name}")
            for name in ("c", "python")
            for value in values
        ],
        indirect=["kernel"],
    )


@pytest.fixture
def kernel(request, monkeypatch) -> str:
    """Route conversion and solve of every broadcast through the named kernels."""
    name = request.param
    if name == "python":
        monkeypatch.setattr(conversion, "KERNEL", conversion.PYTHON_KERNEL)
        monkeypatch.setattr(solver, "KERNEL", solver.PYTHON_KERNEL)
    elif LOADED_KERNEL.name != "c" or LOADED_SOLVE_KERNEL.name != "c":
        pytest.skip("compiled kernels unavailable on this platform")
    else:
        monkeypatch.setattr(conversion, "KERNEL", LOADED_KERNEL)
        monkeypatch.setattr(solver, "KERNEL", LOADED_SOLVE_KERNEL)
    return name


# --------------------------------------------------------------------- #
# graphs
# --------------------------------------------------------------------- #
@pytest.fixture
def two_community_graph() -> WeightedGraph:
    """Two dense 4-node cliques joined by one weak edge."""
    graph = WeightedGraph()
    left = [f"l{i}" for i in range(4)]
    right = [f"r{i}" for i in range(4)]
    for group in (left, right):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                graph.add_edge(group[i], group[j], 10.0)
    graph.add_edge("l0", "r0", 1.0)
    return graph


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
