"""Scaling benchmark for the vectorized max-min solver.

Times :meth:`repro.network.solver.FlowSet.solve` on synthetic multi-site
contention patterns at 10² – 10⁴ concurrent flows (the fluid engine calls
this on every pipe open/close and every control step, so its throughput
bounds the whole broadcast simulation), and cross-checks the smallest scale
against the scalar reference oracle in ``tests/maxmin_oracle.py``.
"""

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.network.solver import FlowSet
from tests.maxmin_oracle import FlowDemand, max_min_fair_allocation_scalar

#: Number of shared core links every flow competes on (star-of-sites shape).
CORE_LINKS = 32

#: Discrete per-flow TCP-window rate caps (quantized like real RTT classes).
RATE_CAPS = (None, 98e6, 105e6, 131e6)


def build_scenario(num_flows: int, seed: int = 2012):
    """Synthetic contention: per-flow access links feeding shared cores."""
    rng = np.random.default_rng(seed)
    num_links = num_flows + CORE_LINKS
    capacities = np.empty(num_links, dtype=np.float64)
    capacities[:num_flows] = 111e6          # access links, one per flow
    capacities[num_flows:] = 1.25e9          # shared core links
    routes = []
    caps = []
    for flow in range(num_flows):
        src_core = num_flows + int(rng.integers(0, CORE_LINKS))
        dst_core = num_flows + int(rng.integers(0, CORE_LINKS))
        route = [flow, src_core]
        if dst_core != src_core:
            route.append(dst_core)
        routes.append(route)
        caps.append(RATE_CAPS[int(rng.integers(0, len(RATE_CAPS)))])
    return capacities, routes, caps


def solve_once(capacities, routes, caps):
    flow_set = FlowSet(capacities)
    for route, cap in zip(routes, caps):
        flow_set.add(route, cap, assume_unique=True)
    return flow_set.solve()


@pytest.mark.parametrize("num_flows", [100, 1_000, 10_000])
def test_solver_scales_to_many_flows(benchmark, num_flows):
    capacities, routes, caps = build_scenario(num_flows)
    rates = benchmark(solve_once, capacities, routes, caps)

    active = rates[rates > 0]
    assert active.size == num_flows
    # Feasibility: shared cores must not be oversubscribed.
    load = np.zeros(capacities.size)
    for route, rate in zip(routes, rates):
        load[route] += rate
    assert (load <= capacities * (1 + 1e-6)).all()

    mean = benchmark.stats.stats.mean
    report(
        f"solver scale — {num_flows} flows",
        {
            "mean solve wall-clock (ms)": f"{mean * 1e3:.3f}",
            "throughput (flows/s)": f"{num_flows / mean:,.0f}",
        },
    )


def test_vectorized_solver_matches_scalar_oracle_at_100_flows():
    capacities, routes, caps = build_scenario(100)
    rates = solve_once(capacities, routes, caps)
    link_names = [f"L{i}" for i in range(capacities.size)]
    flows = [
        FlowDemand(i, tuple(link_names[j] for j in route), rate_cap=cap)
        for i, (route, cap) in enumerate(zip(routes, caps))
    ]
    reference = max_min_fair_allocation_scalar(
        flows, dict(zip(link_names, capacities))
    )
    for i in range(100):
        assert rates[i] == pytest.approx(reference[i], rel=1e-6)
