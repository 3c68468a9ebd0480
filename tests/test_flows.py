"""Unit and property tests for max-min fair bandwidth allocation.

Every hand-computed case runs against both the scalar oracle and the
production :class:`~repro.network.solver.FlowSet` (through its named-flow
adapter), so the expected numbers pin both implementations.
"""

import pytest
from hypothesis import given, settings, strategies as st
from maxmin_oracle import (
    FlowDemand,
    flow_set_allocation,
    link_utilisation,
    max_min_fair_allocation_scalar,
    validate_allocation,
)

ALLOCATORS = (max_min_fair_allocation_scalar, flow_set_allocation)


def allocations(flows, capacities):
    """The allocation of ``flows`` by each implementation in turn."""
    return [allocate(flows, capacities) for allocate in ALLOCATORS]


class TestBasicAllocation:
    def test_single_flow_gets_bottleneck_capacity(self):
        flows = [FlowDemand("f", ("l1", "l2"))]
        for rates in allocations(flows, {"l1": 100.0, "l2": 40.0}):
            assert rates["f"] == pytest.approx(40.0)

    def test_two_flows_share_a_link_equally(self):
        flows = [FlowDemand("a", ("shared",)), FlowDemand("b", ("shared",))]
        for rates in allocations(flows, {"shared": 100.0}):
            assert rates["a"] == pytest.approx(50.0)
            assert rates["b"] == pytest.approx(50.0)

    def test_unequal_paths_give_max_min_solution(self):
        # Classic example: flow A uses links 1+2, flow B only link 1, flow C only link 2.
        flows = [
            FlowDemand("a", ("l1", "l2")),
            FlowDemand("b", ("l1",)),
            FlowDemand("c", ("l2",)),
        ]
        for rates in allocations(flows, {"l1": 10.0, "l2": 10.0}):
            assert rates["a"] == pytest.approx(5.0)
            assert rates["b"] == pytest.approx(5.0)
            assert rates["c"] == pytest.approx(5.0)

    def test_freed_capacity_goes_to_unconstrained_flows(self):
        flows = [
            FlowDemand("a", ("narrow", "wide")),
            FlowDemand("b", ("wide",)),
        ]
        for rates in allocations(flows, {"narrow": 2.0, "wide": 10.0}):
            assert rates["a"] == pytest.approx(2.0)
            assert rates["b"] == pytest.approx(8.0)

    def test_rate_cap_is_respected(self):
        flows = [FlowDemand("a", ("l",), rate_cap=3.0), FlowDemand("b", ("l",))]
        for rates in allocations(flows, {"l": 10.0}):
            assert rates["a"] == pytest.approx(3.0)
            assert rates["b"] == pytest.approx(7.0)

    def test_flow_without_links_or_cap_is_unbounded(self):
        flows = [FlowDemand("loop", ())]
        for rates in allocations(flows, {}):
            assert rates["loop"] == float("inf")

    def test_flow_without_links_with_cap(self):
        flows = [FlowDemand("loop", (), rate_cap=5.0)]
        for rates in allocations(flows, {}):
            assert rates["loop"] == pytest.approx(5.0)

    def test_empty_flow_list(self):
        assert allocations([], {"l": 1.0}) == [{}, {}]

    def test_unknown_link_raises(self):
        for allocate in ALLOCATORS:
            with pytest.raises(KeyError):
                allocate([FlowDemand("a", ("ghost",))], {"l": 1.0})

    def test_non_positive_capacity_raises(self):
        for allocate in ALLOCATORS:
            with pytest.raises(ValueError):
                allocate([FlowDemand("a", ("l",))], {"l": 0.0})

    def test_duplicate_flow_ids_raise(self):
        flows = [FlowDemand("a", ("l",)), FlowDemand("a", ("l",))]
        for allocate in ALLOCATORS:
            with pytest.raises(ValueError):
                allocate(flows, {"l": 1.0})

    def test_invalid_rate_cap_rejected(self):
        with pytest.raises(ValueError):
            FlowDemand("a", ("l",), rate_cap=0.0)

    def test_many_flows_through_bottleneck(self):
        n = 32
        flows = [FlowDemand(f"f{i}", ("access" + str(i), "bottleneck")) for i in range(n)]
        capacities = {"bottleneck": 125e6}
        capacities.update({f"access{i}": 111e6 for i in range(n)})
        for rates in allocations(flows, capacities):
            for rate in rates.values():
                assert rate == pytest.approx(125e6 / n, rel=1e-6)

    def test_link_utilisation(self):
        flows = [FlowDemand("a", ("l",)), FlowDemand("b", ("l",))]
        for rates in allocations(flows, {"l": 10.0}):
            util = link_utilisation(flows, rates, {"l": 10.0})
            assert util["l"] == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------- #
@st.composite
def random_scenario(draw):
    num_links = draw(st.integers(min_value=1, max_value=6))
    link_names = [f"L{i}" for i in range(num_links)]
    capacities = {
        name: draw(st.floats(min_value=1.0, max_value=1000.0)) for name in link_names
    }
    num_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for i in range(num_flows):
        k = draw(st.integers(min_value=1, max_value=num_links))
        links = tuple(draw(st.permutations(link_names))[:k])
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0)))
        flows.append(FlowDemand(f"f{i}", links, rate_cap=cap))
    return flows, capacities


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_allocation_is_always_feasible(scenario):
    flows, capacities = scenario
    for rates in allocations(flows, capacities):
        validate_allocation(flows, rates, capacities)


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_allocation_rates_are_positive(scenario):
    flows, capacities = scenario
    for rates in allocations(flows, capacities):
        assert set(rates) == {f.flow_id for f in flows}
        for rate in rates.values():
            assert rate > 0


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_every_flow_hits_a_binding_constraint(scenario):
    """Max-min property: each flow is limited by a saturated link or its cap."""
    flows, capacities = scenario
    for rates in allocations(flows, capacities):
        utilisation = link_utilisation(flows, rates, capacities)
        for flow in flows:
            rate = rates[flow.flow_id]
            capped = flow.rate_cap is not None and rate >= flow.rate_cap - 1e-6
            on_saturated_link = any(
                utilisation[link] >= 1.0 - 1e-6 for link in set(flow.links)
            )
            unbounded = not flow.links and flow.rate_cap is None
            assert capped or on_saturated_link or unbounded
