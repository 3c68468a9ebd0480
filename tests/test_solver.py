"""Equivalence and unit tests for the vectorized max-min solver.

The scalar progressive-filling implementation in ``tests/maxmin_oracle.py``
is the reference oracle; the vectorized :class:`~repro.network.solver.FlowSet`
must reproduce it on randomized instances — shared bottlenecks, rate caps,
loopback flows, every mix — and stay feasible under ``validate_allocation``.
Its two solve kernels, compiled and NumPy, must return bit-identical rates
after every mutation of generated flow-set histories, and a batched
``remove_many`` must leave the same state as one ``remove`` per slot.
"""

import numpy as np
import pytest
from conftest import LOADED_SOLVE_KERNEL
from hypothesis import example, given, settings, strategies as st
from maxmin_oracle import (
    FlowDemand,
    flow_set_allocation,
    max_min_fair_allocation_scalar,
    validate_allocation,
)

from repro import native
from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.network import solver
from repro.network.grid5000 import build_bordeaux_site
from repro.network.solver import FlowSet
from repro.tomography.pipeline import default_swarm_config

RELATIVE_TOL = 1e-6


def assert_allocations_match(flows, capacities):
    """Vectorized and scalar allocations agree and are feasible."""
    scalar = max_min_fair_allocation_scalar(flows, capacities)
    vectorized = flow_set_allocation(flows, capacities)
    assert set(scalar) == set(vectorized)
    for flow_id, reference in scalar.items():
        value = vectorized[flow_id]
        if np.isinf(reference):
            assert np.isinf(value)
        else:
            assert value == pytest.approx(reference, rel=RELATIVE_TOL, abs=1e-9)
    validate_allocation(flows, vectorized, capacities)


# --------------------------------------------------------------------- #
# FlowSet unit behaviour
# --------------------------------------------------------------------- #
class TestFlowSet:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlowSet([100.0, 0.0])

    def test_rejects_bad_rate_cap(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(ValueError):
            flow_set.add([0], rate_cap=0.0)

    def test_rejects_out_of_range_link(self):
        flow_set = FlowSet([10.0])
        for route in ([1], [-1], [0, -2]):
            with pytest.raises(IndexError):
                flow_set.add(route)
        assert len(flow_set) == 0

    def test_single_flow_takes_bottleneck(self):
        flow_set = FlowSet([100.0, 40.0])
        slot = flow_set.add([0, 1])
        assert flow_set.solve()[slot] == pytest.approx(40.0)

    def test_loopback_flow_unbounded(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([])
        assert np.isinf(flow_set.solve()[slot])

    def test_loopback_flow_with_cap(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([], rate_cap=3.0)
        assert flow_set.solve()[slot] == pytest.approx(3.0)

    def test_duplicate_links_count_once(self):
        flow_set = FlowSet([10.0])
        a = flow_set.add([0, 0, 0])
        b = flow_set.add([0])
        rates = flow_set.solve()
        assert rates[a] == pytest.approx(5.0)
        assert rates[b] == pytest.approx(5.0)

    def test_incremental_add_remove_matches_fresh_solve(self):
        """The maintained incidence equals a from-scratch build at every step."""
        rng = np.random.default_rng(7)
        capacities = rng.uniform(10.0, 200.0, size=12)
        flow_set = FlowSet(capacities)
        live = {}
        for step in range(120):
            if live and rng.random() < 0.4:
                slot = list(live)[int(rng.integers(0, len(live)))]
                flow_set.remove(slot)
                del live[slot]
            else:
                k = int(rng.integers(1, 5))
                route = rng.choice(12, size=k, replace=False)
                cap = None if rng.random() < 0.5 else float(rng.uniform(1.0, 80.0))
                live[flow_set.add(route, cap)] = (tuple(route), cap)
            assert len(flow_set) == len(live)
            rates = flow_set.solve()
            fresh = FlowSet(capacities)
            fresh_slots = {
                slot: fresh.add(route, cap) for slot, (route, cap) in live.items()
            }
            fresh_rates = fresh.solve()
            for slot, fresh_slot in fresh_slots.items():
                assert rates[slot] == pytest.approx(
                    fresh_rates[fresh_slot], rel=RELATIVE_TOL
                )

    def test_remove_unknown_slot_raises(self):
        flow_set = FlowSet([10.0])
        with pytest.raises(KeyError):
            flow_set.remove(0)

    def test_remove_many_rejects_duplicate_or_inactive_slots_unchanged(self):
        flow_set = FlowSet([10.0, 20.0])
        slots = [flow_set.add([0]), flow_set.add([0, 1]), flow_set.add([], 3.0)]
        freed = flow_set.add([1])
        flow_set.remove(freed)

        def state():
            count = flow_set._entry_count
            return (
                flow_set._active.tolist(), flow_set._has_links.tolist(),
                flow_set._rate_caps.tolist(), list(flow_set._free),
                flow_set._entry_link[:count].tolist(),
                flow_set._entry_flow[:count].tolist(),
                flow_set.num_flows, flow_set.solve().tolist(),
            )

        before = state()
        for bad in ([slots[0], slots[0]], [slots[1], freed], [slots[2], 99], [-1]):
            with pytest.raises(KeyError):
                flow_set.remove_many(bad)
            assert state() == before
        flow_set.remove_many([])
        assert state() == before

    def test_slot_recycling_after_remove(self):
        flow_set = FlowSet([10.0])
        slot = flow_set.add([0])
        flow_set.remove(slot)
        again = flow_set.add([0])
        assert flow_set.solve()[again] == pytest.approx(10.0)

    def test_pool_growth_beyond_initial_capacity(self):
        flow_set = FlowSet([1000.0])
        slots = [flow_set.add([0]) for _ in range(100)]
        rates = flow_set.solve()
        for slot in slots:
            assert rates[slot] == pytest.approx(10.0)


# --------------------------------------------------------------------- #
# equivalence with the scalar oracle
# --------------------------------------------------------------------- #
class TestScalarEquivalence:
    def test_shared_bottleneck_with_caps_and_loopbacks(self):
        flows = [
            FlowDemand("a", ("access0", "core")),
            FlowDemand("b", ("access1", "core"), rate_cap=2.0),
            FlowDemand("c", ("access2", "core")),
            FlowDemand("loop", (), rate_cap=5.0),
            FlowDemand("free", ()),
            FlowDemand("d", ("access0",)),
            FlowDemand("e", ("access1",)),
            FlowDemand("f", ("access2", "core")),
            FlowDemand("g", ("core",)),
            FlowDemand("h", ("core",), rate_cap=0.5),
        ]
        capacities = {"core": 12.0, "access0": 8.0, "access1": 6.0, "access2": 9.0}
        assert_allocations_match(flows, capacities)

    def test_many_flows_through_bottleneck(self):
        n = 64
        flows = [FlowDemand(f"f{i}", (f"acc{i}", "core")) for i in range(n)]
        capacities = {"core": 125e6}
        capacities.update({f"acc{i}": 111e6 for i in range(n)})
        assert_allocations_match(flows, capacities)


@st.composite
def random_scenario(draw):
    num_links = draw(st.integers(min_value=1, max_value=8))
    link_names = [f"L{i}" for i in range(num_links)]
    capacities = {
        name: draw(st.floats(min_value=1.0, max_value=1000.0)) for name in link_names
    }
    num_flows = draw(st.integers(min_value=1, max_value=40))
    flows = []
    for i in range(num_flows):
        if draw(st.booleans()) or num_links == 0:
            k = draw(st.integers(min_value=1, max_value=num_links))
            links = tuple(draw(st.permutations(link_names))[:k])
        else:
            links = ()
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=500.0)))
        flows.append(FlowDemand(f"f{i}", links, rate_cap=cap))
    return flows, capacities


def star_of_sites_scenario(num_flows, core_links=32, seed=2012):
    """Per-flow access links feeding shared cores, with quantized TCP-window
    rate caps: the contention shape ``benchmarks/test_bench_solver_scale.py``
    times at 10^2 - 10^4 flows."""
    rng = np.random.default_rng(seed)
    rate_caps = (None, 98e6, 105e6, 131e6)
    capacities = {f"access{i}": 111e6 for i in range(num_flows)}
    capacities.update({f"core{i}": 1.25e9 for i in range(core_links)})
    flows = []
    for i in range(num_flows):
        src_core = int(rng.integers(0, core_links))
        dst_core = int(rng.integers(0, core_links))
        links = (f"access{i}", f"core{src_core}")
        if dst_core != src_core:
            links += (f"core{dst_core}",)
        cap = rate_caps[int(rng.integers(0, len(rate_caps)))]
        flows.append(FlowDemand(i, links, rate_cap=cap))
    return flows, capacities


@given(random_scenario())
@example(star_of_sites_scenario(100))
@settings(max_examples=120, deadline=None)
def test_vectorized_matches_scalar_randomized(scenario):
    flows, capacities = scenario
    assert_allocations_match(flows, capacities)


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_vectorized_rates_positive_and_complete(scenario):
    flows, capacities = scenario
    rates = flow_set_allocation(flows, capacities)
    assert set(rates) == {flow.flow_id for flow in flows}
    for rate in rates.values():
        assert rate > 0


# --------------------------------------------------------------------- #
# compiled solve kernel == NumPy solve kernel, bit for bit
# --------------------------------------------------------------------- #
needs_compiler = pytest.mark.skipif(
    LOADED_SOLVE_KERNEL.name != "c",
    reason="compiled solve kernel unavailable on this platform",
)

#: Capacities and caps drawn from a few round values as well as at random,
#: so fair shares tie, caps land exactly on them and links saturate together.
ROUND_VALUES = (1.0, 2.0, 3.0, 10.0, 12.5, 1e9 / 3)
amounts = st.one_of(
    st.sampled_from(ROUND_VALUES), st.floats(min_value=0.25, max_value=1e4)
)


@st.composite
def flow_set_history(draw):
    """Link capacities and a sequence of FlowSet mutations.

    A history opens with a burst of adds (so the pool grows past its initial
    8 slots), then interleaves adds, single and batched removes (so slots are
    recycled) with link-capacity changes.  Flows mix finite rate caps with
    uncapped ones, and link-free loopback flows, with and without caps, ride
    along.
    """
    num_links = draw(st.integers(min_value=1, max_value=12))
    capacities = [draw(amounts) for _ in range(num_links)]
    links = st.integers(min_value=0, max_value=num_links - 1)
    add = st.tuples(
        st.just("add"),
        st.one_of(st.just([]), st.lists(links, min_size=1, max_size=5)),
        st.one_of(st.none(), amounts),
    )
    mutation = st.one_of(
        add,
        st.tuples(st.just("remove"), st.integers(min_value=0), st.none()),
        st.tuples(
            st.just("remove_many"),
            st.lists(st.integers(min_value=0), min_size=1, max_size=6),
            st.none(),
        ),
        st.tuples(st.just("capacity"), links, amounts),
    )
    burst = draw(st.lists(add, min_size=1, max_size=24))
    return capacities, burst + draw(st.lists(mutation, max_size=40))


@needs_compiler
@given(flow_set_history())
# Fused into one FMA, remaining - inc * count rounds differently here.
@example(([1.0, 1.25], [("add", [0], None), ("add", [0, 1], None),
                        ("add", [1], None), ("add", [0, 1], None)]))
@settings(max_examples=200, deadline=None)
def test_compiled_solve_is_bit_identical_to_numpy(history):
    """After every mutation the compiled solve equals the NumPy solve bit for
    bit, and a flow set that takes each ``remove_many`` as one ``remove`` per
    slot holds the same slots and the same rates."""
    capacities, mutations = history
    flow_set = FlowSet(capacities)
    one_by_one = FlowSet(capacities)
    live = []
    for kind, first, second in mutations:
        if kind == "add":
            slot = flow_set.add(first, second)
            assert one_by_one.add(first, second) == slot
            live.append(slot)
        elif kind == "remove" and live:
            slot = live.pop(first % len(live))
            flow_set.remove(slot)
            one_by_one.remove(slot)
        elif kind == "remove_many" and live:
            positions = sorted({i % len(live) for i in first}, reverse=True)
            slots = [live.pop(i) for i in positions]
            flow_set.remove_many(slots)
            for slot in slots:
                one_by_one.remove(slot)
        elif kind == "capacity":
            flow_set.set_link_capacity(first, second)
            one_by_one.set_link_capacity(first, second)
        compiled = LOADED_SOLVE_KERNEL.solve(flow_set).view(np.int64).tolist()
        assert compiled == solver.solve_python(flow_set).view(np.int64).tolist()
        assert compiled == LOADED_SOLVE_KERNEL.solve(one_by_one).view(np.int64).tolist()


def broadcast_records(solve_kernel, monkeypatch):
    """Trace and fragment matrix of one broadcast under ``solve_kernel``."""
    monkeypatch.setattr(solver, "KERNEL", solve_kernel)
    topology = build_bordeaux_site(bordeplage=3, bordereau=3, borderline=2)
    broadcast = BitTorrentBroadcast(topology, default_swarm_config(120))
    trace = []
    result = broadcast.run(rng=np.random.default_rng(21), trace=trace)
    return trace, result.fragments.counts.tolist(), result.completion_times


def test_failed_build_falls_back_with_one_warning(tmp_path, monkeypatch):
    with pytest.warns(RuntimeWarning, match="Python fallback") as warned:
        kernel = native.load_kernel(
            solver.SOURCE, solver.load, solver.PYTHON_KERNEL,
            compiler=str(tmp_path / "no-such-compiler"), cache_dir=tmp_path / "cache",
        )
    assert len(warned) == 1
    assert kernel is solver.PYTHON_KERNEL
    assert broadcast_records(kernel, monkeypatch) == broadcast_records(
        LOADED_SOLVE_KERNEL, monkeypatch
    )
