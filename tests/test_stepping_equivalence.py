"""Fixed-dt vs event-stepped control loop: exact equivalence suite.

The event-stepped swarm loop (``SwarmConfig.stepping="event"``) must be a
pure scheduling optimisation: on every registered scenario it has to replay
the fixed-dt oracle *bit for bit* — the same fragment-completion event
sequence (every ``(time, downloader, uploader, fragment)`` receipt, in
order), the same per-peer download totals, the same per-host completion
times, and therefore the same pipeline bottleneck matrices.  Any divergence
means a control point was skipped that the oracle acted at (or visited with
different anchored byte state), which is exactly the class of bug the jump
predicates in ``bittorrent/swarm.py`` must never introduce.

The scenarios cover the distinct control regimes: the slot-saturated 2x2
(long inert stretches — the event mode actually jumps), the B-T multi-site
WAN campaign (churny control plane, TCP rate caps), and the oversubscribed
fat-tree from the beyond-paper families.  A fine-``control_dt`` case pins
the high-fidelity regime where the event mode's jumps are largest and its
grid arithmetic is most exposed to float-edge mistakes.  The scenario
tests run on both kernel sets, fragment conversion and max-min solve
(``[2x2]`` compiled, ``[2x2-python]`` the fallbacks).  A property test then
draws small multi-site swarms (sites, hosts per site, file size, seed,
rechoke interval) and checks fragment conservation and mode equivalence on
pipe-table shapes the hand-picked scenarios do not reach.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import over_kernels
from hypothesis import assume, given, settings, strategies as st

from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.network.grid5000 import build_multi_site, default_cluster_of
from repro.scenarios import get_scenario
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config

#: Registered scenarios the suite replays, with laptop-scale overrides.
SCENARIOS = {
    "2x2": {},
    "B-T": {"per_site": 4},
    "FATTREE-4x4": {"racks": 3, "hosts_per_rack": 3},
}


def _dataset(name):
    spec = get_scenario(name)
    return spec.build_dataset(**SCENARIOS[name])


def _run_broadcast(ds, config, seed):
    trace = []
    broadcast = BitTorrentBroadcast(ds.topology, config, hosts=ds.hosts)
    result = broadcast.run(rng=np.random.default_rng(seed), trace=trace)
    return result, trace


@over_kernels("name", sorted(SCENARIOS))
def test_fragment_completion_sequences_identical(name, kernel):
    """Both modes produce the identical receipt-event sequence."""
    ds = _dataset(name)
    results = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(240, stepping=stepping)
        results[stepping] = _run_broadcast(ds, config, seed=31)
    fixed_result, fixed_trace = results["fixed"]
    event_result, event_trace = results["event"]

    assert event_trace == fixed_trace
    assert event_result.completion_times == fixed_result.completion_times
    assert event_result.duration == fixed_result.duration
    assert np.array_equal(
        event_result.fragments.counts, fixed_result.fragments.counts
    )


@over_kernels("name", sorted(SCENARIOS))
def test_per_peer_download_totals_identical(name, kernel):
    """Per-peer totals (row sums of the directed matrix) match exactly."""
    ds = _dataset(name)
    totals = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(180, stepping=stepping)
        result, _ = _run_broadcast(ds, config, seed=77)
        totals[stepping] = {
            host: sum(result.fragments.received_by(host).values())
            for host in result.hosts
        }
    assert totals["event"] == totals["fixed"]


@over_kernels("name", sorted(SCENARIOS))
def test_pipeline_bottleneck_matrices_identical(name, kernel):
    """The full measure→aggregate pipeline yields identical metric matrices
    and identical recovered partitions under both stepping modes."""
    ds = _dataset(name)
    outcomes = {}
    for stepping in ("fixed", "event"):
        pipeline = TomographyPipeline(
            ds.topology,
            hosts=ds.hosts,
            ground_truth=ds.ground_truth,
            config=default_swarm_config(200, stepping=stepping),
            seed=11,
        )
        outcomes[stepping] = pipeline.run(4, track_convergence=False)
    fixed, event = outcomes["fixed"], outcomes["event"]
    assert np.array_equal(event.metric.weights, fixed.metric.weights)
    assert event.metric.labels == fixed.metric.labels
    assert event.partition == fixed.partition or (
        sorted(map(sorted, (map(str, c) for c in event.partition.clusters)))
        == sorted(map(sorted, (map(str, c) for c in fixed.partition.clusters)))
    )
    assert event.modularity == fixed.modularity


@over_kernels("name", sorted(SCENARIOS))
def test_event_mode_executes_no_more_control_steps(name, kernel):
    ds = _dataset(name)
    steps = {}
    for stepping in ("fixed", "event"):
        config = default_swarm_config(240, stepping=stepping)
        result, _ = _run_broadcast(ds, config, seed=31)
        assert result.stepping == stepping
        steps[stepping] = result.control_steps
    assert steps["event"] <= steps["fixed"]


def test_high_fidelity_jumps_stay_exact_and_cut_steps():
    """At fine control_dt (the regime the event core exists for) the jumps
    are large and must still replay the oracle exactly."""
    ds = _dataset("2x2")
    base = default_swarm_config(160)
    fine_dt = base.control_dt / 128
    results = {}
    for stepping in ("fixed", "event"):
        config = dataclasses.replace(base, control_dt=fine_dt, stepping=stepping)
        results[stepping] = _run_broadcast(ds, config, seed=5)
    fixed_result, fixed_trace = results["fixed"]
    event_result, event_trace = results["event"]
    assert event_trace == fixed_trace
    assert event_result.completion_times == fixed_result.completion_times
    assert np.array_equal(
        event_result.fragments.counts, fixed_result.fragments.counts
    )
    # The inert grid points vastly outnumber the true control events here:
    # the whole point of the event-driven core.
    assert event_result.control_steps * 4 <= fixed_result.control_steps


def test_max_sim_time_guard_fires_identically():
    """The did-not-complete guard must trip in both modes on the same config."""
    from repro.bittorrent.torrent import TorrentMeta
    from repro.bittorrent.swarm import SwarmConfig

    ds = _dataset("2x2")
    for stepping in ("fixed", "event"):
        config = SwarmConfig(
            torrent=TorrentMeta.scaled(4000),
            control_dt=0.01,
            rechoke_interval=0.05,
            max_sim_time=0.05,
            stepping=stepping,
        )
        broadcast = BitTorrentBroadcast(ds.topology, config, hosts=ds.hosts)
        with pytest.raises(RuntimeError, match="did not complete"):
            broadcast.run(rng=np.random.default_rng(12))


#: Sites (with their default cluster) the generated swarms are drawn from.
PROPERTY_SITES = ("bordeaux", "grenoble", "toulouse", "lyon")


@st.composite
def small_swarm(draw):
    """A multi-site swarm, a file size, a seed, a rechoke interval and a
    control step (coarse steps let pipes run out their byte budgets)."""
    sites = draw(st.lists(st.sampled_from(PROPERTY_SITES), min_size=1, max_size=3,
                          unique=True))
    per_site = {site: draw(st.integers(min_value=1, max_value=4)) for site in sites}
    assume(sum(per_site.values()) >= 2)
    fragments = draw(st.integers(min_value=4, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rechoke_steps = draw(st.integers(min_value=1, max_value=40))
    coarse = draw(st.sampled_from([1.0, 1.0, 1.0, 400.0]))
    return per_site, fragments, seed, rechoke_steps, coarse


@given(small_swarm())
@settings(max_examples=50, deadline=None)
def test_generated_swarms_conserve_fragments_in_both_modes(swarm):
    """Over generated scenarios, not only the hand-picked goldens: every
    non-root host receives exactly F fragments, and fixed and event stepping
    produce the same fragment matrix (compared by sha256)."""
    per_site, fragments, seed, rechoke_steps, coarse = swarm
    topology = build_multi_site(
        {site: {default_cluster_of(site): count} for site, count in per_site.items()}
    )
    base = default_swarm_config(fragments)
    control_dt = base.control_dt * coarse
    digests = {}
    for stepping in ("fixed", "event"):
        config = dataclasses.replace(
            base, control_dt=control_dt, rechoke_interval=rechoke_steps * control_dt,
            stepping=stepping,
        )
        result = BitTorrentBroadcast(topology, config).run(
            rng=np.random.default_rng(seed)
        )
        received = result.fragments.counts.sum(axis=1)
        for host, count in zip(result.fragments.labels, received.tolist()):
            assert count == (0 if host == result.root else fragments), host
        digests[stepping] = hashlib.sha256(
            result.fragments.counts.astype(np.int64).tobytes()
        ).hexdigest()
    assert digests["event"] == digests["fixed"]
