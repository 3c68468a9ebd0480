"""Fragment-conversion kernels against the scalar selection oracle.

Both kernels of :mod:`repro.bittorrent.conversion` — the compiled one and
the Python fallback — must convert a control step's ready pipe events
exactly as repeated :meth:`PieceSelector.select_from` calls do: the same
fragments in the same order, the same surplus left on every pipe, the same
bitfield/availability/held updates, and the same random-stream consumption
(identical final ``bit_generator.state``).  Generated steps cover repeated
downloaders within one step, random-first selection below the threshold,
completion in mid-event, candidate exhaustion and size-1 rarest tiers.
"""

import numpy as np
import pytest
from conftest import LOADED_KERNEL
from hypothesis import given, settings, strategies as st

from repro import native
from repro.bittorrent import conversion
from repro.bittorrent.selection import PieceSelector
from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.network.grid5000 import build_bordeaux_site
from repro.observability.metrics import METRICS
from repro.tomography.pipeline import default_swarm_config

FRAGMENT_SIZE = 16384.0

needs_compiler = pytest.mark.skipif(
    LOADED_KERNEL.name != "c",
    reason="compiled conversion kernel unavailable on this platform",
)

#: Both kernels, as test parameters.
KERNELS = [
    pytest.param(LOADED_KERNEL, id="c", marks=needs_compiler),
    pytest.param(conversion.PYTHON_KERNEL, id="python"),
]


def interest(have):
    """Exact ``wanted[u, v]``: fragments u holds that v lacks."""
    held = have.astype(np.int64)
    wanted = held @ (1 - held).T
    np.fill_diagonal(wanted, 0)
    return wanted


def oracle(step, seed):
    """Convert ``step`` by repeated scalar selection; return the outcome."""
    have = step["have"].copy()
    lack = ~have
    held = have.sum(axis=1)
    selector = PieceSelector(have.shape[1], step["threshold"])
    selector.availability = step["availability"].copy()
    rng = np.random.default_rng(seed)
    received, surplus = [], []
    for uploader, downloader, remaining in zip(step["up"], step["down"], step["surplus"]):
        got = []
        while remaining >= FRAGMENT_SIZE:
            fragment = selector.select_from(
                have[uploader], lack[downloader], held[downloader], rng
            )
            if fragment is None:
                remaining = 0.0
                break
            remaining -= FRAGMENT_SIZE
            got.append(fragment)
            have[downloader, fragment] = True
            lack[downloader, fragment] = False
            selector.record_receipt(fragment)
            held[downloader] += 1
            if held[downloader] == have.shape[1]:
                break
        received.append(got)
        surplus.append(remaining)
    return {
        "received": received,
        "surplus": surplus,
        "have": have.tolist(),
        "held": held.tolist(),
        "availability": selector.availability.tolist(),
        "rng": rng.bit_generator.state,
    }


def run_kernel(kernel, step, seed, incremental):
    """Convert ``step`` with one ``kernel`` call; return the outcome."""
    have = step["have"].copy()
    lack = ~have
    held = have.sum(axis=1).astype(np.int64)
    availability = step["availability"].copy()
    wanted = interest(have) if incremental else None
    rng = np.random.default_rng(seed)
    convert = kernel.bind(
        rng, have, lack, availability, held, wanted, FRAGMENT_SIZE, step["threshold"]
    )
    surplus = np.array(step["surplus"], dtype=np.float64)
    received, offsets = convert(
        np.array(step["up"], dtype=np.int64),
        np.array(step["down"], dtype=np.int64),
        surplus,
    )
    assert np.array_equal(lack, ~have)
    if incremental:
        assert np.array_equal(wanted, interest(have))
    return {
        "received": [
            received[offsets[e]:offsets[e + 1]].tolist() for e in range(len(step["up"]))
        ],
        "surplus": surplus.tolist(),
        "have": have.tolist(),
        "held": held.tolist(),
        "availability": availability.tolist(),
        "rng": rng.bit_generator.state,
    }


@st.composite
def steps(draw):
    """One control step: bitfields, availability and ready events."""
    hosts = draw(st.integers(2, 5))
    fragments = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.15, 0.5, 0.9]))
    have = np.array(
        draw(st.lists(st.floats(0, 1), min_size=hosts * fragments,
                      max_size=hosts * fragments))
    ).reshape(hosts, fragments) < density
    # A narrow count range makes ties common and leaves size-1 tiers too.
    availability = np.array(
        draw(st.lists(st.integers(0, 3), min_size=fragments, max_size=fragments)),
        dtype=np.int64,
    )
    pairs = st.tuples(st.integers(0, hosts - 1), st.integers(1, hosts - 1))
    events = draw(st.lists(pairs, min_size=1, max_size=8, unique_by=lambda p: p))
    up = [u for u, _ in events]
    down = [(u + offset) % hosts for u, offset in events]
    surplus = [
        FRAGMENT_SIZE * draw(st.integers(1, fragments + 2))
        + draw(st.sampled_from([0.0, 0.5, 16383.75]))
        for _ in events
    ]
    return {
        "have": have, "availability": availability, "up": up, "down": down,
        "surplus": surplus, "threshold": draw(st.integers(0, 6)),
    }


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=150, deadline=None)
@given(step=steps(), seed=st.integers(0, 2**32 - 1), incremental=st.booleans())
def test_kernel_matches_repeated_scalar_selection(kernel, step, seed, incremental):
    assert run_kernel(kernel, step, seed, incremental) == oracle(step, seed)


def hand_step(have_rows, up, down, surplus_fragments, threshold=0, availability=None):
    have = np.array(have_rows, dtype=bool)
    if availability is None:
        availability = have.sum(axis=0)
    return {
        "have": have, "availability": np.array(availability, dtype=np.int64),
        "up": up, "down": down,
        "surplus": [FRAGMENT_SIZE * k for k in surplus_fragments],
        "threshold": threshold,
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_completion_stops_mid_event_and_keeps_the_surplus(kernel):
    # Host 1 lacks two fragments; a five-fragment surplus completes it.
    step = hand_step([[1, 1, 1, 1], [1, 0, 1, 0]], up=[0], down=[1], surplus_fragments=[5])
    outcome = run_kernel(kernel, step, 3, incremental=True)
    assert sorted(outcome["received"][0]) == [1, 3]
    assert outcome["held"][1] == 4
    assert outcome["surplus"] == [3 * FRAGMENT_SIZE]
    assert outcome == oracle(step, 3)


@pytest.mark.parametrize("kernel", KERNELS)
def test_exhausted_candidates_drop_the_surplus(kernel):
    # The uploader offers two fragments, the downloader stays incomplete.
    step = hand_step(
        [[1, 1, 0, 0], [0, 0, 0, 0]], up=[0, 1], down=[1, 0], surplus_fragments=[5, 1]
    )
    outcome = run_kernel(kernel, step, 4, incremental=False)
    assert sorted(outcome["received"][0]) == [0, 1]
    assert outcome["surplus"] == [0.0, 0.0]
    assert outcome == oracle(step, 4)


@pytest.mark.parametrize("kernel", KERNELS)
def test_repeated_downloader_sees_its_earlier_receipts(kernel):
    # Two uploaders feed host 2 in one step, random-first then rarest-first,
    # over distinct availability counts (every rarest tier has size 1).
    step = hand_step(
        [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0]],
        up=[0, 1], down=[2, 2], surplus_fragments=[3, 3], threshold=2,
        availability=[5, 1, 4, 2, 6, 3],
    )
    outcome = run_kernel(kernel, step, 9, incremental=True)
    first, second = outcome["received"]
    assert not set(first) & set(second)
    assert outcome == oracle(step, 9)


def broadcast_records(kernel, monkeypatch):
    """Trace and fragment matrix of one broadcast under ``kernel``."""
    monkeypatch.setattr(conversion, "KERNEL", kernel)
    topology = build_bordeaux_site(bordeplage=3, bordereau=3, borderline=2)
    broadcast = BitTorrentBroadcast(topology, default_swarm_config(120))
    trace = []
    before = METRICS.snapshot()
    result = broadcast.run(rng=np.random.default_rng(21), trace=trace)
    counted = METRICS.snapshot().delta_since(before)
    assert counted.counter(f"swarm.broadcasts.kernel.{kernel.name}") == 1
    return trace, result.fragments.counts.tolist(), result.completion_times


def test_failed_build_falls_back_with_one_warning(tmp_path, monkeypatch):
    with pytest.warns(RuntimeWarning, match="Python fallback") as warned:
        kernel = native.load_kernel(
            conversion.SOURCE, conversion.load, conversion.PYTHON_KERNEL,
            link=conversion.LINK, compiler=str(tmp_path / "no-such-compiler"),
            cache_dir=tmp_path / "cache",
        )
    assert len(warned) == 1
    assert kernel is conversion.PYTHON_KERNEL
    assert broadcast_records(kernel, monkeypatch) == broadcast_records(
        LOADED_KERNEL, monkeypatch
    )


@needs_compiler
def test_compiled_kernel_refuses_arrays_it_would_misread():
    step = hand_step([[1, 1], [0, 0]], up=[0], down=[1], surplus_fragments=[1])
    have = step["have"]
    held = have.sum(axis=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="int64"):
        LOADED_KERNEL.bind(rng, have, ~have, step["availability"].astype(np.int32),
                           held, None, FRAGMENT_SIZE, 0)
    convert = LOADED_KERNEL.bind(rng, have, ~have, step["availability"], held, None,
                                 FRAGMENT_SIZE, 0)
    with pytest.raises(IndexError):
        convert(np.array([0]), np.array([2]), np.array([FRAGMENT_SIZE]))
    with pytest.raises(ValueError, match="float64"):
        convert(np.array([0]), np.array([1]), np.array([1], dtype=np.int64))


@needs_compiler
def test_build_is_cached_under_a_content_hash(tmp_path):
    built = native.build(conversion.SOURCE, conversion.LINK, cache_dir=tmp_path)
    stamp = built.stat().st_mtime_ns
    assert native.build(conversion.SOURCE, conversion.LINK, cache_dir=tmp_path) == built
    assert built.stat().st_mtime_ns == stamp
    assert [p.name for p in tmp_path.iterdir()] == [built.name]
    assert conversion.load(built).name == "c"
