"""Unit tests for the telemetry layer: metrics algebra, tracer lifecycle,
environment routing, and the Chrome trace-event export.

The integration-level guarantees live elsewhere: seed-replay neutrality in
``tests/test_seed_replay.py`` (tracing on/off goldens), cross-executor
snapshot merging in ``tests/test_executors.py``, and the chaos-marker
telemetry assertions next to the fault-tolerance tests.  This module pins
the value-object semantics those suites rely on.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.observability.export import (
    export_chrome,
    load_records,
    summarize,
    to_chrome,
    trace_meta,
)
from repro.observability.metrics import (
    METRIC_CATALOGUE,
    METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    validate_catalogue,
)
from repro.observability.tracer import (
    TRACE_DETAIL_ENV,
    TRACE_ENV,
    TRACE_OWNER_ENV,
    TRACE_SCHEMA,
    TRACER,
    TraceConfigError,
    Tracer,
    configure_tracing,
    trace_from_env,
    worker_trace_path,
)


# ---------------------------------------------------------------------- #
# metrics: snapshot algebra
# ---------------------------------------------------------------------- #
class TestMetricsSnapshot:
    def test_delta_drops_untouched_and_zero_counters(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("b", 2)
        before = registry.snapshot()
        registry.count("b", 3)
        registry.count("c", 0.5)
        delta = registry.snapshot().delta_since(before)
        assert delta.counters == {"b": 3, "c": 0.5}
        assert delta.counter("a") == 0.0
        assert delta.counter("missing", default=-1) == -1

    def test_delta_of_histograms_subtracts_count_and_total(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        before = registry.snapshot()
        registry.observe("h", 3.0)
        registry.observe("h", 5.0)
        delta = registry.snapshot().delta_since(before)
        count, total, lo, hi = delta.histograms["h"]
        assert (count, total) == (2, 8.0)
        # min/max cannot be un-merged; the interval inherits the run's.
        assert (lo, hi) == (1.0, 5.0)

    def test_merged_adds_counters_and_folds_histograms(self):
        a = MetricsSnapshot(
            counters={"x": 1.0},
            gauges={"g": 0.5},
            histograms={"h": (1, 2.0, 2.0, 2.0)},
        )
        b = MetricsSnapshot(
            counters={"x": 2.0, "y": 1.0},
            gauges={"g": 0.9},
            histograms={"h": (2, 9.0, 1.0, 8.0), "k": (1, 1.0, 1.0, 1.0)},
        )
        merged = a.merged(b)
        assert merged.counters == {"x": 3.0, "y": 1.0}
        assert merged.gauges == {"g": 0.9}  # last value wins
        assert merged.histograms["h"] == (3, 11.0, 1.0, 8.0)
        assert merged.histograms["k"] == (1, 1.0, 1.0, 1.0)

    def test_snapshot_is_picklable_and_falsy_when_empty(self):
        assert not MetricsSnapshot()
        registry = MetricsRegistry()
        registry.count("n")
        snap = registry.snapshot()
        assert snap
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_jsonable_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.count("c", 2)
        registry.gauge("g", 0.75)
        registry.observe("h", 1.5)
        payload = json.loads(json.dumps(registry.snapshot().jsonable()))
        assert payload["counters"] == {"c": 2}
        assert payload["gauges"] == {"g": 0.75}
        assert payload["histograms"]["h"] == {
            "count": 1,
            "total": 1.5,
            "min": 1.5,
            "max": 1.5,
        }

    def test_registry_merge_and_reset(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.observe("h", 2.0)
        registry.merge(
            MetricsSnapshot(
                counters={"x": 4.0},
                gauges={"g": 1.0},
                histograms={"h": (1, 6.0, 6.0, 6.0)},
            )
        )
        registry.merge(None)  # tolerated: tasks without telemetry
        snap = registry.snapshot()
        assert snap.counter("x") == 5.0
        assert snap.gauges["g"] == 1.0
        assert snap.histograms["h"] == (2, 8.0, 2.0, 6.0)
        registry.reset()
        assert not registry.snapshot()

    def test_timer_observes_wall_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        count, total, lo, hi = registry.snapshot().histograms["t"]
        assert count == 1
        assert 0.0 <= lo <= hi
        assert total == pytest.approx(lo + hi - lo)

    def test_catalogue_names_follow_the_dotted_convention(self):
        for name, (kind, description) in METRIC_CATALOGUE.items():
            assert "." in name, name
            assert kind in ("counter", "gauge", "histogram")
            assert description

    @pytest.mark.parametrize(
        "name", ["swarm", "Swarm.broadcasts", "swarm..receipts", "swarm.", "swarm.2x", "swarm.bytes/s"]
    )
    def test_catalogue_validation_rejects_malformed_names(self, name):
        validate_catalogue({"faults.link-failure": ("counter", "hyphens are fine")})
        with pytest.raises(ValueError, match="bad metric name"):
            validate_catalogue({name: ("counter", "malformed")})

    def test_catalogue_validation_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="bad metric kind"):
            validate_catalogue({"swarm.receipts": ("tally", "unknown kind")})


# ---------------------------------------------------------------------- #
# tracer: lifecycle, fail-fast, environment routing
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_is_a_noop(self, tmp_path):
        tracer = Tracer()
        tracer.event("never", sim_time=1.0)
        tracer.span_record("never", 0.0)
        with tracer.span("never"):
            pass
        assert not tracer.enabled

    def test_records_meta_events_and_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.configure(str(path), detail="full")
        tracer.event("sim.thing", sim_time=2.5, detail=7)
        tracer.event("host.thing")
        with tracer.span("outer", label="x"):
            pass
        tracer.close()
        assert not tracer.enabled

        records = load_records(str(path))
        meta = trace_meta(records)
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["detail"] == "full"
        assert meta["pid"] == os.getpid()

        by_name = {r.get("name"): r for r in records}
        assert by_name["sim.thing"]["sim_ts"] == 2.5
        assert by_name["sim.thing"]["args"] == {"detail": 7}
        assert "sim_ts" not in by_name["host.thing"]
        span = by_name["outer"]
        assert span["type"] == "span"
        assert span["wall_dur"] >= 0.0
        assert span["args"] == {"label": "x"}

    def test_unwritable_path_fails_fast(self, tmp_path):
        tracer = Tracer()
        with pytest.raises(TraceConfigError, match="not writable"):
            tracer.configure(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))
        assert not tracer.enabled
        with pytest.raises(TraceConfigError, match="detail"):
            tracer.configure(str(tmp_path / "t.jsonl"), detail="verbose")

    def test_worker_trace_path_suffixes_the_stem(self):
        assert worker_trace_path("trace.jsonl", 42) == "trace.w42.jsonl"
        assert worker_trace_path("/a/b/t.jsonl", 7) == "/a/b/t.w7.jsonl"
        assert worker_trace_path("bare", 9) == "bare.w9.jsonl"

    @pytest.fixture
    def clean_trace_env(self, monkeypatch):
        for var in (TRACE_ENV, TRACE_DETAIL_ENV, TRACE_OWNER_ENV):
            monkeypatch.delenv(var, raising=False)
        yield monkeypatch
        TRACER.close()

    def test_trace_from_env_unset_is_noop(self, clean_trace_env):
        assert trace_from_env() is False
        assert not TRACER.enabled

    def test_trace_from_env_owner_uses_the_path_verbatim(
        self, clean_trace_env, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        clean_trace_env.setenv(TRACE_ENV, str(path))
        clean_trace_env.setenv(TRACE_DETAIL_ENV, "full")
        assert trace_from_env() is True
        assert TRACER.path == str(path)
        assert TRACER.full
        assert os.environ[TRACE_OWNER_ENV] == str(os.getpid())
        # Idempotent: a second call does not re-open (and truncate) the sink.
        TRACER.event("probe")
        assert trace_from_env() is True
        TRACER.close()
        assert any(
            r.get("name") == "probe" for r in load_records(str(path))
        )

    def test_trace_from_env_worker_writes_a_per_pid_sibling(
        self, clean_trace_env, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        clean_trace_env.setenv(TRACE_ENV, str(path))
        # Pretend another process owns the path: we are a pool worker.
        clean_trace_env.setenv(TRACE_OWNER_ENV, str(os.getpid() + 1))
        assert trace_from_env() is True
        assert TRACER.path == worker_trace_path(str(path), os.getpid())
        assert not path.exists()

    def test_trace_from_env_reroutes_a_fork_inherited_sink(
        self, clean_trace_env, tmp_path
    ):
        """Fork-started pool workers inherit the parent's *enabled* tracer;
        trace_from_env must close the inherited sink and re-route to the
        per-pid sibling instead of interleaving with the parent."""
        path = tmp_path / "t.jsonl"
        configure_tracing(str(path))
        parent_pid = os.getpid() + 1
        # Pretend this process is a fork of `parent_pid`: the tracer is
        # enabled but stamped with the (fake) parent's pid, and the
        # environment names the parent as the owner.
        TRACER._pid = parent_pid
        clean_trace_env.setenv(TRACE_OWNER_ENV, str(parent_pid))
        assert trace_from_env() is True
        assert TRACER.path == worker_trace_path(str(path), os.getpid())

    def test_configure_tracing_exports_the_environment(
        self, clean_trace_env, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        configure_tracing(str(path), detail="full")
        assert os.environ[TRACE_ENV] == str(path)
        assert os.environ[TRACE_DETAIL_ENV] == "full"
        assert os.environ[TRACE_OWNER_ENV] == str(os.getpid())
        assert TRACER.enabled and TRACER.full


# ---------------------------------------------------------------------- #
# export: Chrome trace events and summaries
# ---------------------------------------------------------------------- #
def write_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer()
    tracer.configure(str(path), detail="full")
    tracer.event("fault.link-failure", sim_time=1.5, link=("a", "b"))
    tracer.event("executor.retry", attempt=1)
    with tracer.span("swarm.broadcast", root="a"):
        pass
    tracer.close()
    return path


class TestExport:
    def test_chrome_export_has_required_keys(self, tmp_path):
        path = write_trace(tmp_path)
        out = tmp_path / "t.chrome.json"
        count = export_chrome(str(path), str(out))
        chrome = json.loads(out.read_text())
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        events = chrome["traceEvents"]
        assert len(events) == count
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert "pid" in event
            if event["ph"] != "M":
                assert "ts" in event

    def test_chrome_clock_routing(self, tmp_path):
        records = load_records(str(write_trace(tmp_path)))
        events = to_chrome(records)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        # Sim-time events ride the sim track, in simulation microseconds.
        sim = by_name["fault.link-failure"]
        assert (sim["ph"], sim["tid"], sim["ts"]) == ("i", 1, 1.5e6)
        # Host-side events and spans ride the wall track.
        assert by_name["executor.retry"]["tid"] == 0
        span = by_name["swarm.broadcast"]
        assert span["ph"] == "X" and span["tid"] == 0 and "dur" in span

    def test_summarize_counts_and_span_seconds(self, tmp_path):
        records = load_records(str(write_trace(tmp_path)))
        summary = summarize(records)
        assert summary["fault.link-failure"]["count"] == 1
        assert summary["executor.retry"]["type"] == "event"
        assert summary["swarm.broadcast"]["wall_s"] >= 0.0
        assert "meta" not in summary

    def test_summarize_totals_event_wall_seconds(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.configure(str(path), detail="full")
        tracer.event("swarm.conversion", sim_time=1.0, pipes=2, wall_s=0.25)
        tracer.event("swarm.conversion", sim_time=2.0, pipes=1, wall_s=0.5)
        tracer.event("swarm.jump", sim_time=3.0, from_step=1, to_step=4)
        tracer.close()
        summary = summarize(load_records(str(path)))
        assert summary["swarm.conversion"] == {
            "type": "event", "count": 2, "wall_s": 0.75,
        }
        assert "wall_s" not in summary["swarm.jump"]

    def test_load_records_reports_path_and_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"meta"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_records(str(bad))


# ---------------------------------------------------------------------- #
# swarm: per-step pipe transitions
# ---------------------------------------------------------------------- #
def test_swarm_sync_events_record_each_pipe_transition(tmp_path):
    """Full detail emits one ``swarm.sync`` event per control step whose pipe
    set changed, and recording it leaves the broadcast untouched."""
    import numpy as np

    from repro.bittorrent.swarm import BitTorrentBroadcast
    from repro.network.grid5000 import build_multi_site, default_cluster_of
    from repro.tomography.pipeline import default_swarm_config

    topology = build_multi_site(
        {site: {default_cluster_of(site): 3} for site in ("bordeaux", "grenoble")}
    )
    broadcast = BitTorrentBroadcast(topology, default_swarm_config(60))
    plain = broadcast.run(rng=np.random.default_rng(4))
    path = tmp_path / "sync.jsonl"
    TRACER.configure(str(path), detail="full")
    try:
        traced = broadcast.run(rng=np.random.default_rng(4))
    finally:
        TRACER.close()
    assert np.array_equal(traced.fragments.counts, plain.fragments.counts)
    assert traced.completion_times == plain.completion_times

    records = load_records(str(path))
    syncs = [r for r in records if r.get("name") == "swarm.sync"]
    assert syncs
    sim_times = [r["sim_ts"] for r in syncs]
    assert sim_times == sorted(set(sim_times))  # at most one per step
    opens = sum(r["args"]["opens"] for r in syncs)
    closes = sum(r["args"]["closes"] for r in syncs)
    # Pipes open at the last step are never closed by a later sync.
    assert opens >= closes > 0
    for record in syncs:
        args = record["args"]
        assert args["opens"] + args["closes"] > 0 and args["wall_s"] >= 0.0
    assert summarize(records)["swarm.sync"]["wall_s"] > 0.0


# ---------------------------------------------------------------------- #
# CLI: fail-fast and telemetry surfaces
# ---------------------------------------------------------------------- #
class TestCli:
    def _repro(self, *argv, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        for var in (TRACE_ENV, TRACE_DETAIL_ENV, TRACE_OWNER_ENV):
            env.pop(var, None)
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_unwritable_trace_path_exits_fast(self, tmp_path):
        proc = self._repro(
            "run",
            "B-G-T",
            "--iterations",
            "1",
            "--trace",
            str(tmp_path / "no" / "dir" / "t.jsonl"),
        )
        assert proc.returncode == 2
        assert "not writable" in proc.stderr

    def test_metrics_subcommand_lists_the_catalogue(self, tmp_path):
        out = tmp_path / "catalogue.json"
        proc = self._repro("metrics", "--json", str(out))
        assert proc.returncode == 0
        assert "swarm.broadcasts" in proc.stdout
        listing = json.loads(out.read_text())["catalogue"]
        by_name = {row["name"]: row for row in listing}
        assert by_name["swarm.broadcasts"]["kind"] == "counter"
        assert set(by_name) == set(METRIC_CATALOGUE)

    def test_trace_export_requires_chrome_flag(self, tmp_path):
        path = write_trace(tmp_path)
        proc = self._repro("trace", "export", str(path))
        assert proc.returncode == 2
        proc = self._repro("trace", "export", str(path), "--chrome")
        assert proc.returncode == 0
        chrome = json.loads((tmp_path / "t.jsonl.chrome.json").read_text())
        assert chrome["traceEvents"]

    def test_trace_summary_on_missing_file_exits_cleanly(self, tmp_path):
        proc = self._repro("trace", "summary", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
