"""Per-layer tracing from outside the program: wrap public functions, record spans.

The benchmark never edits the package.  Instead, :class:`LayerTracer` swaps
each public entry point named in :data:`LAYER_FUNCTIONS` for a wrapper that
records one span per call: name, start, end, parent span and op id.  Spans
stay in memory (parallel lists, appended to in call order) and are written
out once, as a gzip'd Chrome trace, when the run ends.

Functions are patched where their caller looks them up.  A module that did
``from repro.clustering.louvain import louvain`` holds its own reference, so
``repro.clustering.louvain`` (which resolves to the function, not the
module) is the wrong place to patch; the pipeline's lookup,
``repro.tomography.pipeline.louvain``, is the right one.  Methods are patched
on their class, which every instance looks them up through.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

#: ``(layer metric name, [(module path, attribute path), ...])``.  An
#: attribute path is ``"func"`` or ``"Class.method"``.  The first component
#: of every name is the package module the function belongs to.
LAYER_FUNCTIONS: Sequence[Tuple[str, Sequence[Tuple[str, str]]]] = (
    ("bittorrent.session", [
        ("repro.bittorrent.swarm", "BroadcastSession.start"),
        ("repro.bittorrent.swarm", "BroadcastSession.resume"),
    ]),
    ("bittorrent.rechoke", [("repro.bittorrent.choking", "ChokingPolicy.rechoke")]),
    ("bittorrent.connect", [("repro.bittorrent.tracker", "Tracker.build_connections")]),
    ("network.solve", [("repro.network.solver", "FlowSet.solve")]),
    ("network.start_transfer", [("repro.network.fluid", "FluidNetwork.start_transfer")]),
    ("network.cancel_transfer", [("repro.network.fluid", "FluidNetwork.cancel_transfer")]),
    ("network.advance", [("repro.network.fluid", "FluidNetwork.advance_to")]),
    ("network.next_transition", [("repro.network.fluid", "FluidNetwork.next_transition")]),
    ("network.transferred_at", [("repro.network.fluid", "FluidNetwork.transferred_at")]),
    ("network.routing", [("repro.network.routing", "RoutingTable.__init__")]),
    ("workloads.engine", [("repro.workloads.engine", "WorkloadEngine.run")]),
    ("tomography.detect", [
        ("repro.tomography.faults", "detect_failure"),
        ("repro.tomography.faults", "detect_epochs"),
    ]),
    ("tomography.localize", [("repro.tomography.faults", "localize_epochs")]),
    ("tomography.aggregate", [
        ("repro.tomography.measurement", "MeasurementRecord.aggregate"),
        ("repro.tomography.measurement", "MeasurementRecord.cumulative_aggregates"),
    ]),
    ("tomography.metric_graph", [("repro.tomography.pipeline", "metric_graph")]),
    ("clustering.louvain", [("repro.tomography.pipeline", "louvain")]),
    ("clustering.modularity", [("repro.tomography.pipeline", "modularity")]),
    ("clustering.nmi", [
        ("repro.tomography.pipeline", "overlapping_nmi"),
        ("repro.tomography.pipeline", "normalized_mutual_information"),
    ]),
    ("experiments.dataset", [
        ("repro.experiments.datasets", "dataset"),
        ("repro.scenarios.catalog", "dataset"),
    ]),
)

LAYER_NAMES: List[str] = [name for name, _ in LAYER_FUNCTIONS]
LAYERS: List[str] = sorted({name.split(".")[0] for name in LAYER_NAMES})

#: Span names the harness opens around each op and campaign analysis.
ROOT_SPANS = ("op", "analysis")


class LayerTracer:
    """Span recorder plus the patch table that feeds it.

    :meth:`install` swaps the wrappers in, :meth:`uninstall` restores the
    originals; the harness toggles them between rounds so traced and
    untraced work interleave in one process.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        #: Transfers finished inside ``network.advance`` calls, per op id.
        self.completions: Dict[int, int] = {}
        self.op_id = -1
        self._stack: List[int] = [-1]
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[None]:
        """Record a harness-level span (set-up, op, analysis) for ``op_id``."""
        self.op_id = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        counts_completions = name == "network.advance"

        def wrapped(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counts_completions:
                op = tracer.op_id
                tracer.completions[op] = tracer.completions.get(op, 0) + len(result)
            return result

        return wrapped

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._originals:
            return
        for name, targets in LAYER_FUNCTIONS:
            for module_path, attr_path in targets:
                owner = importlib.import_module(module_path)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # ------------------------------------------------------------------ #
    def totals(self, op_ids) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over spans of ``op_ids``.

        Busy time counts only the outermost span of a name on a call path,
        so re-entrant calls are not counted twice.  Self time is a span's
        duration minus the durations of its direct child spans.
        """
        wanted = set(op_ids)
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            if self.ops[i] not in wanted:
                continue
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += duration - child_time[i]
            if not self._has_ancestor_named(i, name):
                row["busy_s"] += duration
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write_chrome(self, path) -> None:
        """Write every span as a gzip'd Chrome/Perfetto trace-event file,
        one event at a time (a traced run can hold a million spans)."""
        origin = min(self.starts) if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, name in enumerate(self.names):
                if i:
                    handle.write(",\n")
                handle.write(json.dumps({
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (self.starts[i] - origin) * 1e6,
                    "dur": (self.ends[i] - self.starts[i]) * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {"id": i, "parent": self.parents[i], "op": self.ops[i]},
                }))
            handle.write("\n]}\n")
