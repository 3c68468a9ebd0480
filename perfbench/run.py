"""Run one benchmark workload (or all four) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-gt --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Workloads: ``paper-gt``, ``wide-bgtl``, ``blackout``, ``reanalysis`` (see
``harness.py`` and ``BENCHMARK.json``).  The seed is the only input; the
package receives the datasets, configurations and seeds generated from it.

With ``--trace 0`` the last line of stdout is a JSON object whose
``metrics`` are the end-to-end metrics, measured untraced.  Their times are
normalised to nominal machine speed (``speed.py``), because the machines
this runs on drift in speed by more than any regression bound; the raw
wall times are printed beside them.  With ``--trace 1`` every second round
runs with the layer wrappers installed and the ``metrics`` are the
per-layer figures (means per traced op) plus the tracing overhead, traced
minus untraced op time.  Every run also prints
each metric as a ``name = value unit`` line, including those that are not
gated (they are seed-dependent quality outcomes or apply to one workload
only), and writes a result record (machine fingerprint, seed, input sizes,
every metric) and, when traced, the spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness
from layers import LAYER_NAMES, LAYERS, ROOT_SPANS, LayerTracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# The package is imported from the checkout's source tree, not an install.
sys.path.insert(0, str(ROOT / "src"))

#: End-to-end metrics every workload emits untraced: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "receipts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not gated: raw wall times (the
#: gated times are normalised to nominal machine speed, see ``speed.py``),
#: 0 when healthy (``failed_op_share``), spread across seeds wider than any
#: allowed bound (``nmi``, ``iterations_to_converge``), or defined on some
#: workloads only.
REPORTED = {
    "wall_setup_s": "s",
    "wall_op_p50_s": "s",
    "machine_slowdown": "ratio",
    "failed_op_share": "share",
    "nmi": "nmi",
    "nmi_below_paper": "count",
    "iterations_to_converge": "iterations",
    "time_to_localize_sim_s": "s",
    "op_tail_percentile": "pct",
    "op_samples": "count",
}

#: METRICS counters reported per traced op.
COUNTERS = (
    "swarm.control_steps", "swarm.receipts", "workload.dispatches",
    "workload.network_changes", "louvain.passes", "louvain.levels",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    # The harness's own spans around each op and analysis: their self time
    # is the code no wrapper covers.
    units["op.busy_s"] = "s"
    units["op.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    for counter in COUNTERS:
        units[counter] = "count"
    units.update({
        "bittorrent.receipts_per_step": "ratio",
        "network.transfers_per_receipt": "ratio",
        "network.solves_per_transition": "ratio",
        "clustering.passes_per_run": "ratio",
        "setup.busy_s": "s",
        "setup.experiments.dataset.busy_s": "s",
        "setup.network.routing.busy_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "share",
    })
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is.  With ten samples or fewer no percentile has ten
    beyond it; the maximum (percentile 100) is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(outcome: harness.Outcome, ops: List[int]) -> Dict[str, float]:
    """End-to-end metrics over the ops indexed by ``ops``."""
    chosen = [outcome.ops[i] for i in ops]
    latencies = [op.latency_s if op.ok else math.inf for op in chosen]
    tail_value, tail_pct = tail(latencies)
    failed = sum(not op.ok for op in chosen)
    walls = [op.wall_s if op.ok else math.inf for op in chosen]
    return {
        "setup_s": harness.median(outcome.setup_s),
        "op_p50_s": harness.median(latencies),
        "op_tail_s": tail_value,
        # Per-op rates, median: a burst the speed probe does not see moves a
        # median less than a ratio of sums.
        "receipts_per_s": harness.median(
            [op.receipts / op.latency_s if op.ok else 0.0 for op in chosen]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_setup_s": harness.median(outcome.setup_wall_s),
        "wall_op_p50_s": harness.median(walls),
        "machine_slowdown": outcome.machine_slowdown,
        "failed_op_share": failed / len(chosen),
        "nmi": harness.median(outcome.nmi),
        "nmi_below_paper": float(sum(v < harness.PAPER_NMI for v in outcome.nmi)),
        "iterations_to_converge": harness.median(outcome.iterations_to_converge),
        "time_to_localize_sim_s": harness.median(outcome.time_to_localize_sim_s),
        "op_tail_percentile": tail_pct,
        "op_samples": float(len(chosen)),
    }


def per_layer(outcome: harness.Outcome, tracer: LayerTracer) -> Dict[str, float]:
    """Per-layer figures, as means per traced op."""
    ops = outcome.traced_ops
    counters = outcome.counters
    n = len(ops)
    totals = tracer.totals(ops)

    def total(name: str, key: str = "calls") -> float:
        return totals.get(name, {}).get(key, 0.0)

    metrics: Dict[str, float] = {}
    for name in LAYER_NAMES:
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{name}.{key}"] = total(name, key) / n
    for key in ("busy_s", "self_s"):
        metrics[f"op.{key}"] = sum(total(name, key) for name in ROOT_SPANS) / n
    for layer in LAYERS:
        self_s = sum(metrics[f"{name}.self_s"] for name in LAYER_NAMES
                     if name.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = ratio(self_s, metrics["op.busy_s"])
    for counter in COUNTERS:
        metrics[counter] = counters.get(counter, 0.0) / n
    transitions = (total("network.start_transfer") + total("network.cancel_transfer")
                   + sum(tracer.completions.get(i, 0) for i in ops))
    metrics.update({
        "bittorrent.receipts_per_step": ratio(
            counters.get("swarm.receipts", 0.0), counters.get("swarm.control_steps", 0.0)),
        "network.transfers_per_receipt": ratio(
            total("network.start_transfer"), counters.get("swarm.receipts", 0.0)),
        "network.solves_per_transition": ratio(total("network.solve"), transitions),
        "clustering.passes_per_run": ratio(
            counters.get("louvain.passes", 0.0), counters.get("louvain.runs", 0.0)),
    })
    setup = tracer.totals([harness.SETUP_OP])
    metrics["setup.busy_s"] = setup.get("setup", {}).get("busy_s", 0.0)
    for name in ("experiments.dataset", "network.routing"):
        metrics[f"setup.{name}.busy_s"] = setup.get(name, {}).get("busy_s", 0.0)
    untraced = harness.median([outcome.ops[i].latency_s for i in outcome.untraced_ops])
    traced = harness.median([outcome.ops[i].latency_s for i in ops])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = ratio(traced - untraced, untraced)
    return metrics


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
def commit() -> str:
    """The checkout's commit, read from ``.git`` without running git (which
    could walk up into a repository outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


# ---------------------------------------------------------------------- #
def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict[str, object]:
    """Run one workload; return its result record."""
    workload = harness.WORKLOADS[name](tiny)
    tracer = LayerTracer() if trace else None
    started = time.perf_counter()
    outcome = harness.run(workload, seed, seconds, tracer)
    wall = time.perf_counter() - started
    untraced = end_to_end(outcome, outcome.untraced_ops)
    record: Dict[str, object] = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": workload.sizes(),
        "load": "closed loop, 1 client, serial executor, event stepping",
        "fingerprint": fingerprint(),
        "wall_s": wall,
        "attempted": len(outcome.ops),
        "failed": sum(not op.ok for op in outcome.ops),
        "checks": outcome.checks,
        "op_s": [op.latency_s for op in outcome.ops],
        "op_wall_s": [op.wall_s for op in outcome.ops],
        "setup_s": outcome.setup_s,
        "setup_wall_s": outcome.setup_wall_s,
        "end_to_end": {k: untraced[k] for k in END_TO_END},
        "reported": {k: untraced[k] for k in REPORTED},
    }
    if tracer is not None:
        record["per_layer"] = per_layer(outcome, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_chrome(OUT_DIR / f"{name}-seed{seed}-spans.json.gz")
    return record


def print_record(record: Dict[str, object], prefix: str = "") -> None:
    print(f"{prefix}workload {record['workload']} seed {record['seed']} "
          f"sizes {json.dumps(record['sizes'])}")
    print(f"{prefix}fingerprint {json.dumps(record['fingerprint'])}")
    print(f"{prefix}checks executed {json.dumps(record['checks'])}; "
          f"ops {record['attempted']}, failed {record['failed']}")
    for section, units in (("end_to_end", END_TO_END), ("reported", REPORTED),
                           ("per_layer", PER_LAYER)):
        for key, value in record.get(section, {}).items():
            shown = "n/a" if math.isnan(value) else f"{value:.6g} {units[key]}"
            print(f"{prefix}{key} = {shown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = sorted(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_record(record, prefix=f"[{name}] " if len(names) > 1 else "")
        records.append(record)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=2, default=str) + "\n")

    section, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    metrics = {}
    for record in records:
        scope = f"{record['workload']}." if len(records) > 1 else ""
        for key, value in record[section].items():
            metrics[scope + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
