"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced, for a single round, and
asserts that every end-to-end and per-layer metric is emitted with a unit
and a finite value, that every correctness check ran, and that the traced
run recorded spans for the layers the workload is designed to exercise.
Exits non-zero on the first failed assertion.  Not collected by pytest.
"""

from __future__ import annotations

import math
import sys

import run

#: Checks each workload must execute at least once per run.
EXPECTED_CHECKS = {
    "paper-gt": {"fragment_conservation"},
    "wide-bgtl": {"fragment_conservation"},
    "blackout": {"fragment_conservation", "blackout_localized"},
    "reanalysis": {"fragment_conservation", "same_partition", "nmi_floor"},
}

#: A layer metric each workload's traced ops must call (the layer split).
EXPECTED_CALLS = {
    "paper-gt": ["bittorrent.session", "network.solve", "clustering.louvain"],
    "wide-bgtl": ["bittorrent.session", "network.start_transfer"],
    "blackout": ["workloads.engine", "network.next_transition",
                 "tomography.detect", "tomography.localize"],
    "reanalysis": ["clustering.louvain", "tomography.metric_graph", "clustering.nmi"],
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def smoke(name: str) -> None:
    for trace in (False, True):
        record = run.run_one(name, seed=1, seconds=0.0, trace=trace, tiny=True)
        require(record["attempted"] >= 1, f"{name}: no op ran")
        missing = EXPECTED_CHECKS[name] - set(record["checks"])
        require(not missing, f"{name}: checks never executed: {sorted(missing)}")
        sections = [("end_to_end", run.END_TO_END), ("reported", run.REPORTED)]
        if trace:
            sections.append(("per_layer", run.PER_LAYER))
        for section, units in sections:
            emitted = record[section]
            require(set(emitted) == set(units),
                    f"{name}: {section} metrics differ: {set(emitted) ^ set(units)}")
            for key, value in emitted.items():
                require(bool(units[key]), f"{name}: {key} has no unit")
                if section != "reported":
                    require(math.isfinite(value), f"{name}: {key} = {value}")
        if trace:
            layers = record["per_layer"]
            for layer in EXPECTED_CALLS[name]:
                require(layers[f"{layer}.calls"] > 0,
                        f"{name}: traced ops never called {layer}")
    print(f"smoke {name}: ok ({record['attempted']} ops, checks {record['checks']})")


def main() -> int:
    for name in sorted(run.harness.WORKLOADS):
        smoke(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
