"""Interference-robustness measurement: tomography under shared-cluster load.

The paper's campaigns measure in an idle network; this module asks the
question its premise raises — does the fragment metric still recover the
planted bandwidth structure when the measured broadcasts compete with other
tenants?  :func:`run_interference_study` runs a full measure → aggregate →
cluster → evaluate campaign with every broadcast embedded in a
:class:`~repro.workloads.WorkloadSpec` (rival broadcasts, Poisson/on-off
cross traffic, peer churn, link-capacity drift) and reports the recovered
clustering together with the interference that was actually injected.

Each scenario family documents a *noise threshold*: the overlapping-NMI
floor the recovery is expected to stay above at the family's default
interference intensity (see ``docs/workloads.md`` for the measured curves).
The summary carries both the threshold and the measurement, so sweeps can
chart exactly where recovery degrades.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.datasets import Dataset
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config
from repro.workloads import WorkloadSpec, workload_from_name


def summarize_workload_stats(stats_per_iteration: List[List[Dict]]) -> Dict[str, object]:
    """Aggregate per-iteration actor stats into campaign-level totals.

    Fault-injector rows (``fault: True``, see :mod:`repro.faults.actors`)
    aggregate alongside the workload rows so a summary shows both the
    interference *and* the failures the measurement survived.
    """
    totals = {
        "background_flows": 0,
        "background_bytes_offered": 0.0,
        "background_bytes_delivered": 0.0,
        "churn_leaves": 0,
        "churn_rejoins": 0,
        "capacity_changes": 0,
        "rival_broadcasts": 0,
        "link_failures": 0,
        "link_repairs": 0,
        "link_downtime_s": 0.0,
        "route_flaps": 0,
        "tracker_outages": 0,
        "tenant_arrivals": 0,
        "tenant_departures": 0,
        "announce_retries": 0,
        "announce_failures": 0,
    }
    for iteration in stats_per_iteration:
        for row in iteration:
            kind = row.get("kind")
            if kind in ("poisson", "onoff", "bulk"):
                totals["background_flows"] += int(row.get("flows_started", 0))
                totals["background_bytes_offered"] += float(row.get("bytes_offered", 0.0))
                totals["background_bytes_delivered"] += float(
                    row.get("bytes_delivered", 0.0)
                )
            elif kind == "churn":
                totals["churn_leaves"] += int(row.get("leaves", 0))
                totals["churn_rejoins"] += int(row.get("rejoins", 0))
                totals["announce_retries"] += int(row.get("announce_retries", 0))
                totals["announce_failures"] += int(row.get("announce_failures", 0))
            elif kind == "drift":
                totals["capacity_changes"] += int(row.get("changes", 0))
            elif kind == "broadcast" and row.get("actor") != "primary":
                totals["rival_broadcasts"] += 1
            elif kind == "link-failure":
                totals["link_failures"] += int(row.get("failures", 0))
                totals["link_repairs"] += int(row.get("repairs", 0))
                totals["link_downtime_s"] += float(row.get("downtime", 0.0))
            elif kind == "route-flap":
                totals["route_flaps"] += int(row.get("flaps", 0))
            elif kind == "tracker-outage":
                totals["tracker_outages"] += int(row.get("outages", 0))
            elif kind == "tenant-cycle":
                totals["tenant_arrivals"] += int(row.get("arrivals", 0))
                totals["tenant_departures"] += int(row.get("departures", 0))
                totals["announce_retries"] += int(row.get("announce_retries", 0))
                totals["announce_failures"] += int(row.get("announce_failures", 0))
    return totals


def run_interference_study(
    ds: Dataset,
    workload: WorkloadSpec,
    iterations: int = 6,
    num_fragments: int = 300,
    seed: int = 2012,
    noise_threshold: float = 0.8,
    stepping: Optional[str] = None,
    track_convergence: bool = False,
    executor=None,
    faults=None,
    quorum: Optional[int] = None,
) -> Dict[str, object]:
    """Measure a dataset under a workload and evaluate the recovery.

    Returns the standard campaign summary extended with the workload
    metadata, the injected-interference totals, and the
    ``noise_threshold`` / ``recovered`` verdict.  ``faults`` additionally
    injects a :class:`~repro.faults.FaultPlan`'s failures (its metadata and
    fault totals join the summary), and ``quorum`` lets the campaign
    degrade gracefully instead of aborting on a failed iteration.
    """
    workload = workload_from_name(workload)
    config = default_swarm_config(num_fragments, stepping=stepping)
    pipeline = TomographyPipeline(
        ds.topology,
        hosts=ds.hosts,
        ground_truth=ds.ground_truth,
        config=config,
        seed=seed,
        workload=workload,
        executor=executor,
        faults=faults,
    )
    result = pipeline.run(
        iterations, track_convergence=track_convergence, quorum=quorum
    )
    summary: Dict[str, object] = {
        "dataset": ds.name,
        "hosts": ds.num_hosts,
        "iterations": iterations,
        "achieved_iterations": result.achieved_iterations,
        "degraded": result.degraded,
        "found_clusters": result.num_clusters,
        "expected_clusters": ds.expectation.expected_clusters,
        "measured_nmi": result.nmi,
        "measured_classical_nmi": result.classical_nmi,
        "modularity": result.modularity,
        "measurement_time_s": result.measurement_time,
        "nmi_per_iteration": result.nmi_per_iteration,
        "stepping": config.stepping,
        "control_steps": result.record.total_control_steps(),
        # Quorum campaigns run the resilient in-process loop, never the
        # executor: record what actually ran.
        "executor": (
            executor.name if executor is not None and quorum is None
            else "serial"
        ),
        "noise_threshold": noise_threshold,
        "recovered": result.nmi is not None and result.nmi >= noise_threshold,
        "result": result,
        "ground_truth": ds.ground_truth,
    }
    summary.update(workload.metadata())
    if pipeline.campaign.faults is not None:
        summary.update(pipeline.campaign.faults.metadata())
    summary.update(summarize_workload_stats(result.record.workload_stats))
    return summary
