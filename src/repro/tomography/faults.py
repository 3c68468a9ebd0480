"""Fault-robustness measurement: tomography under injected failure.

The interference studies ask whether the fragment metric survives *load*;
this module asks whether it survives *failure* — and how fast it notices
one.  :func:`run_fault_study` runs a full measure → aggregate → cluster →
evaluate campaign with every iteration carrying a
:class:`~repro.faults.FaultPlan`'s injectors, and reports the recovered
clustering, the injected-failure totals, and the study's two headline
metrics: **time to detect** a failed bottleneck link and **time to
localize** it (:mod:`repro.tomography.localization`).

Detection is duration-based, which is exactly the signal a production
tomography service has for free: a persistent capacity collapse on a
shared link stretches the measured broadcasts.  The detector is *online*
and *windowed* — each post-onset duration is compared against a rolling
median of the last :data:`DETECT_WINDOW` healthy samples plus a MAD
guard band, and samples that pass are absorbed into the healthy history.
A static pre-onset median would mis-fire the moment the baseline drifts
(capacity drift, slow load growth); the rolling baseline tracks the
drift and still trips on a genuine spike.  ``time_to_detect_s`` charges
the detector for every simulated second of measurement between the
failure's onset iteration and the detection (inclusive) — the cost of
noticing, in measurement time.

For plans whose failure *relocates* mid-campaign (``migrating_plan``),
:func:`detect_epochs` re-runs the verdict per failure epoch against the
pre-first-onset healthy history, and ``run_fault_study`` reports the
merged per-epoch detection + localization verdicts under ``epochs``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from repro.experiments.datasets import Dataset
from repro.faults import FaultPlan, fault_plan_from_name
from repro.tomography.interference import summarize_workload_stats
from repro.tomography.localization import localize_epochs
from repro.tomography.pipeline import TomographyPipeline, default_swarm_config
from repro.workloads.spec import expected_broadcast_duration

#: Default duration-spike ratio that counts as "failure detected".
DETECT_FACTOR = 1.25

#: Healthy samples the rolling-median baseline looks back over.
DETECT_WINDOW = 8

#: MAD multiples added to the spike threshold as a noise guard band.
MAD_FACTOR = 3.0


def fault_onset_iteration(plan: FaultPlan) -> int:
    """First campaign iteration any of the plan's faults is active in."""
    if not plan.faults:
        return 0
    return min(
        int(spec.param_dict().get("from_iteration", 0)) for spec in plan.faults
    )


def fault_epoch_onsets(plan: FaultPlan) -> List[int]:
    """Distinct fault-onset iterations, sorted — the plan's failure epochs.

    A plan whose injectors all start together has one epoch; a migrating
    plan (per-epoch ``from_iteration`` scoping) has several, and each is
    detected and localized independently.
    """
    if not plan.faults:
        return []
    return sorted(
        {int(s.param_dict().get("from_iteration", 0)) for s in plan.faults}
    )


def detect_failure(
    durations: Sequence[Optional[float]],
    onset: int,
    expected_duration: float,
    detect_factor: float = DETECT_FACTOR,
    window: int = DETECT_WINDOW,
    mad_factor: float = MAD_FACTOR,
) -> Dict[str, object]:
    """Online duration-spike failure detection over a campaign's iterations.

    Walks the post-onset durations in order, comparing each against a
    rolling median of the last ``window`` healthy samples (seeded with
    the pre-onset durations, or the config's expected broadcast duration
    when the failure starts at iteration 0) plus ``mad_factor`` median
    absolute deviations of noise head-room.  Samples under the threshold
    are absorbed into the healthy history, so a drifting baseline moves
    the threshold with it instead of tripping false positives.  ``None``
    entries (iterations a quorum campaign lost) are skipped.

    Returns the detection verdict plus the two headline numbers:
    ``iterations_to_detect`` (how many post-onset measurements it took)
    and ``time_to_detect_s`` (the simulated measurement time they cost).
    """
    if detect_factor <= 1.0:
        raise ValueError(
            f"detect_factor must exceed 1.0 (a spike *ratio*), got {detect_factor}"
        )
    if window < 1:
        raise ValueError(f"detect window must be at least 1, got {window}")
    healthy = [float(d) for d in durations[:onset] if d is not None]
    if not healthy:
        healthy = [float(expected_duration)]
    baseline: Optional[float] = None
    detected_iteration: Optional[int] = None
    for i in range(onset, len(durations)):
        d = durations[i]
        if d is None:
            continue
        recent = healthy[-window:]
        baseline = statistics.median(recent)
        mad = statistics.median(abs(x - baseline) for x in recent)
        if d > detect_factor * baseline + mad_factor * mad:
            detected_iteration = i
            break
        healthy.append(float(d))
    if baseline is None:
        # No post-onset measurement arrived (empty or all-failed window).
        baseline = statistics.median(healthy[-window:])
    out: Dict[str, object] = {
        "baseline_duration_s": float(baseline),
        "detect_factor": detect_factor,
        "fault_onset_iteration": onset,
        "detected": detected_iteration is not None,
        "detected_iteration": detected_iteration,
        "iterations_to_detect": None,
        "time_to_detect_s": None,
    }
    if detected_iteration is not None:
        out["iterations_to_detect"] = detected_iteration - onset + 1
        out["time_to_detect_s"] = float(
            sum(
                d
                for d in durations[onset : detected_iteration + 1]
                if d is not None
            )
        )
    return out


def detect_epochs(
    durations: Sequence[Optional[float]],
    onsets: Sequence[int],
    expected_duration: float,
    detect_factor: float = DETECT_FACTOR,
    window: int = DETECT_WINDOW,
    mad_factor: float = MAD_FACTOR,
) -> List[Dict[str, object]]:
    """Per-epoch detection for a failure that relocates mid-campaign.

    Epoch ``k`` spans ``[onsets[k], onsets[k+1])`` (the last runs to the
    end).  Every epoch's healthy history is seeded from the durations
    *before the first onset* — once any failure has been active, later
    windows are no longer healthy references.
    """
    onsets = [int(o) for o in onsets]
    if any(b <= a for a, b in zip(onsets, onsets[1:])):
        raise ValueError("epoch onsets must be strictly increasing")
    seed = list(durations[: onsets[0]])
    verdicts = []
    for k, onset in enumerate(onsets):
        end = onsets[k + 1] if k + 1 < len(onsets) else len(durations)
        verdict = detect_failure(
            seed + list(durations[onset:end]),
            len(seed),
            expected_duration,
            detect_factor=detect_factor,
            window=window,
            mad_factor=mad_factor,
        )
        # Remap the synthetic sequence's index back to campaign iterations.
        shift = onset - len(seed)
        if verdict["detected_iteration"] is not None:
            verdict["detected_iteration"] += shift
        verdict["fault_onset_iteration"] = onset
        verdict["epoch"] = k
        verdict["end_iteration"] = end
        verdicts.append(verdict)
    return verdicts


def _epoch_truths(
    plan: FaultPlan,
    onsets: Sequence[int],
    ends: Sequence[int],
    aligned_stats: Sequence[Optional[list]],
) -> List[Optional[str]]:
    """Ground-truth failed link per epoch, when it is unambiguous.

    Preferred source: the plan itself (a single pinned ``links`` victim
    on the epoch's link-failure spec).  Fallback: the union of victim
    names the injectors actually recorded (``failed_links`` in the
    epoch's workload stats).  Several distinct victims → no single truth.
    """
    truths: List[Optional[str]] = []
    for onset, end in zip(onsets, ends):
        pinned = set()
        for spec in plan.faults:
            if spec.kind != "link-failure":
                continue
            p = spec.param_dict()
            if int(p.get("from_iteration", 0)) != onset:
                continue
            pinned.update(p.get("links") or ())
        if len(pinned) != 1:
            pinned = set()
            for i in range(onset, min(end, len(aligned_stats))):
                for row in aligned_stats[i] or ():
                    pinned.update(row.get("failed_links") or ())
        truths.append(next(iter(pinned)) if len(pinned) == 1 else None)
    return truths


def _aligned_record(record, planned: int):
    """Planned-iteration-aligned (completions, durations, stats) lists.

    ``MeasurementRecord`` stores only the *achieved* iterations; quorum
    campaigns may have holes.  Detection and localization reason about
    planned iteration indices (fault onsets are planned indices), so the
    record is re-spread with ``None`` in the failed slots.
    """
    failed = set(record.failed_iterations)
    achieved_slots = [i for i in range(planned) if i not in failed]
    completions: List[Optional[Dict[str, float]]] = [None] * planned
    durations: List[Optional[float]] = [None] * planned
    stats: List[Optional[list]] = [None] * planned
    for slot, result in zip(achieved_slots, record.results):
        completions[slot] = result.completion_times
        durations[slot] = result.duration
    for slot, rows in zip(achieved_slots, record.workload_stats):
        stats[slot] = rows
    return completions, durations, stats


def run_fault_study(
    ds: Dataset,
    faults="blackout",
    workload=None,
    iterations: int = 6,
    num_fragments: int = 300,
    seed: int = 2012,
    noise_threshold: float = 0.8,
    stepping: Optional[str] = None,
    track_convergence: bool = False,
    detect_factor: float = DETECT_FACTOR,
    executor=None,
    quorum: Optional[int] = None,
) -> Dict[str, object]:
    """Measure a dataset under a fault plan and evaluate recovery,
    detection and localization.

    ``workload`` optionally layers an interference workload under the
    faults (failures rarely arrive on an idle cluster).  ``quorum`` lets
    the campaign proceed with ≥k surviving iterations; the summary then
    reports ``degraded`` and the achieved count instead of raising.
    """
    plan = fault_plan_from_name(faults)
    config = default_swarm_config(num_fragments, stepping=stepping)
    pipeline = TomographyPipeline(
        ds.topology,
        hosts=ds.hosts,
        ground_truth=ds.ground_truth,
        config=config,
        seed=seed,
        workload=workload,
        faults=plan,
        executor=executor,
    )
    result = pipeline.run(
        iterations, track_convergence=track_convergence, quorum=quorum
    )
    record = result.record
    planned = record.planned_iterations or record.iterations
    completions, durations, stats = _aligned_record(record, planned)
    expected = expected_broadcast_duration(config)
    detection = detect_failure(
        durations,
        fault_onset_iteration(plan),
        expected,
        detect_factor=detect_factor,
    )
    summary: Dict[str, object] = {
        "dataset": ds.name,
        "hosts": ds.num_hosts,
        "iterations": iterations,
        "achieved_iterations": result.achieved_iterations,
        "degraded": result.degraded,
        "failed_iterations": record.failed_iterations,
        "found_clusters": result.num_clusters,
        "expected_clusters": ds.expectation.expected_clusters,
        "measured_nmi": result.nmi,
        "measured_classical_nmi": result.classical_nmi,
        "modularity": result.modularity,
        "measurement_time_s": result.measurement_time,
        "nmi_per_iteration": result.nmi_per_iteration,
        "stepping": config.stepping,
        "control_steps": record.total_control_steps(),
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
    summary.update(detection)
    summary.update(_localization_summary(
        plan, completions, durations, stats, planned,
        pipeline.campaign.routing, expected, detect_factor,
    ))
    summary.update(plan.metadata())
    if pipeline.campaign.workload is not None:
        summary.update(pipeline.campaign.workload.metadata())
    summary.update(summarize_workload_stats(record.workload_stats))
    return summary


def _localization_summary(
    plan: FaultPlan,
    completions: Sequence[Optional[Dict[str, float]]],
    durations: Sequence[Optional[float]],
    stats: Sequence[Optional[list]],
    planned: int,
    routing,
    expected_duration: float,
    detect_factor: float,
) -> Dict[str, object]:
    """Localization + per-epoch verdicts for the study summary.

    The top-level headline numbers aggregate across epochs the way an
    operator would score the study: ``time_to_localize_s`` sums the
    per-epoch costs (``None`` if any epoch never converged),
    ``localization_rank`` is the *worst* epoch's rank, and
    ``localized_link`` is the most recent epoch's verdict.
    """
    out: Dict[str, object] = {
        "localized_link": None,
        "localization_status": "no-faults",
        "localization_rank": None,
        "localization_candidates": [],
        "true_link": None,
        "iterations_to_localize": None,
        "time_to_localize_s": None,
        "epochs": [],
    }
    onsets = fault_epoch_onsets(plan)
    if not onsets:
        return out
    ends = [
        onsets[k + 1] if k + 1 < len(onsets) else planned
        for k in range(len(onsets))
    ]
    truths = _epoch_truths(plan, onsets, ends, stats)
    located = localize_epochs(completions, durations, onsets, routing, truths)
    detected = detect_epochs(
        durations, onsets, expected_duration, detect_factor=detect_factor
    )
    epochs = []
    for det, loc in zip(detected, located):
        merged = dict(det)
        merged.update(loc)
        epochs.append(merged)
    ranks = [e["localization_rank"] for e in located]
    times = [e["time_to_localize_s"] for e in located]
    iters = [e["iterations_to_localize"] for e in located]
    last = located[-1]
    out.update(
        localized_link=last["localized_link"],
        localization_status=last["localization_status"],
        localization_candidates=last["localization_candidates"],
        true_link=last["true_link"],
        localization_rank=(
            max(ranks) if ranks and all(r is not None for r in ranks) else None
        ),
        time_to_localize_s=(
            float(sum(times)) if times and all(t is not None for t in times) else None
        ),
        iterations_to_localize=(
            int(sum(iters)) if iters and all(i is not None for i in iters) else None
        ),
        epochs=epochs,
    )
    return out
