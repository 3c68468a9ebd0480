"""The four benchmark workloads, their correctness checks and their metrics.

Load shape: every workload is a closed loop with one client, the serial
executor and event stepping (the package default).  No threads, no process
pool.  A workload is set up several times (``setup_s`` is the median), then
runs *rounds* until the time budget is spent.  A round is one or more timed
*ops* plus, for the campaign workloads, the untimed analysis of the campaign
those ops measured.  Rounds stop at the deadline, a campaign between two
ops; an unfinished campaign is not analysed.

Every op is checked.  An op that raises or fails a check counts as failed
and its latency as infinite, so it misses every latency limit.

Times are taken by :class:`speed.SpeedProbe`: each set-up and op records its
wall time and its machine-speed-normalised time; the gated metrics use the
latter (see ``speed.py`` for why).
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from layers import LayerTracer
from speed import SpeedProbe

#: The paper's bar: a converged clustering matches the ground truth
#: (overlapping NMI 1.0, minus float noise).  ``converged_at`` uses it,
#: every run reports how many analysed campaigns end below it
#: (``nmi_below_paper``), and reanalysis fails any op below it: its 30
#: broadcasts exceed the ~15 the paper needs on B-G-T-L, and every seed
#: probed reaches 1.0.  A 10-broadcast campaign is held to no floor.  On
#: B-G-T-L it is shorter than the paper's 15 iterations; most end at 1.0,
#: but one of about a hundred probed ended at 0.965.  On G-T it should
#: reach 1.0 within 2 iterations and does not: at 16/site and 2000
#: fragments campaigns end anywhere between 0.40 and 1.0 depending on the
#: seed, a known defect of the reproduction.
PAPER_NMI = 0.99

#: The Bordeaux bottleneck LINK-BLACKOUT kills; the study must name it.
BLACKOUT_LINK = "bordeaux.bordeplage.bottleneck"


@dataclass
class Op:
    """Outcome of one timed operation."""

    latency_s: float  # normalised to nominal machine speed
    wall_s: float
    ok: bool
    receipts: float


@dataclass
class Outcome:
    """What a workload run measured, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    machine_slowdown: float = 1.0
    ops: List[Op] = field(default_factory=list)
    traced_ops: List[int] = field(default_factory=list)
    untraced_ops: List[int] = field(default_factory=list)
    nmi: List[float] = field(default_factory=list)
    iterations_to_converge: List[float] = field(default_factory=list)
    time_to_localize_sim_s: List[float] = field(default_factory=list)
    #: METRICS counter deltas summed over traced rounds.
    counters: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, int] = field(default_factory=dict)


def _check(outcome: Outcome, name: str, passed: bool, detail: str) -> bool:
    """Count an executed check by name; report a failure on stderr."""
    outcome.checks[name] = outcome.checks.get(name, 0) + 1
    if not passed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    return passed


def conserved(outcome: Outcome, result, fragments: int) -> bool:
    """Fragment conservation on one broadcast: every non-root host received
    exactly ``fragments`` fragments (so receipts = (hosts - 1) x fragments),
    the root none, and every non-root host has a finite completion time."""
    counts = result.fragments.counts
    per_host = counts.sum(axis=1)
    root = result.fragments.index[result.root]
    expected = np.full(len(per_host), float(fragments))
    expected[root] = 0.0
    times = result.completion_times
    timed = all(
        host in times and math.isfinite(times[host]) and times[host] >= 0.0
        for host in result.fragments.labels if host != result.root
    )
    return _check(
        outcome, "fragment_conservation",
        bool(np.array_equal(per_host, expected)) and timed,
        f"root {result.root}: receipts {counts.sum():.0f}, expected "
        f"{(len(per_host) - 1) * fragments}; completion times present: {timed}",
    )


def converged_at(curve: List[float]) -> float:
    """Smallest k such that every prefix clustering from k on has NMI >= 0.99
    (the Fig. 13 metric); ``len(curve) + 1`` when the last one misses."""
    k = len(curve) + 1
    for index in range(len(curve), 0, -1):
        if curve[index - 1] < PAPER_NMI:
            break
        k = index
    return float(k)


class Harness:
    """Times and checks ops; opens trace spans when a tracer is attached."""

    def __init__(self, outcome: Outcome, tracer: Optional[LayerTracer],
                 probe: SpeedProbe, deadline: float) -> None:
        self.outcome = outcome
        self.tracer = tracer
        self.probe = probe
        self.deadline = deadline
        self.traced = False
        #: The current round runs to its end even past the deadline.
        self.must_finish = True

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def stop_round(self) -> bool:
        """True when a multi-op round should stop before its next op."""
        return self.expired() and not self.must_finish

    def op(self, body: Callable[[], object], check: Callable[[object], bool],
           receipts: Callable[[object], float]) -> Op:
        index = len(self.outcome.ops)
        (self.outcome.traced_ops if self.traced else self.outcome.untraced_ops).append(index)
        try:
            with self.tracer.span("op", index) if self.traced else nullcontext():
                value, wall, latency = self.probe.timed(body)
            op = Op(latency, wall, bool(check(value)), float(receipts(value)))
        except Exception:  # a failed op is counted, the loop keeps running
            traceback.print_exc(file=sys.stderr)
            op = Op(math.inf, math.inf, False, 0.0)
        self.outcome.ops.append(op)
        return op

    def untimed(self, body: Callable[[], object]) -> Optional[object]:
        """Run untimed work (campaign analysis), inside an ``analysis`` span
        when traced; ``None`` if it raised."""
        try:
            with (self.tracer.span("analysis", len(self.outcome.ops) - 1)
                  if self.traced else nullcontext()):
                return body()
        except Exception:  # the caller fails the ops the analysis covered
            traceback.print_exc(file=sys.stderr)
            return None


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class Workload:
    name = ""
    why = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 9

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self, seed: int, outcome: Outcome) -> None:
        raise NotImplementedError

    def round(self, harness: Harness) -> None:
        raise NotImplementedError


class Campaign(Workload):
    """Measured broadcasts on a paper dataset.  One op is one broadcast,
    ``MeasurementCampaign.run_iteration(i)`` for consecutive ``i``; a round is
    one campaign, analysed untimed after its last op."""

    dataset_name = ""
    per_site = 0
    fragments = 0
    campaign = 10

    def sizes(self) -> Dict[str, object]:
        if self.tiny:
            return {"dataset": self.dataset_name, "per_site": 2,
                    "fragments": 40, "campaign": 2}
        return {"dataset": self.dataset_name, "per_site": self.per_site,
                "fragments": self.fragments, "campaign": self.campaign}

    def setup(self, seed: int, outcome: Outcome) -> None:
        from repro.experiments import datasets
        from repro.tomography.pipeline import TomographyPipeline, default_swarm_config

        size = self.sizes()
        ds = datasets.dataset(size["dataset"], per_site=size["per_site"])
        self.pipeline = TomographyPipeline(
            ds.topology, hosts=ds.hosts, ground_truth=ds.ground_truth,
            config=default_swarm_config(size["fragments"]), seed=seed,
        )
        self.next_iteration = 0

    def round(self, harness: Harness) -> None:
        from repro.tomography.measurement import MeasurementRecord

        size = self.sizes()
        outcome = harness.outcome
        results, ops = [], []

        def check(result) -> bool:
            results.append(result)
            return conserved(outcome, result, size["fragments"])

        for count in range(size["campaign"]):
            if count and harness.stop_round():
                return  # an unfinished campaign is not analysed
            iteration = self.next_iteration
            self.next_iteration += 1
            ops.append(harness.op(
                lambda: self.pipeline.campaign.run_iteration(iteration),
                check,
                lambda r: r.fragments.total_fragments(),
            ))
        if not results:
            return
        record = MeasurementRecord(hosts=list(self.pipeline.hosts), results=results)
        analysed = harness.untimed(
            lambda: self.pipeline.analyze(record, track_convergence=True)
        )
        if analysed is None:
            for op in ops:
                op.ok = False
            return
        outcome.nmi.append(analysed.nmi)
        outcome.iterations_to_converge.append(converged_at(analysed.nmi_per_iteration))


class PaperGT(Campaign):
    name = "paper-gt"
    why = ("G-T at 16/site (32 hosts), 2000 fragments: conversion-bound, the "
           "swarm session loop dominates; a conversion kernel shows here")
    dataset_name = "G-T"
    per_site = 16
    fragments = 2000


class WideBGTL(Campaign):
    name = "wide-bgtl"
    why = ("B-G-T-L at 32/site (128 hosts), 60 fragments: pipe-churn-bound, "
           "network solve and transfer start/cancel are half the time")
    dataset_name = "B-G-T-L"
    per_site = 32
    fragments = 60


class Blackout(Workload):
    """LINK-BLACKOUT at the ci-profile size: one op is one full fault study,
    6 iterations through ``WorkloadEngine`` with the failure injected, then
    detection and localization.  Each study gets its own seed drawn from the
    workload seed."""

    name = "blackout"
    why = ("LINK-BLACKOUT fault study at 600 fragments: the fluid layer through "
           "the multi-tenant engine, plus detection and localization")

    def sizes(self) -> Dict[str, object]:
        return {"scenario": "LINK-BLACKOUT", "fragments": 240 if self.tiny else 600,
                "iterations": 6, "per_site": 4}

    def setup(self, seed: int, outcome: Outcome) -> None:
        # What the study builds before its first broadcast: the scenario,
        # its three-cluster Bordeaux substrate (the catalog's localization
        # dataset at per_site=4), routing and the faulted pipeline.
        from repro.experiments import datasets
        from repro.faults import blackout_plan
        from repro.scenarios import get_scenario
        from repro.tomography.pipeline import TomographyPipeline, default_swarm_config

        size = self.sizes()
        self.spec = get_scenario(size["scenario"])
        ds = datasets.dataset("B", bordeplage=size["per_site"],
                              bordereau=size["per_site"] - 1, borderline=2)
        TomographyPipeline(
            ds.topology, hosts=ds.hosts, ground_truth=ds.ground_truth,
            config=default_swarm_config(size["fragments"]), seed=seed,
            faults=blackout_plan(from_iteration=2, residual=0.02, link=BLACKOUT_LINK),
        )
        self.seeds = np.random.default_rng(seed)

    def round(self, harness: Harness) -> None:
        size = self.sizes()
        outcome = harness.outcome
        study_seed = int(self.seeds.integers(2**31))

        def check(summary) -> bool:
            ok = all([
                conserved(outcome, r, size["fragments"])
                for r in summary["result"].record.results
            ])
            ok &= _check(
                outcome, "blackout_localized",
                bool(summary["detected"])
                and summary["localized_link"] == BLACKOUT_LINK
                and summary["localization_rank"] == 1,
                f"detected={summary['detected']} link={summary['localized_link']} "
                f"rank={summary['localization_rank']}",
            )
            if ok:
                outcome.nmi.append(summary["measured_nmi"])
                outcome.time_to_localize_sim_s.append(summary["time_to_localize_s"])
            return ok

        harness.op(
            lambda: self.spec.run(num_fragments=size["fragments"], seed=study_seed),
            check,
            lambda s: sum(r.fragments.total_fragments()
                          for r in s["result"].record.results),
        )


class Reanalysis(Workload):
    """Analysis only: the record is measured in set-up, and one op is
    ``TomographyPipeline.analyze(record, track_convergence=True)``."""

    name = "reanalysis"
    why = ("re-analyse a measured 64-host B-G-T-L record (30 broadcasts): "
           "analysis only, Louvain and the metric graph dominate")
    setups = 3

    def sizes(self) -> Dict[str, object]:
        if self.tiny:
            return {"dataset": "B-G-T-L", "per_site": 2, "fragments": 20, "iterations": 3}
        return {"dataset": "B-G-T-L", "per_site": 16, "fragments": 60, "iterations": 30}

    def setup(self, seed: int, outcome: Outcome) -> None:
        from repro.experiments import datasets
        from repro.tomography.pipeline import TomographyPipeline, default_swarm_config

        size = self.sizes()
        ds = datasets.dataset(size["dataset"], per_site=size["per_site"])
        self.pipeline = TomographyPipeline(
            ds.topology, hosts=ds.hosts, ground_truth=ds.ground_truth,
            config=default_swarm_config(size["fragments"]), seed=seed,
        )
        record = self.pipeline.campaign.run(size["iterations"])
        # Every set-up measures the same record; each must conserve fragments.
        self.record_ok = all(
            [conserved(outcome, r, size["fragments"]) for r in record.results]
        )
        self.record = record
        self.receipts = sum(r.fragments.total_fragments() for r in record.results)
        self.partition = None

    def round(self, harness: Harness) -> None:
        outcome = harness.outcome

        def check(analysed) -> bool:
            if self.partition is None:
                self.partition = analysed.partition
                outcome.nmi.append(analysed.nmi)
                outcome.iterations_to_converge.append(
                    converged_at(analysed.nmi_per_iteration))
            same = _check(outcome, "same_partition",
                          analysed.partition == self.partition,
                          "re-analysis returned a different partition")
            converged = _check(outcome, "nmi_floor", analysed.nmi >= PAPER_NMI,
                               f"NMI {analysed.nmi:.4f} < {PAPER_NMI}")
            return self.record_ok and same and converged

        harness.op(
            lambda: self.pipeline.analyze(self.record, track_convergence=True),
            check,
            lambda _: self.receipts,
        )


WORKLOADS = {cls.name: cls for cls in (PaperGT, WideBGTL, Blackout, Reanalysis)}


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #
#: Op id under which the traced set-up's spans are filed.
SETUP_OP = -2


def run(workload: Workload, seed: int, seconds: float,
        tracer: Optional[LayerTracer]) -> Outcome:
    """Set up, then run rounds for ``seconds``.  With a tracer, every second
    round is traced, so traced and untraced rounds interleave under the same
    machine conditions."""
    # Package imports are process start-up, not set-up: pay them first.
    import repro.experiments.datasets  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.tomography.pipeline  # noqa: F401
    from repro.observability.metrics import METRICS

    outcome = Outcome()
    with SpeedProbe() as probe:
        # ``setups`` untraced set-ups give ``setup_s``; a traced run adds
        # one traced set-up for the per-layer ``setup.*`` figures.
        for k in range(workload.setups + (tracer is not None)):
            traced = k == workload.setups
            if traced:
                tracer.install()
            try:
                with tracer.span("setup", SETUP_OP) if traced else nullcontext():
                    _, wall, normalised = probe.timed(lambda: workload.setup(seed, outcome))
            finally:
                if traced:
                    tracer.uninstall()
            if not traced:
                outcome.setup_s.append(normalised)
                outcome.setup_wall_s.append(wall)

        harness = Harness(outcome, tracer, probe, time.perf_counter() + seconds)
        # A traced run needs at least one complete untraced and traced round.
        complete = 2 if tracer is not None else 1
        rounds = 0
        while rounds < complete or not harness.expired():
            harness.traced = tracer is not None and rounds % 2 == 1
            harness.must_finish = rounds < complete
            if harness.traced:
                before = METRICS.snapshot()
                tracer.install()
            try:
                workload.round(harness)
            finally:
                if harness.traced:
                    tracer.uninstall()
                    delta = METRICS.snapshot().delta_since(before).counters
                    for key, value in delta.items():
                        outcome.counters[key] = outcome.counters.get(key, 0.0) + value
            rounds += 1
        outcome.machine_slowdown = probe.slowdown()
    return outcome


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else math.nan
