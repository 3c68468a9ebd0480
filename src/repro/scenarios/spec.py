"""Declarative scenario specifications.

A :class:`ScenarioSpec` bundles everything needed to reproduce one
experimental setting: how to build the substrate (topology + hosts + ground
truth, via a :class:`~repro.experiments.datasets.Dataset` factory), the
campaign parameters (iterations, fragments per broadcast, seed, root
rotation), and the expectations recorded on the dataset.  Specs are frozen:
running one never mutates it, so the same spec can be executed repeatedly,
swept over parameter grids, and fanned out across executor backends.

Two flavours exist:

* *campaign scenarios* carry a ``dataset_factory`` and run the standard
  measure → aggregate → cluster → evaluate pipeline;
* *runner scenarios* carry a custom ``runner`` callable for experiments that
  do not fit the single-campaign mould (Fig. 4/5/13, broadcast efficiency,
  baseline cost, NetPIPE probes).

Both produce a plain summary dictionary; :func:`to_jsonable` strips it down
to what can be written with ``json.dump`` (the CLI's ``--json`` output).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.datasets import Dataset
from repro.scenarios.executors import CampaignExecutor, default_executor

#: Campaign parameters every scenario understands; ``ScenarioSpec.run``
#: resolves them from spec defaults and per-run overrides.
CAMPAIGN_PARAMS = ("iterations", "num_fragments", "seed")


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered experimental scenario.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"B-G-T"`` or ``"FATTREE-4x4"``.
    family:
        Scenario family (``"paper"``, ``"figure"``, ``"fat-tree"``, ...);
        used for grouping in ``repro list`` and for sweep selection.
    description:
        One-line human description.
    dataset_factory:
        Builds the topology/hosts/ground-truth bundle; keyword arguments are
        the scenario's tunables (e.g. ``per_site``).  Exactly one of
        ``dataset_factory`` and ``runner`` must be set.
    runner:
        Custom experiment body for scenarios that are not a single campaign.
        Called as ``runner(iterations=..., num_fragments=..., seed=...,
        executor=..., **extra_overrides)`` and must return a summary dict.
    iterations / num_fragments / seed:
        Campaign defaults, overridable per run.
    rotate_root:
        Whether the campaign rotates the seeding root across iterations.
    track_convergence:
        Whether the default pipeline records the NMI-vs-iterations curve.
    stepping:
        Swarm control-loop stepping policy (``"fixed"``/``"event"``) the
        scenario pins, or ``None`` to follow the environment default
        (``REPRO_STEPPING``, ultimately ``"event"``).  Both policies produce
        bit-for-bit identical measurements (docs/simulation.md).
    tags:
        Free-form labels (``"beyond-paper"``, ``"sweepable"``, ...).
    formatter:
        Optional summary → human-readable text renderer used by the CLI.
    """

    name: str
    family: str
    description: str = ""
    dataset_factory: Optional[Callable[..., Dataset]] = None
    runner: Optional[Callable[..., Dict[str, object]]] = None
    iterations: int = 8
    num_fragments: int = 600
    seed: int = 2012
    rotate_root: bool = False
    track_convergence: bool = True
    stepping: Optional[str] = None
    tags: Tuple[str, ...] = ()
    formatter: Optional[Callable[[Dict[str, object]], str]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if (self.dataset_factory is None) == (self.runner is None):
            raise ValueError(
                f"scenario {self.name!r} needs exactly one of "
                "dataset_factory or runner"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.num_fragments < 1:
            raise ValueError("num_fragments must be at least 1")

    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        return "campaign" if self.dataset_factory is not None else "runner"

    def build_dataset(self, **overrides) -> Dataset:
        """Instantiate the scenario's dataset (campaign scenarios only)."""
        if self.dataset_factory is None:
            raise ValueError(f"scenario {self.name!r} has no dataset (custom runner)")
        return self.dataset_factory(**overrides)

    def unknown_overrides(self, overrides: Mapping[str, object]) -> List[str]:
        """Override names the scenario's tunable surface does not accept.

        Campaign overrides go to the dataset factory, runner overrides to
        the runner; a ``**kwargs`` in either accepts everything.  Used by
        the CLI to reject typos up front instead of catching ``TypeError``
        around the whole run (which would swallow genuine bugs).
        """
        target = self.dataset_factory or self.runner
        parameters = inspect.signature(target).parameters
        if any(p.kind == p.VAR_KEYWORD for p in parameters.values()):
            return []
        return sorted(k for k in overrides if k not in parameters)

    def run(
        self,
        executor: Optional[CampaignExecutor] = None,
        iterations: Optional[int] = None,
        num_fragments: Optional[int] = None,
        seed: Optional[int] = None,
        track_convergence: Optional[bool] = None,
        stepping: Optional[str] = None,
        workload: Optional[object] = None,
        faults: Optional[object] = None,
        quorum: Optional[int] = None,
        detect_factor: Optional[float] = None,
        **overrides,
    ) -> Dict[str, object]:
        """Execute the scenario and return its summary dictionary.

        ``overrides`` are forwarded to the dataset factory (campaign
        scenarios) or the custom runner; campaign parameters default to the
        spec's values.  ``workload`` (a preset name or
        :class:`~repro.workloads.WorkloadSpec`) layers a multi-tenant
        interference workload under the measurement campaign; ``faults``
        (a preset name or :class:`~repro.faults.FaultPlan`) injects
        deterministic failures, and ``quorum`` lets the campaign proceed
        with ≥k surviving iterations.  The summary always carries
        ``scenario``, ``family``, ``executor`` and ``stepping`` keys so
        downstream records know what produced them.  Without an explicit
        ``executor`` the environment's default (``REPRO_EXECUTOR``) is
        resolved here, once, so the summary names the backend that ran.
        """
        if executor is None:
            executor = default_executor()
        iterations = self.iterations if iterations is None else iterations
        num_fragments = self.num_fragments if num_fragments is None else num_fragments
        seed = self.seed if seed is None else seed
        track = self.track_convergence if track_convergence is None else track_convergence
        stepping = self.stepping if stepping is None else stepping

        if self.runner is not None:
            if track_convergence is not None:
                # Only forward an *explicit* request: runners that have no
                # convergence notion then raise a clear TypeError instead of
                # silently ignoring the caller's toggle.
                overrides = {**overrides, "track_convergence": track_convergence}
            parameters = inspect.signature(self.runner).parameters
            accepts_kwargs = any(
                p.kind == p.VAR_KEYWORD for p in parameters.values()
            )
            if stepping is not None:
                # Forward the stepping policy only to runners that take it:
                # swarm-less experiments (e.g. the NetPIPE probes) have no
                # control loop, so a suite-wide default must not break them.
                if "stepping" in parameters or accepts_kwargs:
                    overrides = {**overrides, "stepping": stepping}
            if workload is not None:
                # Same contract for the interference workload: an explicit
                # request against a runner with no measurement campaign
                # (NetPIPE) raises instead of being silently dropped.
                overrides = {**overrides, "workload": workload}
            if faults is not None:
                # And for fault plans — explicit-only, never silently lost.
                overrides = {**overrides, "faults": faults}
            if quorum is not None:
                overrides = {**overrides, "quorum": quorum}
            if detect_factor is not None:
                # The detector threshold only means something to runners
                # with a failure-detection stage; anywhere else an explicit
                # request is an error, not a silently ignored knob.
                if "detect_factor" not in parameters and not accepts_kwargs:
                    raise ValueError(
                        f"scenario {self.name} has no failure detector; "
                        "--detect-factor only applies to fault-injection "
                        "scenarios"
                    )
                overrides = {**overrides, "detect_factor": detect_factor}
            summary = self.runner(
                iterations=iterations,
                num_fragments=num_fragments,
                seed=seed,
                executor=executor,
                **overrides,
            )
        else:
            from repro.experiments.runners import run_dataset_clustering

            if detect_factor is not None:
                raise ValueError(
                    f"scenario {self.name} has no failure detector; "
                    "--detect-factor only applies to fault-injection "
                    "scenarios"
                )
            ds = self.build_dataset(**overrides)
            summary = run_dataset_clustering(
                ds,
                iterations=iterations,
                num_fragments=num_fragments,
                seed=seed,
                track_convergence=track,
                rotate_root=self.rotate_root,
                executor=executor,
                stepping=stepping,
                workload=workload,
                faults=faults,
                quorum=quorum,
            )
        from repro.bittorrent.swarm import default_stepping

        summary["scenario"] = self.name
        summary["family"] = self.family
        # Runners whose campaign cannot fan out (quorum campaigns run the
        # resilient in-process loop) pre-stamp their actual backend;
        # everything else records the one it was handed.
        summary.setdefault(
            "executor", executor.name if executor is not None else "serial"
        )
        summary.setdefault("stepping", stepping or default_stepping())
        summary["iterations_run"] = iterations
        summary["seed_used"] = seed
        return summary

    def format(self, summary: Mapping[str, object]) -> str:
        """Render a summary for terminal output."""
        if self.formatter is not None:
            return self.formatter(dict(summary))
        return default_format(dict(summary))

    def describe(self) -> str:
        """One-line listing entry."""
        kind = "campaign" if self.dataset_factory is not None else "runner"
        return f"{self.name:16s} [{self.family}/{kind}] {self.description}"


# ---------------------------------------------------------------------- #
# summary rendering and JSON conversion
# ---------------------------------------------------------------------- #
def default_format(summary: Dict[str, object]) -> str:
    """Generic fallback rendering: every scalar entry, one per line."""
    lines = [f"scenario {summary.get('scenario', '?')} "
             f"(family {summary.get('family', '?')}, "
             f"executor {summary.get('executor', '?')})"]
    for key, value in summary.items():
        if key in ("scenario", "family", "executor"):
            continue
        if isinstance(value, (str, int, float, bool)) or value is None:
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


#: Sentinel for values that cannot be represented in JSON output.
_OMIT = object()

#: Keys of heavyweight in-memory objects stripped from JSON summaries.
_HEAVY_KEYS = frozenset({"result", "record"})


def to_jsonable(value: object) -> object:
    """Best-effort conversion of a summary value into JSON-encodable data.

    Simulation objects that have no sensible JSON form (pipeline results,
    measurement records, graphs) collapse to the internal ``_OMIT`` marker
    and are dropped from their containing dict/list by the caller.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            converted = to_jsonable(item)
            if converted is not _OMIT:
                out[str(key)] = converted
        return out
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [to_jsonable(item) for item in value]
        return [item for item in items if item is not _OMIT]
    # Convergence studies appear as values in fig13-style summaries.
    curve = getattr(value, "curve", None)
    dataset = getattr(value, "dataset", None)
    if curve is not None and dataset is not None:
        return {"dataset": dataset, "curve": [float(v) for v in curve]}
    return _OMIT


def jsonable_summary(summary: Mapping[str, object]) -> Dict[str, object]:
    """The JSON-encodable projection of a scenario summary."""
    out = {}
    for key, value in summary.items():
        if key in _HEAVY_KEYS:
            continue
        converted = to_jsonable(value)
        if converted is not _OMIT:
            out[str(key)] = converted
    return out
