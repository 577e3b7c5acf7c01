"""Picklable run descriptions — what crosses the process boundary.

The sweep engine never ships live simulator objects to workers: nodes,
configurations, arrival streams and trace buses all hold cross-references
(and closures) that are expensive or impossible to pickle, and shipping them
would break the determinism contract — a worker must derive its workload
from the seed exactly the way a serial run does, so that the run it executes
is byte-for-byte the run ``jobs=1`` would have executed.  A
:class:`RunSpec` therefore carries only scalars: the
:class:`~repro.framework.campaign.FaultCampaignSpec` (Table II workload
knobs + mode + seed + fault process) plus the manager backend and the
collection switches for the optional payload extras.

:class:`RunPayload` is the return trip: a ``SimulationResult``-equivalent
bundle of picklable end products (the Table I
:class:`~repro.metrics.table1.MetricsReport`, the fault campaign's
:class:`~repro.metrics.resilience.ResilienceReport`, the monitor's time
series, the raw trace events, and the trace digest — computed *inside* the
worker so it is byte-identical to a single-process run).  Payloads are keyed
by the spec's position in the submitted sequence, which is how the executor
re-establishes serial order regardless of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.framework.campaign import FaultCampaignSpec
from repro.metrics.resilience import ResilienceReport
from repro.metrics.table1 import MetricsReport
from repro.metrics.timeseries import TimeSeries
from repro.resources import BACKENDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.paperconfig import Scenario
    from repro.trace.events import TraceEvent


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, described entirely by picklable scalars.

    Parameters
    ----------
    campaign:
        Workload + mode + seed + fault knobs.  A spec with no fault knob set
        describes exactly the run :func:`repro.quick_simulation` performs.
    backend:
        Resource-manager backend, one of :data:`repro.resources.BACKENDS`
        (``"array"`` by default, as for :class:`repro.framework.DReAMSim`).
        Any other name raises :class:`ValueError` at construction, so a bad
        sweep fails before it runs anything.
    collect_digest:
        Attach a :class:`~repro.trace.bus.DigestSink` in the worker and
        return the run's order-sensitive trace digest.
    collect_events:
        Return the full in-memory event list (replay consumers; large).
        Implies the bus is attached, so it also yields a digest-bearing
        event stream identical to ``collect_digest``'s.
    collect_monitor:
        Return the monitor's busy/queue/waste/running time series.
    """

    campaign: FaultCampaignSpec
    backend: str = "array"
    collect_digest: bool = False
    collect_events: bool = False
    collect_monitor: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; options: {BACKENDS}"
            )

    @classmethod
    def from_scenario(
        cls,
        scenario: "Scenario",
        backend: str = "array",
        collect_digest: bool = False,
        collect_events: bool = False,
        collect_monitor: bool = False,
    ) -> "RunSpec":
        """The spec equivalent of one :class:`~repro.analysis.paperconfig.Scenario`.

        The campaign builder derives the workload through the same generator
        sequence (nodes, configs, stream off one seeded RNG) as
        :func:`repro.analysis.runner.run_scenario`, so the resulting report
        is bit-identical to the serial runner's.
        """
        return cls(
            campaign=FaultCampaignSpec(
                nodes=scenario.nodes,
                configs=scenario.configs,
                tasks=scenario.tasks,
                partial=scenario.partial,
                seed=scenario.seed,
            ),
            backend=backend,
            collect_digest=collect_digest,
            collect_events=collect_events,
            collect_monitor=collect_monitor,
        )

    def with_seed(self, seed: int) -> "RunSpec":
        """The same run re-seeded (fault seed re-derives from it by default)."""
        return replace(self, campaign=replace(self.campaign, seed=seed))

    def label(self) -> str:
        """Human-readable identifier for progress and error messages."""
        c = self.campaign
        mode = "partial" if c.partial else "full"
        tag = f"n{c.nodes}-t{c.tasks}-{mode}-s{c.seed}"
        if c.faults_enabled:
            tag += "-faults"
        if self.backend != "array":
            tag += f"-{self.backend}"
        return tag


@dataclass(frozen=True)
class MonitorSeries:
    """The monitor's four time series, detached from live simulator state."""

    busy_nodes: TimeSeries
    queue_length: TimeSeries
    wasted_area: TimeSeries
    running_tasks: TimeSeries
    sample_count: int


@dataclass(frozen=True)
class RunPayload:
    """Everything one worker sends back for one :class:`RunSpec`.

    ``index`` is the spec's position in the submitted sequence; merging
    sorts on it, which restores serial order no matter how the pool
    interleaved completions.
    """

    index: int
    spec: RunSpec
    report: MetricsReport
    final_time: int
    resilience: Optional[ResilienceReport] = None
    digest: Optional[str] = None
    monitor: Optional[MonitorSeries] = None
    events: Optional[list["TraceEvent"]] = field(default=None, repr=False)


__all__ = ["MonitorSeries", "RunPayload", "RunSpec"]
