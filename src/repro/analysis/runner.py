"""Scenario and sweep runners.

Every run regenerates its resources and workload from the scenario's seed,
so partial/full comparisons see byte-identical node tables and task streams
("the same set of parameters in each simulation run", §I).  Reports are
memoised per scenario within a process so the five figure builders sharing a
sweep do not re-simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import ResultCache

from repro.analysis.paperconfig import Scenario
from repro.framework.simulator import DReAMSim
from repro.metrics.table1 import MetricsReport
from repro.rng import RNG
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

_CACHE: dict[Scenario, MetricsReport] = {}


def run_scenario(
    scenario: Scenario, use_cache: bool = True, backend: str = "array"
) -> MetricsReport:
    """Run one scenario to completion and return its Table I report.

    The memo is keyed on the scenario alone: every backend produces a
    bit-identical report (the differential suite asserts it), so a cache
    hit from a different backend's run is the same report.
    """
    if use_cache and scenario in _CACHE:
        return _CACHE[scenario]
    rng = RNG(seed=scenario.seed)
    nodes = generate_nodes(scenario.node_spec(), rng)
    configs = generate_configs(scenario.config_spec(), rng)
    stream = generate_task_stream(scenario.task_spec(), configs, rng)
    sim = DReAMSim(nodes, configs, stream, partial=scenario.partial, backend=backend)
    report = sim.run().report
    if use_cache:
        _CACHE[scenario] = report
    return report


def clear_cache() -> None:
    """Drop all memoised scenario reports (frees memory between sweeps)."""
    _CACHE.clear()


def prefetch_scenarios(
    scenarios: Iterable[Scenario],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    backend: str = "array",
    cache: Optional["ResultCache"] = None,
) -> int:
    """Run every uncached scenario through the sweep engine, filling the memo.

    The workhorse behind every ``--jobs`` path: consumers list the scenarios
    a sweep/scorecard needs, this fans the uncached ones across the worker
    pool (``repro.parallel``), and the subsequent serial assembly loop turns
    into pure cache hits — so output ordering, and therefore every figure
    and table, is bit-identical to a serial run.  Returns the number of
    scenarios actually simulated.

    ``cache`` attaches an on-disk :class:`~repro.parallel.ResultCache`:
    validated entries skip execution entirely and fresh payloads persist as
    they complete, making interrupted or edited sweeps resumable
    (``--cache-dir`` in the CLI).
    """
    from repro.metrics.merge import reports_in_order
    from repro.parallel import RunSpec, SweepExecutor

    wanted: list[Scenario] = []
    seen: set[Scenario] = set()
    for sc in scenarios:
        if sc in _CACHE or sc in seen:
            continue
        seen.add(sc)
        wanted.append(sc)
    if not wanted:
        return 0
    if progress:
        progress(f"running {len(wanted)} scenario(s) with jobs={jobs}")
    specs = [RunSpec.from_scenario(sc, backend=backend) for sc in wanted]
    payloads = SweepExecutor(jobs=jobs, on_message=progress, cache=cache).run(specs)
    for sc, report in zip(wanted, reports_in_order(payloads, expected=len(specs))):
        _CACHE[sc] = report
    return len(wanted)


@dataclass
class SweepResult:
    """Reports for a task-count sweep at fixed node count, both modes."""

    nodes: int
    task_counts: list[int]
    partial: list[MetricsReport] = field(default_factory=list)
    full: list[MetricsReport] = field(default_factory=list)

    def series(self, metric: str, partial: bool) -> list[float]:
        """Extract one metric across the sweep."""
        reports = self.partial if partial else self.full
        return [float(getattr(r, metric)) for r in reports]


def sweep_scenarios(nodes: int, task_counts: Iterable[int], seed: int) -> list[Scenario]:
    """The scenario grid one sweep covers, in serial execution order."""
    return [
        Scenario(nodes=nodes, tasks=tasks, partial=partial, seed=seed)
        for tasks in task_counts
        for partial in (True, False)
    ]


def run_sweep(
    nodes: int,
    task_counts: Iterable[int],
    seed: int,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    backend: str = "array",
    cache: Optional["ResultCache"] = None,
) -> SweepResult:
    """Run the partial/full pair for every task count.

    ``jobs > 1`` (or ``0`` = one per CPU) executes the uncached scenarios
    through the multiprocess sweep engine first; the assembly loop below
    then consumes cache hits in serial order, so the returned
    :class:`SweepResult` is bit-identical either way.  A ``cache`` routes
    the grid through the sweep engine even at ``jobs=1`` so resumable
    on-disk results apply in every mode.
    """
    task_counts = list(task_counts)
    if jobs != 1 or cache is not None:
        prefetch_scenarios(
            sweep_scenarios(nodes, task_counts, seed),
            jobs=jobs,
            progress=progress,
            backend=backend,
            cache=cache,
        )
    result = SweepResult(nodes=nodes, task_counts=task_counts)
    for tasks in task_counts:
        for partial in (True, False):
            sc = Scenario(nodes=nodes, tasks=tasks, partial=partial, seed=seed)
            if progress:
                progress(f"running {sc.label()}")
            report = run_scenario(sc, backend=backend)
            (result.partial if partial else result.full).append(report)
    return result


__all__ = [
    "SweepResult",
    "clear_cache",
    "prefetch_scenarios",
    "run_scenario",
    "run_sweep",
    "sweep_scenarios",
]
