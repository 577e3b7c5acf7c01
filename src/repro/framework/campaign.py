"""Fault-campaign runner: one scalar spec → simulator + armed injector.

:func:`repro.quick_simulation` builds *and runs* a simulation in one call,
which leaves no moment to attach a :class:`FailureInjector` between
construction and ``run()``.  This module is the shared builder for every
fault-campaign consumer — the CLI's ``--faults`` flags, the resilience and
chaos test suites, and the perf harness — so they all derive the exact same
workload and fault process from the same scalar knobs.

A :class:`FaultCampaignSpec` uses Table II's workload defaults plus scalar
*mean* fault parameters; means are widened into ``UniformInt`` distributions
spanning ±50% (``_spread``), matching the paper's uniform-interval style.
Workload randomness comes from ``seed`` and fault randomness from
``fault_seed`` (default ``seed + 1``) so the same workload can be replayed
under different fault processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.framework.failures import FailureInjector
from repro.framework.simulator import DReAMSim, SimulationResult
from repro.rng import RNG
from repro.rng.distributions import Distribution, UniformInt
from repro.trace.bus import TraceBus
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)


def _spread(mean: int) -> Distribution:
    """A ±50% uniform integer interval around a scalar mean (≥ 1)."""
    if mean < 1:
        raise ValueError(f"fault-parameter mean must be >= 1, got {mean}")
    return UniformInt(max(1, mean - mean // 2), mean + mean // 2)


@dataclass(frozen=True)
class FaultCampaignSpec:
    """One fault campaign: Table II workload knobs + scalar fault means.

    All fault processes are off by default — a spec with no fault knob set
    runs exactly the workload :func:`repro.quick_simulation` would (and
    :func:`run_campaign` then returns ``None`` for the injector).
    """

    nodes: int = 200
    configs: int = 50
    tasks: int = 2000
    partial: bool = True
    seed: int = 42
    fault_seed: Optional[int] = None  # default: seed + 1
    # Node-loss faults.
    mtbf: Optional[int] = None  # mean ticks between crashes (None = off)
    mttr: int = 500  # mean repair ticks
    max_failures: Optional[int] = None
    burst_rate: Optional[int] = None  # mean ticks between bursts (None = off)
    burst_size: int = 2
    burst_group: int = 8
    # Transient configuration faults.
    seu_rate: Optional[int] = None  # mean ticks between SEU strikes (None = off)
    scrub_factor: int = 1
    # Retry policy.
    retry_budget: Optional[int] = None
    backoff_base: int = 0
    backoff_cap: Optional[int] = None
    # Health-aware quarantine (all three required to enable).
    quarantine_threshold: Optional[int] = None
    probation: Optional[int] = None
    health_half_life: Optional[int] = None

    @property
    def faults_enabled(self) -> bool:
        return self.mtbf is not None or self.seu_rate is not None or self.burst_rate is not None

    def with_mode(self, partial: bool) -> "FaultCampaignSpec":
        """The same campaign under the other reconfiguration mode."""
        return replace(self, partial=partial)


def build_campaign(
    spec: FaultCampaignSpec,
    backend: str = "array",
    trace: Optional[TraceBus] = None,
    arm: bool = True,
    workload: Optional[tuple] = None,
    **sim_kwargs: Any,
) -> tuple[DReAMSim, Optional[FailureInjector]]:
    """Construct the simulator and (if any fault knob is set) arm an injector.

    The workload derivation is identical to :func:`repro.quick_simulation`
    (same RNG stream, same specs), so a spec with faults off reproduces that
    run byte for byte.  ``arm=False`` returns the injector un-armed — the
    snapshot-restore path requires exactly that (restore rewires callbacks
    in place of :meth:`FailureInjector.arm`).

    ``workload`` short-circuits generation with a pre-built
    ``(nodes, configs, arrivals)`` triple.  The caller owns equivalence: the
    triple must be a fresh-state clone of exactly what this spec's seed
    would generate (the sweep worker's memo and the perf harness's
    ``WorkloadBundle`` both derive theirs from the same RNG sequence), and
    the fault RNG is unaffected because it draws from its own seed.
    """
    if workload is not None:
        node_list, config_list, stream = workload
    else:
        rng = RNG(seed=spec.seed)
        node_list = generate_nodes(NodeSpec(count=spec.nodes), rng)
        config_list = generate_configs(ConfigSpec(count=spec.configs), rng)
        # tasks=0 builds a source-fed service run: no constructor-side stream
        # at all (and no task-stream RNG draws), every arrival comes through
        # ingest.
        stream = []
        if spec.tasks:
            stream = list(
                generate_task_stream(TaskSpec(count=spec.tasks), config_list, rng)
            )
    sim = DReAMSim(
        node_list,
        config_list,
        stream,
        partial=spec.partial,
        backend=backend,
        trace=trace,
        **sim_kwargs,
    )
    if not spec.faults_enabled:
        return sim, None
    fault_seed = spec.fault_seed if spec.fault_seed is not None else spec.seed + 1
    needs_mttr = spec.mtbf is not None or spec.burst_rate is not None
    injector = FailureInjector(
        sim,
        mtbf=_spread(spec.mtbf) if spec.mtbf is not None else None,
        mttr=_spread(spec.mttr) if needs_mttr else None,
        rng=RNG(seed=fault_seed),
        max_failures=spec.max_failures,
        seu_rate=_spread(spec.seu_rate) if spec.seu_rate is not None else None,
        scrub_factor=spec.scrub_factor,
        retry_budget=spec.retry_budget,
        backoff_base=spec.backoff_base,
        backoff_cap=spec.backoff_cap,
        burst_rate=_spread(spec.burst_rate) if spec.burst_rate is not None else None,
        burst_size=spec.burst_size,
        burst_group=spec.burst_group,
        health_half_life=spec.health_half_life,
        quarantine_threshold=spec.quarantine_threshold,
        probation=spec.probation,
    )
    if arm:
        injector.arm()
    return sim, injector


def run_campaign(
    spec: FaultCampaignSpec,
    backend: str = "array",
    trace: Optional[TraceBus] = None,
    workload: Optional[tuple] = None,
    **sim_kwargs: Any,
) -> tuple[SimulationResult, Optional[FailureInjector]]:
    """Build and run one campaign; returns the result and the injector."""
    sim, injector = build_campaign(
        spec,
        backend=backend,
        trace=trace,
        workload=workload,
        **sim_kwargs,
    )
    return sim.run(), injector


__all__ = ["FaultCampaignSpec", "build_campaign", "run_campaign"]
