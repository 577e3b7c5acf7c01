"""Parallel sweep engine: serial-vs-parallel differentials and failure paths.

The engine's contract is *bit-identical merging*: a ``jobs=N`` sweep must
return exactly the payloads a ``jobs=1`` sweep returns — same Table I
reports, same resilience reports, byte-identical trace digests — in
submission order, for both resource-manager modes, with and without fault
campaigns.  These tests pin that contract, plus the failure semantics: a
worker exception surfaces as :class:`SweepWorkerError` naming the failing
spec while keeping every completed payload.
"""

import os
from dataclasses import replace

import pytest

from repro.analysis.paperconfig import Scenario
from repro.analysis.runner import (
    clear_cache,
    prefetch_scenarios,
    run_scenario,
    run_sweep,
    sweep_scenarios,
)
from repro.framework.campaign import FaultCampaignSpec
from repro.metrics.merge import in_submission_order, reports_in_order
from repro.parallel import (
    RunSpec,
    SweepExecutor,
    SweepTimeoutError,
    SweepWorkerError,
    resolve_jobs,
    run_specs,
)

NODES, TASKS = 10, 40


def campaign(partial=True, seed=3, faults=False, **kw):
    # The fault regime bounds retries (budget + backoff): unbounded instant
    # resubmission can livelock a sweep this small when a long task keeps
    # getting interrupted before it can finish.
    fault_kw = (
        {"mtbf": 5000, "mttr": 200, "retry_budget": 3, "backoff_base": 16,
         "backoff_cap": 256}
        if faults
        else {}
    )
    fault_kw.update(kw)
    return FaultCampaignSpec(
        nodes=NODES, configs=8, tasks=TASKS, partial=partial, seed=seed, **fault_kw
    )


def spec_matrix(faults: bool, backend: str = "array") -> list[RunSpec]:
    """Four runs: both modes x two seeds, digests always on."""
    return [
        RunSpec(
            campaign=campaign(partial=pt, seed=s, faults=faults),
            backend=backend,
            collect_digest=True,
        )
        for pt in (True, False)
        for s in (3, 4)
    ]


# ---------------------------------------------------------------------------
# the differential: jobs in {1, 2, 4} x manager backend x fault regime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("backend", ["array", "scan"])
def test_parallel_bit_identical_to_serial(jobs, faults, backend) -> None:
    specs = spec_matrix(faults, backend=backend)
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=jobs)
    assert [p.index for p in parallel] == list(range(len(specs)))
    assert [p.report for p in parallel] == [p.report for p in serial]
    assert [p.resilience for p in parallel] == [p.resilience for p in serial]
    assert [p.digest for p in parallel] == [p.digest for p in serial]
    assert all(p.digest for p in parallel)
    assert [p.final_time for p in parallel] == [p.final_time for p in serial]
    if faults:
        assert all(p.resilience is not None for p in parallel)
    else:
        assert all(p.resilience is None for p in parallel)


def test_monitor_and_events_roundtrip() -> None:
    spec = RunSpec(
        campaign=campaign(),
        collect_digest=True,
        collect_events=True,
        collect_monitor=True,
    )
    (serial,) = run_specs([spec], jobs=1)
    (parallel,) = run_specs([spec], jobs=2)
    assert parallel.digest == serial.digest
    assert parallel.monitor is not None
    assert parallel.monitor.sample_count == serial.monitor.sample_count
    assert list(parallel.monitor.busy_nodes) == list(serial.monitor.busy_nodes)
    assert [e.canonical() for e in parallel.events] == [
        e.canonical() for e in serial.events
    ]


def test_from_scenario_matches_serial_runner() -> None:
    sc = Scenario(nodes=NODES, tasks=TASKS, partial=True, seed=6)
    (payload,) = run_specs([RunSpec.from_scenario(sc)], jobs=1)
    assert payload.report == run_scenario(sc, use_cache=False)


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_worker_failure_reported_and_completed_kept(jobs) -> None:
    # mtbf=0 makes the fault process's exponential spread raise ValueError
    # inside the worker — a deterministic mid-sweep failure.
    good = RunSpec(campaign=campaign(seed=3))
    bad = RunSpec(campaign=replace(campaign(seed=4), mtbf=0))
    specs = [good, bad, good.with_seed(5)]
    with pytest.raises(SweepWorkerError) as excinfo:
        run_specs(specs, jobs=jobs)
    err = excinfo.value
    assert [f.index for f in err.failures] == [1]
    assert err.failures[0].spec == bad
    assert isinstance(err.failures[0].cause, ValueError)
    assert "ValueError" in str(err)
    assert [p.index for p in err.completed] == [0, 2]
    assert err.completed[0].report == run_specs([good], jobs=1)[0].report


def test_progress_timeout_names_inflight_specs() -> None:
    spec = RunSpec(
        campaign=FaultCampaignSpec(
            nodes=100, configs=50, tasks=3000, partial=True, seed=3
        )
    )
    with pytest.raises(SweepTimeoutError) as excinfo:
        SweepExecutor(jobs=2, timeout=0.01).run([spec, spec])
    assert excinfo.value.inflight
    assert "no sweep progress" in str(excinfo.value)


# ---------------------------------------------------------------------------
# jobs resolution and executor validation
# ---------------------------------------------------------------------------


def test_resolve_jobs() -> None:
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_executor_validates_arguments() -> None:
    with pytest.raises(ValueError):
        SweepExecutor(jobs=2, timeout=0)
    with pytest.raises(ValueError):
        SweepExecutor(jobs=2, max_inflight=0)
    # Default in-flight window: every worker busy plus one queued chunk.
    assert SweepExecutor(jobs=2).max_inflight == 3
    assert SweepExecutor(jobs=2).run([]) == []


# ---------------------------------------------------------------------------
# merge validation
# ---------------------------------------------------------------------------


def test_merge_restores_submission_order_and_validates() -> None:
    payloads = run_specs(spec_matrix(False)[:3], jobs=1)
    shuffled = [payloads[2], payloads[0], payloads[1]]
    assert [p.index for p in in_submission_order(shuffled)] == [0, 1, 2]
    assert len(reports_in_order(shuffled, expected=3)) == 3
    with pytest.raises(ValueError):
        in_submission_order([payloads[0], payloads[0]])
    with pytest.raises(ValueError):
        in_submission_order([payloads[2]], expected=3)


# ---------------------------------------------------------------------------
# consumer parity: run_sweep / prefetch
# ---------------------------------------------------------------------------


def test_run_sweep_parallel_matches_serial() -> None:
    task_counts = [20, 40]
    clear_cache()
    serial = run_sweep(NODES, task_counts, seed=3)
    clear_cache()
    try:
        parallel = run_sweep(NODES, task_counts, seed=3, jobs=2)
    finally:
        clear_cache()
    assert parallel.partial == serial.partial
    assert parallel.full == serial.full
    assert parallel.task_counts == serial.task_counts


def test_prefetch_fills_cache_and_dedupes() -> None:
    clear_cache()
    try:
        scenarios = sweep_scenarios(NODES, [20], seed=9)
        assert prefetch_scenarios(scenarios, jobs=2) == len(scenarios)
        assert prefetch_scenarios(scenarios, jobs=2) == 0
        for sc in scenarios:
            assert run_scenario(sc).total_completed_tasks >= 0
    finally:
        clear_cache()


# ---------------------------------------------------------------------------
# spec ergonomics
# ---------------------------------------------------------------------------


def test_runspec_label_and_with_seed() -> None:
    spec = RunSpec(campaign=campaign(faults=True), backend="scan")
    assert spec.label() == f"n{NODES}-t{TASKS}-partial-s3-faults-scan"
    assert RunSpec(campaign=campaign()).label() == f"n{NODES}-t{TASKS}-partial-s3"
    reseeded = spec.with_seed(9)
    assert reseeded.campaign.seed == 9
    assert reseeded.backend == "scan"
    assert spec.campaign.seed == 3


@pytest.mark.parametrize("backend", ["indexed", "Array", ""])
def test_runspec_rejects_unknown_backend_at_construction(backend) -> None:
    with pytest.raises(ValueError, match=r"unknown backend .*options: \('array', 'scan'\)"):
        RunSpec(campaign=campaign(), backend=backend)
