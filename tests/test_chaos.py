"""Seeded fault-campaign soaks — opt-in via ``pytest -m chaos``.

The acceptance-scale campaigns for fault-tolerance v2: a 200-node / 20k-task
SEU-only soak comparing partial against full reconfiguration, plus a
differential digest check (array vs reference-scan manager) under a mixed
fault regime.  Excluded from the default run by the ``-m "not chaos"``
addopts; CI runs them as a separate step.  Scale can be tuned through
``REPRO_CHAOS_NODES`` / ``REPRO_CHAOS_TASKS`` for slower machines, and the
soak pairs run through the parallel sweep engine — ``REPRO_CHAOS_JOBS=N``
executes them across N worker processes (results are bit-identical, the
workers compute digests in-process).
"""

import os

import pytest

from repro.framework import FaultCampaignSpec
from repro.parallel import RunSpec, run_specs
from repro.trace import TraceReplayer

pytestmark = pytest.mark.chaos

CHAOS_NODES = int(os.environ.get("REPRO_CHAOS_NODES", "200"))
CHAOS_TASKS = int(os.environ.get("REPRO_CHAOS_TASKS", "20000"))
CHAOS_JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "1"))

# SEU-only: configuration-memory strikes with scrub repair and a bounded
# retry budget (unbounded instant resubmit livelocks under storms this hot).
SOAK_SPEC = FaultCampaignSpec(
    nodes=CHAOS_NODES,
    configs=50,
    tasks=CHAOS_TASKS,
    seed=42,
    seu_rate=300,
    scrub_factor=2,
    retry_budget=3,
    backoff_base=16,
    backoff_cap=1024,
)

# Everything at once, at reduced scale, for the cross-manager differential.
MIXED_SPEC = FaultCampaignSpec(
    nodes=max(20, CHAOS_NODES // 5),
    configs=16,
    tasks=max(500, CHAOS_TASKS // 10),
    seed=7,
    mtbf=2000,
    mttr=300,
    seu_rate=1500,
    scrub_factor=2,
    retry_budget=4,
    backoff_base=16,
    backoff_cap=512,
    quarantine_threshold=1500,
    probation=2000,
    health_half_life=4000,
)


def traced_specs(campaigns, backends=("array", "array")):
    """Run campaigns through the sweep engine with full capture enabled."""
    specs = [
        RunSpec(campaign=c, backend=b, collect_digest=True, collect_events=True)
        for c, b in zip(campaigns, backends)
    ]
    return run_specs(specs, jobs=CHAOS_JOBS)


@pytest.fixture(scope="module")
def soak_pair():
    payloads = traced_specs(
        [SOAK_SPEC.with_mode(partial) for partial in (True, False)]
    )
    return {p.spec.campaign.partial: p for p in payloads}


class TestSeuSoak:
    def test_partial_strictly_fewer_interrupts(self, soak_pair):
        # A strike hits one region (or free area) under partial
        # reconfiguration but wipes the whole monolithic context under full:
        # same workload, same fault stream, strictly less collateral.
        rep_p = soak_pair[True].resilience
        rep_f = soak_pair[False].resilience
        assert rep_p.interrupts_total < rep_f.interrupts_total
        assert rep_p.interrupts_total > 0

    def test_partial_degrades_more_gracefully(self, soak_pair):
        rep_p = soak_pair[True].resilience
        rep_f = soak_pair[False].resilience
        assert rep_p.goodput > rep_f.goodput
        assert rep_p.retry_discards <= rep_f.retry_discards

    @pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
    def test_live_equals_replay_at_scale(self, soak_pair, partial):
        payload = soak_pair[partial]
        replayer = TraceReplayer(payload.events).replay()
        assert replayer.resilience_report() == payload.resilience
        assert replayer.report() == payload.report


class TestDifferentialDigest:
    def test_array_and_scan_agree_under_mixed_faults(self):
        p_i, p_s = traced_specs([MIXED_SPEC, MIXED_SPEC], backends=("array", "scan"))
        assert p_i.digest == p_s.digest
        assert [e.canonical() for e in p_i.events] == [
            e.canonical() for e in p_s.events
        ]
        assert p_i.resilience == p_s.resilience
        assert p_i.report == p_s.report
