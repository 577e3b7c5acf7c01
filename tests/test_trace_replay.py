"""Live run vs trace replay: bit-identical Table I and figure series.

The acceptance bar for the observability layer: on the paper's 100- and
200-node scenarios, a :class:`~repro.trace.replay.TraceReplayer` fed only
the event stream must re-derive the *exact* live
:class:`~repro.metrics.table1.MetricsReport` — float for float, not
approximately — plus the monitoring time series.  The digest must also be
invariant across the two resource-manager modes and across a JSONL
round-trip.
"""

import pytest

from repro import quick_simulation
from repro.trace import (
    DigestSink,
    JsonlSink,
    MemorySink,
    TraceBus,
    TraceReplayer,
    digest_of,
    read_jsonl,
    replay_report,
)

SCENARIOS = [
    pytest.param(100, 1200, True, id="n100-partial"),
    pytest.param(100, 1200, False, id="n100-full"),
    pytest.param(200, 800, True, id="n200-partial"),
    pytest.param(200, 800, False, id="n200-full"),
]


def traced_run(nodes, tasks, partial, seed=42, backend="array"):
    mem, digest = MemorySink(), DigestSink()
    bus = TraceBus(mem, digest)
    result = quick_simulation(
        nodes=nodes, configs=50, tasks=tasks, partial=partial,
        seed=seed, backend=backend, trace=bus,
    )
    return result, mem, digest


@pytest.mark.parametrize("nodes,tasks,partial", SCENARIOS)
def test_replay_matches_live_bit_identically(nodes, tasks, partial):
    result, mem, _ = traced_run(nodes, tasks, partial)
    replayer = TraceReplayer(mem.events).replay()
    # Frozen-dataclass equality: every Table I float and every stats snapshot
    # must match exactly, because both sides fold the same samples in the
    # same order through the same assemble_report arithmetic.
    assert replayer.report() == result.report
    # The monitoring series rebuild from MonitorSampled events alone.
    live = result.monitor
    series = replayer.series
    for name in ("busy_nodes", "queue_length", "wasted_area", "running_tasks"):
        live_ts = getattr(live, name)
        replay_ts = getattr(
            series,
            {"queue_length": "queue_length"}.get(name, name),
        )
        assert replay_ts.times == live_ts.times, name
        assert replay_ts.values == live_ts.values, name
    assert replayer.params["nodes"] == nodes
    assert replayer.params["partial"] is partial


@pytest.mark.parametrize("nodes,tasks,partial", SCENARIOS)
def test_digest_identical_across_manager_modes(nodes, tasks, partial):
    res_i, mem_i, dig_i = traced_run(nodes, tasks, partial, backend="array")
    res_s, mem_s, dig_s = traced_run(nodes, tasks, partial, backend="scan")
    assert dig_i.hexdigest() == dig_s.hexdigest()
    # Not just the hash: the canonical event streams are byte-identical.
    assert [e.canonical() for e in mem_i] == [e.canonical() for e in mem_s]
    assert res_i.report == res_s.report


def test_jsonl_round_trip_preserves_digest_and_replay(tmp_path):
    path = tmp_path / "run.jsonl"
    digest = DigestSink()
    with JsonlSink(path) as sink:
        bus = TraceBus(sink, digest)
        result = quick_simulation(
            nodes=50, configs=20, tasks=400, partial=True, seed=7, trace=bus
        )
    events = read_jsonl(path)
    assert digest_of(events) == digest.hexdigest()
    assert replay_report(events) == result.report


def test_tracing_does_not_perturb_the_simulation():
    """A run with a bus attached is the same simulation, bit for bit."""
    traced, _, _ = traced_run(50, 400, True, seed=11)
    bare = quick_simulation(
        nodes=50, configs=50, tasks=400, partial=True, seed=11
    )
    assert traced.report == bare.report
    assert traced.final_time == bare.final_time


def test_replay_counts_every_discard_reason():
    """Tasks discarded for impossible areas appear in the replayed total."""
    # Tiny nodes vs the default config areas force no_config/no_placement
    # discards; the replayed count must match the live one exactly.
    result, mem, _ = traced_run(5, 300, True, seed=3)
    report = replay_report(mem.events)
    assert report.total_discarded_tasks == result.report.total_discarded_tasks
    assert report == result.report
