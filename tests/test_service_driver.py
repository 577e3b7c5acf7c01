"""Service mode: windowed driving, mid-run metrics, sources, resume wiring."""

import json
import os
from dataclasses import dataclass

import pytest

from tests.snapshot_harness import CLEAN_SMALL, SEU_SMALL, baseline

from repro.framework.campaign import FaultCampaignSpec
from repro.rng import RNG
from repro.service import (
    JsonlTailSource,
    ReplaySource,
    ServiceSimulator,
    Snapshot,
    SnapshotError,
)
from repro.trace.bus import read_jsonl
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

SOURCE_SPEC = FaultCampaignSpec(
    nodes=20,
    configs=10,
    tasks=0,
    seed=42,
    mtbf=3000,
    seu_rate=2000,
    retry_budget=4,
    backoff_base=8,
)


def make_arrivals(count: int = 60):
    """The workload ``build_campaign(tasks=count)`` would generate, standalone.

    Fresh ``Task`` objects every call — tasks are stateful, so two services
    must never share one arrival list.
    """
    rng = RNG(seed=42)
    generate_nodes(NodeSpec(count=20), rng)
    configs = generate_configs(ConfigSpec(count=10), rng)
    return list(generate_task_stream(TaskSpec(count=count), configs, rng))


def test_windowed_service_matches_batch():
    """advance_to windows + drain over the ctor stream == one-shot batch."""
    base = baseline(SEU_SMALL, "array")
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(50)
    svc.advance_to(400)
    svc.advance_to(401)
    result = svc.drain()
    assert svc.hexdigest() == base.digest
    assert result.report == base.report


def test_mid_run_report_view_and_resume():
    """Checkpoint mid-window, resume on another backend, finish identically."""
    base = baseline(SEU_SMALL, "array")
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(400)
    view = svc.report_view()
    # The clock rests at the last fired event, never idled to the boundary.
    assert 0 < view.time <= 400
    assert view.events_seen > 0
    assert view.report.total_tasks_generated >= view.report.total_completed_tasks
    snap = Snapshot.from_json(svc.checkpoint().to_json())
    resumed = ServiceSimulator.resume(
        snap, SEU_SMALL, backend="scan", prefix_events=list(svc.memory)
    )
    result = resumed.drain()
    assert resumed.hexdigest() == base.digest
    assert result.report == base.report
    # Once sealed, the final view IS the final report.
    assert resumed.report_view().report == result.report


def test_finished_service_refuses_further_driving():
    svc = ServiceSimulator(CLEAN_SMALL, backend="array")
    svc.drain()
    with pytest.raises(RuntimeError, match="finished"):
        svc.advance_to(10_000)
    with pytest.raises(RuntimeError, match="finished"):
        svc.drain()


def test_resume_rejects_mismatched_prefix():
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(300)
    snap = svc.checkpoint()
    wrong_prefix = list(svc.memory)[:-1]
    with pytest.raises(SnapshotError, match="prefix"):
        ServiceSimulator.resume(
            snap, SEU_SMALL, backend="array", prefix_events=wrong_prefix
        )


def test_source_fed_service_checkpoint_restore():
    """A run fed purely from a ReplaySource checkpoints and resumes exactly."""
    src = ReplaySource(make_arrivals())
    svc = ServiceSimulator(SOURCE_SPEC, backend="array", source=src)
    svc.advance_to(100)
    svc.advance_to(1200)
    snap = Snapshot.from_json(svc.checkpoint().to_json())

    # The uninterrupted twin: same windows, then drain.
    twin = ServiceSimulator(
        SOURCE_SPEC, backend="array", source=ReplaySource(make_arrivals())
    )
    twin.advance_to(100)
    twin.advance_to(1200)
    twin_result = twin.drain()

    resumed = ServiceSimulator.resume(
        snap, SOURCE_SPEC, backend="scan", source=src, prefix_events=list(svc.memory)
    )
    result = resumed.drain()
    assert resumed.hexdigest() == twin.hexdigest()
    assert result.report == twin_result.report


def test_replay_source_windows():
    arrivals = make_arrivals(20)
    src = ReplaySource(arrivals)
    horizon = arrivals[9].at
    released = src.take_until(horizon)
    assert released and all(a.at <= horizon for a in released)
    assert not src.exhausted
    rest = src.take_all()
    assert src.exhausted
    assert len(released) + len(rest) == 20
    assert src.take_until(10**9) == []


def test_jsonl_tail_source(tmp_path):
    """Tailing a growing JSONL file: partial lines wait, close() seals."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    path = tmp_path / "feed.jsonl"
    src = JsonlTailSource(path, configs)
    assert src.take_until(100) == []  # no file yet

    known_no = configs[0].config_no
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"no": 0, "at": 10, "req": 50, "pref": known_no}) + "\n")
        fh.write(json.dumps({"no": 1, "at": 60, "req": 50, "pref": known_no}))
    got = src.take_until(100)
    assert [a.task.task_no for a in got] == [0]  # trailing partial line held back
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
        fh.write(
            json.dumps(
                {"no": 2, "at": 70, "req": 50, "pref": 999, "pref_area": 800}
            )
            + "\n"
        )
    got = src.take_until(100)
    assert [a.task.task_no for a in got] == [1, 2]
    assert got[1].task.pref_config.req_area == 800
    assert not src.exhausted
    src.close()
    assert src.exhausted

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"no": 9, "at": 5, "req": 10, "pref": 999}) + "\n")
    src2 = JsonlTailSource(bad, configs)
    with pytest.raises(ValueError, match="pref_area"):
        src2.take_until(100)


def test_jsonl_tail_source_never_skips_past_a_malformed_line(tmp_path):
    """good / bad / good: the first record is buffered, every poll raises
    naming line 2, and the record after the bad line is never consumed."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    known_no = configs[0].config_no
    path = tmp_path / "feed.jsonl"
    path.write_text(
        json.dumps({"no": 0, "at": 10, "req": 50, "pref": known_no})
        + "\n{\"no\": 1, \"at\": \n"
        + json.dumps({"no": 2, "at": 30, "req": 50, "pref": known_no})
        + "\n"
    )
    src = JsonlTailSource(path, configs)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"line 2:"):
            src.poll()
        assert [a.task.task_no for a in src._buffer] == [0]
    with pytest.raises(ValueError, match=r"line 2:"):
        src.take_until(100)
    assert [a.task.task_no for a in src._buffer] == [0]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"no": 1, "at": -5}, "non-negative"),
        ({"no": 1, "at": 12.5}, "at must be an integer"),
        ({"no": 1, "at": True}, "at must be an integer"),
        ({"no": 1.0, "at": 12}, "no must be an integer"),
        ({"no": 1, "at": 12, "req": 10.5}, "req must be an integer"),
        ({"no": 1, "at": 12, "req": False}, "req must be an integer"),
        ({"no": 0, "at": 12}, "duplicate task number 0"),
        ({"no": 1, "at": 12, "pref": 999, "pref_area": 12.5}, "pref_area must be an integer"),
        ({"no": 1, "at": 12, "pref": 999, "pref_area": 50, "pref_ctime": 2.5},
         "pref_ctime must be an integer"),
        ({"no": 1, "at": 12, "pref": "3"}, "pref must be an integer"),
    ],
)
def test_jsonl_tail_source_rejects_invalid_records(tmp_path, bad, message):
    """good / invalid / good: each invalid record is rejected with its line
    number on every poll, and the record after it is never consumed."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    known_no = configs[0].config_no
    record = {"req": 50, "pref": known_no, **bad}
    path = tmp_path / "feed.jsonl"
    path.write_text(
        json.dumps({"no": 0, "at": 10, "req": 50, "pref": known_no}) + "\n"
        + json.dumps(record) + "\n"
        + json.dumps({"no": 2, "at": 30, "req": 50, "pref": known_no}) + "\n"
    )
    src = JsonlTailSource(path, configs)
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"line 2: .*{message}"):
            src.poll()
        assert [a.task.task_no for a in src._buffer] == [0]


def test_snapshot_write_failing_midway_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A checkpoint write that raises halfway leaves the previous file
    byte-identical and no temporary file in the directory."""
    svc = ServiceSimulator(CLEAN_SMALL, backend="array")
    svc.advance_to(300)
    path = svc.checkpoint().write(tmp_path / "cp.json")
    before = path.read_bytes()
    svc.advance_to(600)
    newer = svc.checkpoint()
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen", lambda *a, **k: HalfWriter(real_fdopen(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        newer.write(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.json"]
    assert newer.write(path).read_bytes() != before  # a clean write publishes


def test_service_jsonl_persistence_continues_across_resume(tmp_path):
    """The JSONL trace file spans the cut: prefix + suffix, no duplicates."""
    path = tmp_path / "trace.jsonl"
    svc = ServiceSimulator(CLEAN_SMALL, backend="array", jsonl_path=str(path))
    svc.advance_to(500)
    snap = svc.checkpoint()
    assert svc.jsonl is not None
    svc.jsonl.close()
    prefix = read_jsonl(path)
    resumed = ServiceSimulator.resume(
        snap,
        CLEAN_SMALL,
        backend="array",
        prefix_events=prefix,
        jsonl_path=str(path),
    )
    result = resumed.drain()
    assert resumed.jsonl is not None
    resumed.jsonl.close()
    events = read_jsonl(path)
    seqs = [e.seq for e in events]
    assert seqs == sorted(set(seqs)), "resume duplicated or reordered events"
    base = baseline(CLEAN_SMALL, "array")
    assert resumed.hexdigest() == base.digest
    assert result.report == base.report


def test_resume_from_jsonl_lines_matches_event_prefix(tmp_path):
    """The JSONL file's bytes and the in-process events are one prefix:
    both resumes fold the same lines, and the memory sink parses them
    only when read."""
    path = tmp_path / "trace.jsonl"
    svc = ServiceSimulator(SEU_SMALL, backend="array", jsonl_path=str(path))
    svc.advance_to(400)
    snap = svc.checkpoint()
    svc.jsonl.close()
    from_lines = ServiceSimulator.resume(snap, SEU_SMALL, prefix_lines=path.read_bytes())
    from_events = ServiceSimulator.resume(snap, SEU_SMALL, prefix_events=list(svc.memory))
    assert len(from_lines.memory) == snap.trace_seq
    assert from_lines.memory._pending  # len() did not parse
    assert list(from_lines.memory) == list(from_events.memory) == list(svc.memory)
    assert not from_lines.memory._pending  # parsed once, bytes dropped
    assert from_lines.drain().report == from_events.drain().report
    assert from_lines.hexdigest() == from_events.hexdigest() == baseline(SEU_SMALL, "array").digest
    with pytest.raises(SnapshotError, match="prefix"):
        ServiceSimulator.resume(snap, SEU_SMALL, prefix_lines=path.read_bytes()[:-1] + b"9\n")


# -- the hot loop (array) vs the generic loop (scan), windowed ----------------


def _feed_file(path):
    """The SOURCE_SPEC workload as the JSONL records JsonlTailSource reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for a in make_arrivals():
            t, pref = a.task, a.task.pref_config
            fh.write(json.dumps({
                "no": t.task_no, "at": a.at, "req": t.required_time,
                "pref": pref.config_no, "pref_area": pref.req_area,
                "pref_ctime": pref.config_time,
            }) + "\n")


def _system_configs():
    rng = RNG(seed=42)
    generate_nodes(NodeSpec(count=20), rng)
    return generate_configs(ConfigSpec(count=10), rng)


#: Serve cases: (campaign, fed from a JSONL ingest file).  Eight nodes
#: force partial reconfigurations (evictions) while tasks are live.
SERVE_CASES = {
    "clean": (CLEAN_SMALL, False),
    "seu": (SEU_SMALL, False),
    "evicting": (FaultCampaignSpec(nodes=8, configs=10, tasks=60, seed=42), False),
    "jsonl-source": (SOURCE_SPEC, True),
}


@dataclass
class Served:
    driver: str
    digest: str
    report: object
    views: list
    checkpoints: list
    jsonl: bytes
    clock: list


def neutral(snap):
    """A checkpoint as plain data, without the backend it was cut on."""
    doc = json.loads(snap.to_json())
    doc.pop("backend")
    doc["sim"].pop("backend")
    return doc


def serve_windowed(case, backend, window, tmp_path):
    """Drive one serve case in fixed windows, viewing and checkpointing as it goes."""
    spec, fed = SERVE_CASES[case]
    source = None
    if fed:
        feed = tmp_path / f"feed-{backend}.jsonl"
        _feed_file(feed)
        source = JsonlTailSource(feed, _system_configs())
        source.close()  # the producer is done: the file is complete
    path = tmp_path / f"{backend}-{window}.jsonl"
    svc = ServiceSimulator(spec, backend=backend, source=source, jsonl_path=str(path))
    every = max(1, 5000 // window)
    views, checkpoints, clock = [], [], []
    t = windows = 0
    while True:
        t += window
        windows += 1
        svc.advance_to(t)
        clock.append((int(svc.sim.env.now), svc.bus.events_emitted, svc.sim.pending_count))
        if windows % every == 0:
            views.append(svc.report_view())
            checkpoints.append(neutral(svc.checkpoint()))
        alive = source is not None and not source.exhausted
        if svc.sim.pending_count == 0 and not alive:
            break
    result = svc.drain()
    views.append(svc.report_view())
    svc.jsonl.close()
    return Served(
        result.driver, svc.hexdigest(), result.report, views, checkpoints,
        path.read_bytes(), clock,
    )


@pytest.mark.parametrize("window", [1, 997, 10_000])
@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_windowed_serve_hot_matches_generic(case, window, tmp_path):
    """Every window, view, checkpoint and trace byte agrees across the tiers."""
    hot = serve_windowed(case, "array", window, tmp_path)
    ref = serve_windowed(case, "scan", window, tmp_path)
    assert (hot.driver, ref.driver) == ("hot", "generic")
    assert len(hot.checkpoints) >= 2
    assert hot.clock == ref.clock  # clock, events and queue after every window
    assert hot.digest == ref.digest
    assert hot.report == ref.report
    assert hot.views == ref.views
    assert hot.jsonl == ref.jsonl
    assert hot.checkpoints == ref.checkpoints
    spec, fed = SERVE_CASES[case]
    if not fed:
        assert hot.digest == baseline(spec, "array").digest


@pytest.mark.parametrize(
    "cut_backend, resume_backend", [("array", "scan"), ("scan", "array")],
    ids=["hot-cut-scan-resume", "scan-cut-hot-resume"],
)
@pytest.mark.parametrize("spec", [CLEAN_SMALL, SEU_SMALL], ids=["clean", "seu"])
def test_resume_across_drivers_matches_batch(spec, cut_backend, resume_backend):
    base = baseline(spec, "array")
    svc = ServiceSimulator(spec, backend=cut_backend)
    for t in (997, 1994, 25_000):
        svc.advance_to(t)
    snap = Snapshot.from_json(svc.checkpoint().to_json())
    resumed = ServiceSimulator.resume(
        snap, spec, backend=resume_backend, prefix_events=list(svc.memory)
    )
    for t in (30_000, 60_000):
        resumed.advance_to(t)
    result = resumed.drain()
    assert result.driver == ("hot" if resume_backend == "array" else "generic")
    assert resumed.hexdigest() == base.digest
    assert result.report == base.report


def test_array_serve_and_its_resume_run_hot():
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(500)
    assert (svc.sim.driver, svc.sim.driver_reason) == ("hot", None)
    snap = svc.checkpoint()
    assert svc.drain().driver == "hot"
    resumed = ServiceSimulator.resume(snap, SEU_SMALL, prefix_events=list(svc.memory)[: snap.trace_seq])
    assert resumed.sim.driver == "hot"
    assert resumed.drain().driver == "hot"
    scan = ServiceSimulator(SEU_SMALL, backend="scan")
    scan.advance_to(500)
    assert (scan.sim.driver, scan.sim.driver_reason) == ("generic", "backend is not array")


def test_parked_hot_run_spills_into_the_generic_loop():
    """A bounded run() on a started hot run spills the parked heap back into
    kernel events and finishes on the generic loop with the batch report."""
    base = baseline(SEU_SMALL, "array")
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(5000)
    assert svc.sim.pending_count > svc.sim.env.pending_count  # parked records
    result = svc.sim.run(until=10**7)
    assert (result.driver, result.driver_reason) == ("generic", "bounded horizon (until)")
    assert result.report == base.report
