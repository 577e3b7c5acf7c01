"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run every workload for one pass, plain and traced, so the
whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench
import spans as sp

ROOT = Path(__file__).resolve().parent.parent


def _span(sid, parent, start, end):
    return {"id": sid, "name": f"s{sid}", "parent": parent, "start": start, "end": end, "counts": {}}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),   # overlaps span 1: [1, 5] is covered once
        _span(3, 0, 9.0, 12.0),  # runs past the parent: only [9, 10] counts
        _span(4, 1, 1.5, 2.5),   # a grandchild does not count against span 0
    ]
    own = sp.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    rows = {name: (calls, tot, self_s) for name, calls, tot, self_s in sp.summary(spans)}
    assert rows["s0"] == (1, pytest.approx(10.0), pytest.approx(5.0))


def test_hot_loop_counts_only_a_run_hot_span_inside_a_loop_span():
    loop = dict(_span(0, None, 0.0, 5.0), name="service.advance_to")
    hot = dict(_span(1, 0, 1.0, 4.0), name="framework.run_hot")
    stray = dict(_span(1, None, 6.0, 7.0), name="framework.run_hot")
    assert bench.hot_loop_ran([loop, hot])
    assert not bench.hot_loop_ran([loop, stray])
    assert not bench.hot_loop_ran([loop])


def test_tracer_records_parents_counts_and_wrapped_calls():
    class Box:
        def twice(self, x):
            return 2 * x

        @classmethod
        def make(cls):
            return cls()

    tracer = sp.Tracer()
    tracer.wrap(Box, "twice", "box.twice", after=lambda c, st, a, k, r: c.update(result=r))
    tracer.wrap(Box, "make", "box.make")
    with tracer.span("outer") as counts:
        counts["n"] = 1
        assert Box.make().twice(4) == 8
    outer, make, twice = tracer.spans
    assert (outer["name"], outer["parent"], outer["counts"]) == ("outer", None, {"n": 1})
    assert make["parent"] == twice["parent"] == outer["id"]
    assert twice["counts"] == {"result": 8}
    assert outer["start"] <= make["start"] <= make["end"] <= twice["start"] <= outer["end"]


def test_stdout_parsing_and_seed_mapping():
    text = (
        "== partial / 2 nodes ==\n"
        "  total_completed_tasks                10\n"
        "  placements:\n"
        "    allocation               9\n"
        "== resilience ==\n"
        "  goodput                              0.500000\n"
        "trace digest: 0123abcd\n"
    )
    got = bench.sections(text)
    assert got["table1"] == {"total_completed_tasks": "10", "allocation": "9"}
    assert got["resilience"] == {"goodput": "0.500000"}
    assert bench.digest_of(text) == "0123abcd"
    assert [bench.program_seed(s) for s in (1, 2, 16, 17, 0)] == [1, 2, 16, 1, 16]


def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(bench.HERE) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_wrong_reference_digest_fails_every_operation(tmp_path):
    ref = dict(bench.load_references("serve_ckpt", 1), digest="0" * 32)
    runner = bench.Runner(time.perf_counter() + bench.HARD_LIMIT_S)
    ops = bench.untraced_ops(runner, bench.WORKLOADS["serve_ckpt"], 1, ref, tmp_path, seconds=1)
    attempted, failed = bench.tally(ops)
    assert attempted >= 2  # the serve and its resume
    assert failed == attempted
    assert all("trace digest" in " ".join(op.errors) for op in ops if op.counted)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "sweep_cached", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_untraced(workload):
    result = _result(_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


HOT = {"batch_paper": 1.0, "faults_seu": 0.0, "serve_ckpt": 0.0, "sweep_cached": 1.0}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_traced(workload):
    result = _result(_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(bench.PER_LAYER)
    assert m["framework.hot_loop"] == HOT[workload]
    assert m["cli.import_s"] > 0 and m["src.lines"] > 0
    ref = json.loads(bench.REFERENCES.read_text())["workloads"][workload]["2"]
    if workload != "sweep_cached":
        table1 = ref["table1"]
        assert m["resources.search_steps"] == int(table1["total_scheduler_workload"])
        assert m["resources.reconfigurations"] == int(table1["total_reconfigurations"])
    if workload == "faults_seu":
        assert m["failures.config_faults"] == int(ref["resilience"]["config_faults"])
        assert m["failures.retries"] == int(ref["resilience"]["retries_total"])
    if workload == "serve_ckpt":
        assert m["service.windows"] > 0 and m["service.snapshot_bytes"] > 0
        assert m["trace.read_s"] > 0 and m["service.restore_s"] > 0 and m["trace.events"] > 0
    if workload == "sweep_cached":
        specs = 2 * len(bench.SWEEP_TASKS)
        assert (m["parallel.cache_hits"], m["parallel.cache_misses"], m["parallel.cache_stored"]) == (specs,) * 3
        assert m["parallel.spec_s_max"] >= m["parallel.spec_s_p50"] > 0
        assert m["parallel.payload_bytes"] > 0 and m["parallel.pool_efficiency"] > 0
    assert m["bench.trace_overhead_s"] > 0
