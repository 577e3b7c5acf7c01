#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  It
records every workload for every seed of ``run.SEED_POOL``, two runs at a
time, and rewrites ``references.json`` whole.  The
references are taken through other paths than the ones the benchmark times,
so each check also compares two paths of the program:

* ``batch_paper``: one ``run --xml --trace-digest`` gives Table I, the XML
  report and the trace digest;
* ``faults_seu``: ``run --trace-digest`` with the SEU campaign gives Table I,
  the resilience report and the digest;
* ``serve_ckpt``: ``run --trace-digest`` on the same spec (a batch run, not a
  service) gives the Table I and digest that both the uninterrupted and the
  resumed service must reproduce;
* ``sweep_cached``: a serial ``sweep --jobs 1`` without a cache gives the table
  that the parallel cold pass and the warm pass must both print.

Simulated statistics are deterministic, so a change meant only to speed
things up leaves this file unchanged; re-record only for an intended change
of behaviour, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run as bench

#: Reference runs at once.
JOBS = 2


def _cli(argv: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True,
        env=bench.child_env(), cwd=bench.ROOT, check=True,
    )
    return done.stdout


def record_one(workload: str, seed: int, tmp: Path) -> dict:
    if workload == "batch_paper":
        xml = tmp / f"batch-{seed}.xml"
        out = _cli(bench.run_argv(bench.BATCH_TASKS, seed, "--xml", str(xml), "--trace-digest"))
        return {"table1": bench.sections(out)["table1"], "xml": bench.xml_metrics(xml),
                "digest": bench.digest_of(out)}
    if workload == "faults_seu":
        out = _cli(bench.run_argv(bench.FAULT_TASKS, seed, *bench.FAULT_FLAGS, "--trace-digest"))
        got = bench.sections(out)
        return {"table1": got["table1"], "resilience": got["resilience"], "digest": bench.digest_of(out)}
    if workload == "serve_ckpt":
        out = _cli(bench.run_argv(bench.SERVE_TASKS, seed, "--trace-digest"))
        return {"table1": bench.sections(out)["table1"], "digest": bench.digest_of(out)}
    if workload == "sweep_cached":
        return {"table": _cli(["sweep", "--nodes", "200", "--tasks", *bench.SWEEP_TASKS,
                               "--jobs", "1", "--seed", str(seed)])}
    raise ValueError(workload)


def main() -> int:
    refs: dict = {"workloads": {w: {} for w in bench.WORKLOADS}}
    tmp = Path(tempfile.mkdtemp(dir=bench.ROOT, prefix=".perfbench-record-"))
    try:
        jobs = [(w, s) for s in bench.SEED_POOL for w in bench.WORKLOADS]
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            done = pool.map(lambda job: (job, record_one(*job, tmp)), jobs)
            for (w, s), ref in done:
                refs["workloads"][w][str(s)] = ref
                print(f"recorded {w} seed {s}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
