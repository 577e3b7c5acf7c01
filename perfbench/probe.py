"""A benchmark child process: one ``dreamsim`` invocation run in-process.

    python3 perfbench/probe.py setup OUT -- <dreamsim argv>
    python3 perfbench/probe.py trace OUT -- <dreamsim argv>

``setup``
    Runs the CLI's own code path (``repro.cli.main.main``) until the
    simulation loop is first entered -- ``DReAMSim.run`` for ``run``, the
    first ``ServiceSimulator.advance_to`` for ``serve``, ``SweepExecutor.run``
    for ``sweep`` -- writes ``{"loop_entry": <perf_counter>}`` to OUT and
    exits at once.  The parent subtracts its own ``perf_counter`` taken just
    before the exec (both read CLOCK_MONOTONIC), which gives ``setup_s``.
``trace``
    Runs the whole invocation with a span around each public call that
    crosses into a layer (the wrappers below), then writes the spans to OUT
    with an estimate of what recording them cost.

The program under test is not modified: every span is recorded by a wrapper
this file installs around a module or class attribute before the CLI runs.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import sys
import time
from pathlib import Path

from spans import GcMeter, Tracer


def _stop_at_loop(command: str, out: Path) -> None:
    def stamp(*args, **kwargs) -> None:
        t = time.perf_counter()
        out.write_text(json.dumps({"loop_entry": t}))
        sys.stdout.flush()
        os._exit(0)

    if command == "run":
        from repro.framework.simulator import DReAMSim

        DReAMSim.run = stamp
    elif command == "serve":
        from repro.service import ServiceSimulator

        ServiceSimulator.advance_to = stamp
    elif command == "sweep":
        from repro.parallel import SweepExecutor

        SweepExecutor.run = stamp
    else:
        raise SystemExit(f"probe: no loop entry known for command {command!r}")


def _materialise(original, *args, **kwargs):
    return list(original(*args, **kwargs))


def _count_tasks(counts, state, args, kwargs, result) -> None:
    counts["tasks"] = len(result)


def _install_generation(tracer: Tracer, module) -> None:
    tracer.wrap(module, "generate_nodes", "workload.generate_nodes")
    tracer.wrap(module, "generate_configs", "workload.generate_configs")
    tracer.wrap(
        module, "generate_task_stream", "workload.generate_task_stream",
        call=_materialise, after=_count_tasks,
    )


def _report_counts(counts, result) -> None:
    counts["search_steps"] = result.report.total_scheduler_workload
    counts["reconfigurations"] = result.report.total_reconfigurations


def _install_run(tracer: Tracer) -> None:
    cli = importlib.import_module("repro.cli.main")
    from repro.framework import campaign, simulator
    from repro.framework.failures import FailureInjector

    _install_generation(tracer, campaign)
    tracer.wrap(campaign, "build_campaign", "resources.build")

    def events_of(args, kwargs):
        return args[0].env.events_processed

    def loop_after(counts, events0, args, kwargs, result):
        counts["events"] = args[0].env.events_processed - events0
        _report_counts(counts, result)

    tracer.wrap(simulator.DReAMSim, "run", "framework.loop", before=events_of, after=loop_after)
    # The name simulator.py calls: a span here means the hot loop really ran.
    tracer.wrap(simulator, "run_hot", "framework.run_hot")
    tracer.wrap(cli, "write_report_xml", "framework.report_write")

    def resilience_after(counts, state, args, kwargs, result):
        counts["config_faults"] = result.config_faults
        counts["interrupts"] = result.interrupts_total
        counts["retries"] = result.retries_total
        counts["goodput"] = result.goodput

    tracer.wrap(FailureInjector, "resilience", "failures.resilience", after=resilience_after)


def _install_serve(tracer: Tracer) -> None:
    from repro.service import ServiceSimulator, Snapshot, driver
    from repro.trace import bus

    tracer.wrap(driver, "build_campaign", "resources.build")

    def now_of(args, kwargs):
        return int(args[0].sim.env.now)

    def window_after(counts, now0, args, kwargs, result):
        counts["ticks"] = int(args[0].sim.env.now) - now0

    tracer.wrap(
        ServiceSimulator, "advance_to", "service.advance_to",
        before=now_of, after=window_after,
    )
    tracer.wrap(ServiceSimulator, "report_view", "trace.replay")
    tracer.wrap(ServiceSimulator, "checkpoint", "service.checkpoint")
    tracer.wrap(ServiceSimulator, "resume", "service.restore")

    def drain_after(counts, state, args, kwargs, result):
        counts["events"] = args[0].bus.events_emitted
        _report_counts(counts, result)

    tracer.wrap(ServiceSimulator, "drain", "service.drain", after=drain_after)

    def write_after(counts, state, args, kwargs, result):
        counts["bytes"] = Path(result).stat().st_size

    tracer.wrap(Snapshot, "write", "service.snapshot_write", after=write_after)
    tracer.wrap(Snapshot, "read", "service.snapshot_read")
    tracer.wrap(bus, "read_jsonl", "trace.read_jsonl")


def _install_sweep(tracer: Tracer) -> None:
    from repro.parallel import ResultCache, SweepExecutor, executor, worker

    _install_generation(tracer, worker)

    def run_after(counts, state, args, kwargs, result):
        cache = args[0].cache
        if cache is not None:
            counts["hits"] = cache.stats.hits
            counts["misses"] = cache.stats.misses
            counts["stored"] = cache.stats.stored

    tracer.wrap(SweepExecutor, "run", "parallel.run", after=run_after)

    def payload_after(counts, state, args, kwargs, result):
        counts["payload_bytes"] = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    # The serial path (``--jobs 1``) calls this name in-process; pool
    # workers run it in their own processes, where spans are not collected.
    tracer.wrap(executor, "execute_spec", "parallel.execute_spec", after=payload_after)
    tracer.wrap(ResultCache, "load", "parallel.cache_load")
    tracer.wrap(ResultCache, "store", "parallel.cache_store")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span-recording wrapper adds to a call, measured on a no-op.

    The least of ``repeats`` timings of ``calls`` calls, wrapped minus plain.
    """
    class Noop:
        def call(self) -> None:
            pass

    plain = Noop.call
    tracer = Tracer(GcMeter())
    tracer.wrap(Noop, "call", "noop")
    wrapped, obj = Noop.call, Noop()
    best_plain = best_wrapped = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            plain(obj)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(obj)
        t2 = time.perf_counter()
        best_plain, best_wrapped = min(best_plain, t1 - t0), min(best_wrapped, t2 - t1)
    return max(best_wrapped - best_plain, 0.0) / calls


def _trace_file_bytes(argv: list[str]) -> int:
    if "--trace" in argv:
        path = Path(argv[argv.index("--trace") + 1])
        if path.exists():
            return path.stat().st_size
    return 0


def main(argv: list[str]) -> int:
    mode, out = argv[0], Path(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: probe.py setup|trace OUT -- <dreamsim argv>")
    cli_argv = argv[3:]
    command = cli_argv[0]
    if mode == "setup":
        cli = importlib.import_module("repro.cli.main")

        _stop_at_loop(command, out)
        cli.main(cli_argv)
        raise SystemExit(f"probe: {command} finished without entering its loop")
    if mode != "trace":
        raise SystemExit(f"probe: unknown mode {mode!r}")

    meter = GcMeter()
    meter.install()
    tracer = Tracer(meter)
    with tracer.span("cli.import"):
        cli = importlib.import_module("repro.cli.main")
    _install_run(tracer)
    if command == "serve":
        _install_serve(tracer)
    elif command == "sweep":
        _install_sweep(tracer)
    rc = cli.main(cli_argv)
    sys.stdout.flush()
    out.write_text(json.dumps({
        "rc": rc,
        "spans": tracer.spans,
        "jsonl_bytes": _trace_file_bytes(cli_argv),
        "overhead_s": len(tracer.spans) * span_cost_s(),
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
