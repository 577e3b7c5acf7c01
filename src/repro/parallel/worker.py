"""The worker side of the sweep engine: specs in, payloads out.

:func:`execute_spec` runs one spec; :func:`execute_chunk` runs a batch of
``(index, spec)`` items inside a single pool task — the executor's adaptive
chunking amortises submit/pickle overhead over the batch while keeping
per-item failure isolation (:class:`ChunkItemFailure`).  Both are
module-level callables (picklable by qualified name under every start
method), derive the entire workload from the spec's seed, and reduce the
finished :class:`~repro.framework.simulator.SimulationResult` to a
picklable :class:`~repro.parallel.spec.RunPayload`.

Determinism: the worker attaches its own :class:`~repro.trace.TraceBus` and
computes the trace digest *in-process*, over exactly the event stream the
run emitted.  A digest therefore never depends on transport — it is the
same BLAKE2b a single-process run with the same spec produces, byte for
byte, which is what the parallel-vs-serial differential suite asserts.

Workload memo: generating a 100k-task arrival stream costs real time, and
a sweep frequently revisits the same ``(nodes, configs, tasks, seed)``
workload under different modes/backends/fault processes.  Each worker
process keeps a small memo of generated-once *master* workloads and hands
every run a fresh clone of the mutable objects (``Task``/``Node`` carry
run state; ``Configuration`` is frozen and shared, preserving the identity
semantics ``used_closest_match`` relies on) — the same discipline as the
perf harness's ``WorkloadBundle``.  :func:`prewarm_workloads` fills the
memo in the pool's parent before it forks, so workers inherit the masters
and the timed sweep region is simulation + dispatch only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.framework.campaign import FaultCampaignSpec, run_campaign
from repro.model.node import Node
from repro.model.task import Task
from repro.parallel.spec import MonitorSeries, RunPayload, RunSpec
from repro.rng import RNG
from repro.trace.bus import DigestSink, MemorySink, TraceBus
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

#: Per-process LRU of master workloads keyed ``(nodes, configs, tasks, seed)``.
#: A 100k-task master is a few MB, so the memo stays deliberately small.
_WORKLOAD_MEMO: "OrderedDict[tuple[int, int, int, int], tuple]" = OrderedDict()
_MEMO_CAP = 8


def _master_workload(c: FaultCampaignSpec) -> tuple:
    """The generated-once ``(nodes, configs, stream)`` for a campaign's workload."""
    key = (c.nodes, c.configs, c.tasks, c.seed)
    hit = _WORKLOAD_MEMO.get(key)
    if hit is None:
        # Exactly build_campaign's generation sequence: one seeded RNG,
        # nodes, then configs, then (tasks permitting) the arrival stream.
        rng = RNG(seed=c.seed)
        nodes = generate_nodes(NodeSpec(count=c.nodes), rng)
        configs = generate_configs(ConfigSpec(count=c.configs), rng)
        stream: list = []
        if c.tasks:
            stream = list(generate_task_stream(TaskSpec(count=c.tasks), configs, rng))
        hit = (nodes, configs, stream)
        _WORKLOAD_MEMO[key] = hit
        while len(_WORKLOAD_MEMO) > _MEMO_CAP:
            _WORKLOAD_MEMO.popitem(last=False)
    else:
        _WORKLOAD_MEMO.move_to_end(key)
    return hit


def _fresh_workload(c: FaultCampaignSpec) -> tuple:
    """A bit-identical initial-state clone of the campaign's master workload."""
    nodes, configs, stream = _master_workload(c)
    fresh_nodes = [
        Node(
            node_no=n.node_no,
            total_area=n.total_area,
            family=n.family,
            caps=n.caps,
            network_delay=n.network_delay,
        )
        for n in nodes
    ]
    fresh_stream = [
        TaskArrival(
            at=a.at,
            task=Task(
                task_no=a.task.task_no,
                required_time=a.task.required_time,
                pref_config=a.task.pref_config,
                data=a.task.data,
            ),
        )
        for a in stream
    ]
    return fresh_nodes, configs, fresh_stream


def prewarm_workloads(specs: Sequence[RunSpec]) -> int:
    """Generate every distinct master workload now; returns the distinct count.

    Call in the pool's parent before submission so fork-started workers
    inherit the memo.  Under spawn start methods workers regenerate once
    per key instead — still amortised across all the chunks they run.
    """
    keys = set()
    for spec in specs:
        c = spec.campaign
        keys.add((c.nodes, c.configs, c.tasks, c.seed))
        _master_workload(c)
    return len(keys)


@dataclass(frozen=True)
class ChunkItemFailure:
    """One chunk item that raised, carried back beside the successes."""

    index: int
    cause: BaseException


def execute_spec(indexed_spec: tuple[int, RunSpec]) -> RunPayload:
    """Run one spec to completion and bundle its picklable end products.

    Takes ``(index, spec)`` so the result can be re-keyed into submission
    order by the executor; runs identically in-process (``jobs=1``) and in
    a pool worker.
    """
    index, spec = indexed_spec
    digest_sink: Optional[DigestSink] = None
    memory_sink: Optional[MemorySink] = None
    trace: Optional[TraceBus] = None
    if spec.collect_digest or spec.collect_events:
        trace = TraceBus()
        digest_sink = DigestSink()
        trace.attach(digest_sink)
        if spec.collect_events:
            memory_sink = MemorySink()
            trace.attach(memory_sink)
    result, injector = run_campaign(
        spec.campaign,
        backend=spec.backend,
        trace=trace,
        workload=_fresh_workload(spec.campaign),
    )
    resilience = injector.resilience(result) if injector is not None else None
    monitor: Optional[MonitorSeries] = None
    if spec.collect_monitor:
        mon = result.monitor
        monitor = MonitorSeries(
            busy_nodes=mon.busy_nodes,
            queue_length=mon.queue_length,
            wasted_area=mon.wasted_area,
            running_tasks=mon.running_tasks,
            sample_count=len(mon),
        )
    return RunPayload(
        index=index,
        spec=spec,
        report=result.report,
        final_time=result.final_time,
        resilience=resilience,
        digest=digest_sink.hexdigest() if digest_sink is not None else None,
        monitor=monitor,
        events=memory_sink.events if memory_sink is not None else None,
    )


def execute_chunk(
    items: tuple[tuple[int, RunSpec], ...],
) -> list[Union[RunPayload, "ChunkItemFailure"]]:
    """Run a batch of items in one pool task; outcomes stay item-aligned.

    A raising spec becomes a :class:`ChunkItemFailure` in its slot instead
    of poisoning the whole chunk — the executor turns it back into a
    :class:`~repro.parallel.executor.SpecFailure` while keeping every
    payload the chunk did complete.
    """
    out: list[Union[RunPayload, ChunkItemFailure]] = []
    for item in items:
        try:
            out.append(execute_spec(item))
        except Exception as exc:  # noqa: BLE001 — carried back, never swallowed
            out.append(ChunkItemFailure(index=item[0], cause=exc))
    return out


__all__ = [
    "ChunkItemFailure",
    "execute_chunk",
    "execute_spec",
    "prewarm_workloads",
]
