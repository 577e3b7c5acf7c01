"""The flat-table hot loop: the fast driver for ``backend="array"`` runs.

The generic :class:`~repro.framework.simulator.DReAMSim` run loop routes
every arrival and completion through the event kernel, the four-phase
scheduler, the monitor, and the load balancer as separate objects — clean
layering, but at paper scale (200 nodes / 100k tasks) the per-event call
overhead dominates the wall clock.  This module collapses that stack into
one loop over the :class:`~repro.resources.arraycore.ArrayRIM` flat tables:
the event heap, phase-0..4 placement, suspension-queue maintenance,
monitor/load sampling and the metric accumulators all run as straight-line
code over the packed integer arrays.

**The hot loop is an implementation of the same semantics, not a variant.**
Every simulated quantity — scheduling/housekeeping step charges, task
timestamps and state history, monitor and load series, waste accumulators,
scheduler statistics, event ordering (``(time, insertion sequence)`` heap
ties) — is produced exactly as the generic path produces it, so a hot run
and a generic run of the same inputs are bit-identical
(``tests/test_array_differential.py`` asserts this).  The loop therefore
only engages for configurations whose behaviour it replicates completely
(:func:`hot_ineligibility` names the first clause a run fails):

* array backend (``ArrayRIM`` + ``ArraySuspensionQueue``), homogeneous;
* the paper's MIN_AREA placement policy and a ``FixedDelayModel`` network;
* no GPP pool, no debug invariant checking.

**One canonical line per event.**  With a trace bus attached the loop builds
each event's canonical JSON line inline — an f-string with the exact stamps
the generic path's ``TraceBus.emit`` would produce — batches the lines, and
hands every batch to :meth:`TraceBus.write_lines`.  Every shipped sink
(``DigestSink``, ``MemorySink``, ``JsonlSink``) consumes the bytes as they
are, so the stream is encoded once whatever sinks listen; a sink without
``write_lines`` gets the batch parsed back into events.

**Windows and parking.**  :func:`run_hot` takes an ``until`` horizon: it
fires every event due by then, leaves the clock at the last fired event
(the kernel's ``idle_advance=False``), writes its hoisted locals back and
*parks* — the loop is a suspended generator on the simulator, its heap in
``sim._hot_heap`` — so the next window continues where this one stopped
with no rebuild.  Generic code that needs the kernel form of the queue (a
checkpoint, the generic loop) calls :func:`spill`, the inverse of the
loop's adoption step; the next window adopts the events back.

**Fault campaigns run here too.**  An armed
:class:`~repro.framework.failures.FailureInjector` schedules its events on
the kernel (``env._queue``); the loop *adopts* them into its own heap with
their kernel sequence numbers, so tie-breaks match the generic loop by
construction.  Arrivals, completions (with the stale check a fault
interrupt makes necessary), backoff retries and the redispatch a finished
scrub starts stay on the inlined fast path.  Every other injector event —
``seu_next``, ``crash_next``, ``burst_next``, ``repair``, ``probation``,
the ``ArrayRIM.finish_scrub`` half of ``scrub_finish`` — and the
scheduler's quarantine-requisition rung are *slow-path exits*: the loop
writes its hoisted locals back, flushes its trace buffer into the bus,
re-attaches ``rim.trace``, runs the unchanged callback, re-reads the
locals and adopts whatever the callback scheduled.

Anything outside the envelope falls back to the generic loop — the
reference oracle, as the scan manager is for managers.

This module intentionally reaches into manager/susqueue internals — it *is*
the manager's hot path, hoisted out of per-call method dispatch; dreamlint's
DL005 manager-state rule exempts it alongside the managers themselves.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import partial
from heapq import heappop, heappush
from math import sqrt
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.base import Placement, PlacementKind
from repro.core.policies import PlacementPolicy, SelectionCriterion
from repro.core.scheduler import DreamScheduler
from repro.framework.loadbalance import LoadSnapshot
from repro.framework.monitoring import MonitorSample
from repro.model.task import Task, TaskStatus
from repro.network.delays import FixedDelayModel
from repro.resources.arraycore import (
    _POS_BITS,
    _POS_MASK,
    _SEQ_BITS,
    _SEQ_MASK,
    ArrayRIM,
    ArraySuspensionQueue,
)
from repro.resources.susqueue import NO_KEY
from repro.sim.core import PRIORITY_NORMAL
from repro.trace.bus import TraceBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.simulator import DReAMSim

# Kinds of non-arrival, non-completion event records (see run_hot).
_RETRY = "retry"
_SCRUB = "scrub"
_SLOW = "slow"
_NOOP = "noop"
#: The horizon of an unbounded window: later than any event time.
_FOREVER = 1 << 62


def _bus_wired(trace: Optional[TraceBus], sim: "DReAMSim") -> bool:
    """True when ``trace`` is a plain bus shared by every component of ``sim``.

    The loop suppresses the components' own emissions and formats their
    events inline, which is a pure reordering of the same code only when
    one :class:`TraceBus` (no subclassed ``emit``), stamped from the
    simulator's counters, is wired everywhere — as the constructor does.
    """
    if trace is None:
        return True
    return (
        type(trace) is TraceBus
        and trace.counters is sim.counters
        and sim.scheduler.trace is trace
        and sim.rim.trace is trace
        and sim.susqueue.trace is trace
        and sim.monitor.trace is trace
    )


def hot_ineligibility(sim: "DReAMSim") -> Optional[str]:
    """Why the flat-table hot loop cannot run ``sim``, or None when it can.

    Returns the first failing clause.  Every clause guards a semantic the
    hot loop does not reimplement (a non-array manager, GPP offload,
    policy ablations, debug invariant checking, custom network models).
    Fault campaigns, every trace sink, and runs already under way (a
    service window, a restored snapshot) are inside the envelope.  The
    check is cheap and runs once per run, when it starts or is restored.
    """
    rim = sim.rim
    susq = sim.susqueue
    sched = sim.scheduler
    pol = sched.policy
    min_area = SelectionCriterion.MIN_AREA
    key_fn = susq.key_fn
    if type(rim) is not ArrayRIM or type(susq) is not ArraySuspensionQueue:
        return "backend is not array"
    if not _bus_wired(sim.trace, sim):
        return "trace bus is not a plain TraceBus wired to this simulator"
    if sim.gpp is not None or sched.gpp_pool is not None:
        return "GPP pool attached"
    if sim._debug_every is not None:
        return "invariant checking enabled"
    if not (
        type(pol) is PlacementPolicy
        and pol.idle is min_area
        and pol.blank is min_area
        and pol.partially_blank is min_area
    ):
        return "placement policy is not the paper's"
    if type(sched.network) is not FixedDelayModel:
        return "network model is not FixedDelayModel"
    if not (
        getattr(key_fn, "__func__", None) is DreamScheduler.matched_config_no
        and getattr(key_fn, "__self__", None) is sched
    ):
        return "suspension-queue key is not the matched configuration"
    return None


def run_hot(sim: "DReAMSim", until: Optional[int] = None) -> None:
    """Run ``sim`` through the flat-table hot loop up to time ``until``.

    Fires every event due at or before ``until`` (all of them when it is
    None), leaves the clock at the last fired event and parks the loop on
    the simulator, so the next call continues from there.  Mutates ``sim``
    exactly as ``sim.env.run(until, idle_advance=False)`` would have
    inside the :func:`hot_ineligibility` envelope; the caller
    (:meth:`DReAMSim.advance`, :meth:`DReAMSim.run`) pauses the cyclic
    collector, detaches ``rim.trace`` and seals the run.
    """
    loop = sim._hot
    if loop is None:
        loop = sim._hot = _hot_loop(sim)
        next(loop)
    loop.send(until)


def _stale() -> None:
    """A dead completion's callback: it fires only to advance the clock."""


def spill(sim: "DReAMSim") -> None:
    """Turn a parked hot loop's heap back into kernel events.

    The inverse of the loop's ``adopt`` step: an arrival record becomes the
    ``("arrival",)`` event of ``sim._pending_arrival``; a live completion
    becomes a :class:`Placement` in ``sim._placements`` plus its
    registered ``("complete", task_no)`` event, a dead one an unregistered
    event that only fires (export calls it a ``noop``); every record the
    loop adopted goes back as the kernel event it came from.  All keep
    their sequence numbers.  Called when generic code needs the queue — a
    checkpoint, the generic loop — and a no-op when nothing is parked.
    """
    heap = sim._hot_heap
    if not heap:
        return
    env = sim.env
    placements = sim._placements
    completion_events = sim._completion_events
    for rec in heap:
        when, seq, payload, kind, entry, extra = rec
        if entry is not None:
            task = payload
            tno = task.task_no
            if placements.get(tno) is rec:
                pkind, evicted, closest = extra
                p = Placement(
                    kind=PlacementKind(pkind),
                    node=kind,
                    entry=entry,
                    config=task.assigned_config,
                    config_time=task.config_time_paid,
                    comm_time=task.comm_time,
                    evicted_area=evicted,
                    used_closest_match=closest,
                )
                placements[tno] = p
                completion_events[tno] = env.requeue(
                    when, seq, partial(sim._on_complete, task, p), ("complete", tno)
                )
            else:
                env.requeue(when, seq, _stale, ("complete", tno))
        elif kind is None:
            env.requeue(
                when, seq, partial(sim._on_arrival, sim._pending_arrival), ("arrival",)
            )
        else:
            heappush(env._queue, (when, PRIORITY_NORMAL, seq, extra))
    heap.clear()


def _hot_loop(sim: "DReAMSim") -> Generator[None, Optional[int], None]:  # noqa: C901 - deliberately monolithic
    """The loop behind :func:`run_hot`: a generator that parks between windows.

    It is primed once, then sent one horizon per window (None: run until
    the heap drains).  At every window start it re-reads the state generic
    code may have changed while it was parked (ingested arrivals, a
    closed ingest seam, a spill) and adopts whatever sits on the kernel
    queue; at every window end it writes its hoisted locals back and
    flushes its trace buffer.

    The bodies of ``ArrayRIM.assign_task`` / ``complete_task`` (including
    ``Node.add_task`` / ``remove_task`` and ``_apply_load_delta``) are
    inlined below rather than called: every transition the loop makes is
    legal by construction, and the completion event carries its busy entry
    (so no per-node task scan).  The ``t_live`` branches drop out: no
    placement phase ever selects a failed node (requisition repairs the
    node first), and a crash interrupts every task on its node, so a live
    completion always lands on a node in service.  The inlined code
    performs the identical table updates in the identical order.

    Event records are ``(time, seq, payload, kind, entry, extra)`` tuples:

    * arrival — ``(t, seq, task, None, None, None)``;
    * completion — ``(t, seq, task, node, busy entry, (placement kind,
      evicted area, closest match))``, live only while
      ``sim._placements[task_no]`` is this very record (an SEU or crash
      interrupt pops it, so the old completion fires as a no-op that still
      advances the clock, as ``DReAMSim._on_complete`` does);
    * backoff retry — ``(t, seq, task, _RETRY, None, event)``;
    * scrub finish — ``(t, seq, scrub_no, _SCRUB, None, event)``;
    * any other kernel event — ``(t, seq, event, _SLOW, None, event)``;
    * a completion already stale on adoption, or a restored ``noop`` —
      ``(t, seq, None, _NOOP, None, event)``.

    ``event`` is the adopted kernel event, which :func:`spill` puts back.
    """
    # Hot-path aliases: module globals and builtins rebound as locals so
    # the loop body uses LOAD_FAST instead of LOAD_GLOBAL everywhere.
    bl = bisect_left
    ins = insort
    hpush = heappush
    hpop = heappop
    pos_bits = _POS_BITS
    pos_mask = _POS_MASK
    seq_bits = _SEQ_BITS
    seq_mask = _SEQ_MASK
    no_key = NO_KEY
    rim = sim.rim
    susq = sim.susqueue
    sched = sim.scheduler
    counters = sim.counters
    stats = sched.stats
    by_kind = stats.by_kind
    partial = sim.partial
    monitor = sim.monitor
    load = sim.load

    # -- manager tables (list/dict objects are mutated in place, never
    #    rebound, so one binding stays valid for the whole run) -----------
    nodes_list = rim.nodes
    n_nodes = len(nodes_list)
    configs_list = rim.configs
    ncfg = len(configs_list)
    config_by_no = rim._config_by_no
    cfg_keys = rim._cfg_keys
    idle_m = rim._idle_m
    busy_m = rim._busy_m
    blank_m = rim._blank_m
    ie = rim._ie
    entry_by_seq = rim._entry_by_seq
    node_by_bseq = rim._node_by_bseq
    sp = rim._sp
    sr = rim._sr
    sa = rim._sa
    sb = rim._sb
    bq = rim._sq
    busy_pos = rim._busy_pos
    t_total = rim.t_total
    t_avail = rim.t_avail
    t_nent = rim.t_nent
    t_busy_area = rim.t_busy_area
    t_busy_cnt = rim.t_busy_cnt
    pos_of = rim._pos
    state_counts = rim.state_counts
    sl = rim._sl
    load_w = rim._load_w
    load_den = rim._load_den
    load_den_sq = rim._load_den_sq
    used_nodes = rim._used_nodes
    configure_node = rim.configure_node
    evict_entries = rim.evict_entries
    scan_any_idle = rim._scan_any_idle_node

    # Step counters and scheduler tallies, hoisted to locals.  The rare
    # external calls (configure_node / evict_entries / scan_any_idle)
    # charge ``counters`` themselves, so the locals are synced to the
    # shared object around those calls; everything else — and the stats
    # tallies, which nothing external mutates — flushes once at the end.
    sched_steps = counters.scheduling_steps
    hk_steps = counters.housekeeping_steps
    st_scheduled = stats.scheduled
    st_suspended = stats.suspended
    st_discarded = stats.discarded
    st_closest = stats.closest_match_used
    st_cfg_paid = stats.total_config_time_paid
    st_evicted = stats.total_evicted_area

    # Hot aggregates owned exclusively by the inlined assign/complete code
    # (configure/evict never touch them), hoisted to locals for the run and
    # written back at the end.
    running_count = rim.running_tasks_count
    load_sum_i = rim._load_sum_i
    load_sumsq_i = rim._load_sumsq_i
    # Read-only mirrors of aggregates that only configure/evict mutate;
    # re-synced right after the (rare) configure_node call in submit.
    wasted_total = rim._wasted_total
    conf_total = rim._configured_total
    # Node-state tallies, hoisted like the step counters: the inlined
    # assign/complete code flips them; scan_any_idle reads the shared
    # dict and configure/evict mutate it, so the locals are written into
    # ``state_counts`` before those rare calls and re-read after.
    sc_busy = state_counts["busy"]
    sc_idle = state_counts["idle"]
    sc_blank = state_counts["blank"]

    # -- suspension-queue columns ----------------------------------------
    sq_order = susq._order
    by_key = susq._by_key
    sq_task = susq._task
    sq_seq_c = susq._seq_c
    sq_key_c = susq._key_c
    sq_rank_c = susq._rank_c
    sq_free = susq._free
    rank_fn = susq._rank_fn
    fifo = susq.order == "fifo"
    max_len = susq.max_length
    max_retries = susq.max_retries
    susq_expired = susq.expired

    memo = sched._match_memo
    min_cfg_area = sched._min_config_area
    # config_no -> req_area for the redispatch fits-key filter (static).
    req_of = {no: hit[1].req_area for no, hit in config_by_no.items()}

    # -- monitor / load series (column appends replicate TimeSeries.add:
    #    event times are non-decreasing, so the guard never fires) --------
    ml = monitor.min_interval
    mon_last = monitor._last_time
    mon_samples = monitor.samples
    mb_t, mb_v = monitor.busy_nodes.times, monitor.busy_nodes.values
    mq_t, mq_v = monitor.queue_length.times, monitor.queue_length.values
    mw_t, mw_v = monitor.wasted_area.times, monitor.wasted_area.values
    mr_t, mr_v = monitor.running_tasks.times, monitor.running_tasks.values
    snapshots = load.snapshots
    cv_t, cv_v = load.cv_series.times, load.cv_series.values
    jn_t, jn_v = load.jain_series.times, load.jain_series.values
    # Frozen-dataclass fast construction: __new__ + a one-display __dict__
    # skips the per-field object.__setattr__ of the frozen __init__ while
    # producing an indistinguishable instance (same fields, eq, repr).
    ms_new = MonitorSample.__new__
    ls_new = LoadSnapshot.__new__

    # RunningStats (Welford) locals for placement waste — written back at
    # the end; the identical op order keeps the floats bit-identical.
    pw = sim.placement_waste
    pw_n = pw.n
    pw_total = pw.total
    pw_mean = pw._mean
    pw_m2 = pw._m2
    pw_min = pw.min
    pw_max = pw.max
    sample_system = sim._sample_system
    sim_tasks = sim.tasks
    tasks_append = sim_tasks.append
    placements = sim._placements
    completion_events = sim._completion_events
    export_tag = sim._export_tag
    requisition = sched.requisition_quarantined
    quarantined = rim._quarantined
    injector = sim.injector
    end_scrub = injector.end_scrub if injector is not None else None
    env = sim.env
    env_q = env._queue
    fire = env.fire
    per_tick = sim._per_tick_hk
    last_hk = sim._last_hk_time
    sys_waste = sim.system_waste_total
    waste_samples = sim._system_waste_samples
    placed = sim._placed_count

    # -- inline trace emission -------------------------------------------
    # The generic path builds a TraceEvent + field dict per event and calls
    # ``canonical()`` (a json.dumps) per sink write; at 200n/20k that is the
    # whole 490 % digest overhead.  Here each event is formatted as its
    # canonical line directly — an f-string whose keys are spelled in the
    # sorted order json.dumps(sort_keys=True) would produce, with the same
    # ``ss``/``hk`` stamps the bus would read from the counters at that
    # point — and batched into ``tr_buf``; the batch is joined, encoded
    # once, and handed to the bus's ``write_lines``.  The caller detaches
    # ``rim.trace`` for the duration so configure_node/evict_entries do not
    # also emit through the bus.
    tb = sim.trace
    trace_on = tb is not None
    tr_buf: list = []
    tr_app = tr_buf.append
    tr_seq = tb._seq if tb is not None else 0
    tr_write = tb.write_lines if tb is not None else None

    created_s = TaskStatus.CREATED
    running_s = TaskStatus.RUNNING
    suspended_s = TaskStatus.SUSPENDED
    completed_s = TaskStatus.COMPLETED
    discarded_s = TaskStatus.DISCARDED

    # Event records (see the docstring).  All events carry the kernel's
    # NORMAL priority, so heap order is ``(time, insertion seq)``;
    # allocating ``seq`` at the same call sites as the generic path's
    # ``Environment.schedule`` — and sharing the kernel's counter with the
    # slow-path callbacks — reproduces its tie-breaks exactly.
    heap = sim._hot_heap
    seq = env._seq
    events = 0
    # The arrival feed (DReAMSim._feed_next_arrival): the constructor
    # stream, then the ingest buffer.  ``arrival`` is the one drawn but not
    # yet fired (its record is in the heap); it, the clock and the rest of
    # the feed state are re-read at every window start.
    arr_iter = sim._arrivals
    ingest_buf = sim._ingest_buffer
    # The arrived task numbered ``no``, for adopted retry and generic
    # completion events: by position when task numbers run densely in
    # arrival order (every generated workload), else through an index over
    # ``sim.tasks`` extended on demand.
    task_index: dict = {}
    indexed = 0

    def task_of(no: int) -> Task:
        nonlocal indexed
        i = no - sim_tasks[0].task_no
        if 0 <= i < len(sim_tasks) and sim_tasks[i].task_no == no:
            return sim_tasks[i]
        if no not in task_index:
            for t in sim_tasks[indexed:]:
                task_index[t.task_no] = t
            indexed = len(sim_tasks)
        return task_index[no]

    def sync_out() -> None:
        """Write the hoisted locals back onto the shared objects."""
        nonlocal events
        if trace_on:
            if tr_buf:
                tr_write("".join(tr_buf).encode("utf-8"), len(tr_buf))
                tr_buf.clear()
            tb.resume_at(tr_seq)
        counters.scheduling_steps = sched_steps
        counters.housekeeping_steps = hk_steps
        state_counts["busy"] = sc_busy
        state_counts["idle"] = sc_idle
        state_counts["blank"] = sc_blank
        stats.scheduled = st_scheduled
        stats.suspended = st_suspended
        stats.discarded = st_discarded
        stats.closest_match_used = st_closest
        stats.total_config_time_paid = st_cfg_paid
        stats.total_evicted_area = st_evicted
        sim._arrivals_done = arrivals_done
        sim._pending_arrival = arrival
        sim._arrivals_consumed = consumed
        sim._last_hk_time = last_hk
        sim.system_waste_total = sys_waste
        sim._system_waste_samples = waste_samples
        sim._placed_count = placed
        pw.n = pw_n
        pw.total = pw_total
        pw._mean = pw_mean
        pw._m2 = pw_m2
        pw.min = pw_min
        pw.max = pw_max
        rim.running_tasks_count = running_count  # dreamlint: disable=DL005 (write-back of the hoisted aggregate)
        rim._load_sum_i = load_sum_i  # dreamlint: disable=DL005 (write-back of the hoisted aggregate)
        rim._load_sumsq_i = load_sumsq_i  # dreamlint: disable=DL005 (write-back of the hoisted aggregate)
        monitor._last_time = mon_last
        env._now = now
        env._seq = seq
        env._event_count += events
        events = 0

    def sync_in() -> None:
        """Re-read the hoisted locals after generic code mutated the objects."""
        nonlocal sched_steps, hk_steps, sc_busy, sc_idle, sc_blank
        nonlocal st_scheduled, st_suspended, st_discarded
        nonlocal st_closest, st_cfg_paid, st_evicted
        nonlocal last_hk, sys_waste, waste_samples, placed
        nonlocal pw_n, pw_total, pw_mean, pw_m2, pw_min, pw_max
        nonlocal running_count, load_sum_i, load_sumsq_i
        nonlocal wasted_total, conf_total, mon_last, seq, tr_seq
        sched_steps = counters.scheduling_steps
        hk_steps = counters.housekeeping_steps
        sc_busy = state_counts["busy"]
        sc_idle = state_counts["idle"]
        sc_blank = state_counts["blank"]
        st_scheduled = stats.scheduled
        st_suspended = stats.suspended
        st_discarded = stats.discarded
        st_closest = stats.closest_match_used
        st_cfg_paid = stats.total_config_time_paid
        st_evicted = stats.total_evicted_area
        last_hk = sim._last_hk_time
        sys_waste = sim.system_waste_total
        waste_samples = sim._system_waste_samples
        placed = sim._placed_count
        pw_n = pw.n
        pw_total = pw.total
        pw_mean = pw._mean
        pw_m2 = pw._m2
        pw_min = pw.min
        pw_max = pw.max
        running_count = rim.running_tasks_count
        load_sum_i = rim._load_sum_i
        load_sumsq_i = rim._load_sumsq_i
        wasted_total = rim._wasted_total
        conf_total = rim._configured_total
        mon_last = monitor._last_time
        seq = env._seq
        if trace_on:
            tr_seq = tb._seq

    def adopt() -> None:
        """Move the events generic code scheduled on the kernel into the heap.

        They keep their kernel sequence numbers.  The ``("arrival",)``
        event (primed by ``start()``, fed by ``ingest()``, or restored)
        becomes the loop's own arrival record; a generic completion is
        re-pointed at its fast record (or becomes a no-op when
        ``DReAMSim._export_tag`` already calls it stale); retries and scrub
        finishes get fast records; the rest fire through :func:`slow`.
        """
        nonlocal arrival
        for when, _prio, eseq, ev in env_q:
            tag = ev.tag
            kind = tag[0] if tag else None
            if kind == "complete":
                tno = tag[1]
                if export_tag(tag, ev)[0] == "complete":
                    p = placements[tno]
                    rec = (
                        when, eseq, task_of(tno), p.node, p.entry,
                        (p.kind.value, p.evicted_area, p.used_closest_match),
                    )
                    placements[tno] = rec
                    del completion_events[tno]
                else:
                    rec = (when, eseq, None, _NOOP, None, ev)
            elif kind == "arrival":
                arrival = sim._pending_arrival
                rec = (when, eseq, arrival.task, None, None, None)
            elif kind == "noop":
                rec = (when, eseq, None, _NOOP, None, ev)
            elif kind == "retry":
                rec = (when, eseq, task_of(tag[1]), _RETRY, None, ev)
            elif kind == "scrub_finish" and end_scrub is not None:
                rec = (when, eseq, tag[1], _SCRUB, None, ev)
            else:
                rec = (when, eseq, ev, _SLOW, None, ev)
            hpush(heap, rec)
        env_q.clear()

    def slow(fn: Callable[[Any], Any], arg: object) -> Any:
        """One slow-path exit: run generic code ``fn(arg)`` on synced state."""
        sync_out()
        rim.trace = tb
        out = fn(arg)
        rim.trace = None
        sync_in()
        if env_q:
            adopt()
        return out

    def matched_cno(task: Task) -> Optional[int]:
        # DreamScheduler.matched_config: memoised exact-then-closest match.
        tno = task.task_no
        if tno in memo:
            cfg = memo[tno]
        else:
            pref = task.pref_config
            hit = config_by_no.get(pref.config_no)
            if hit is not None:
                cfg = hit[1]
            else:
                i = bl(cfg_keys, pref.req_area << pos_bits)
                cfg = configs_list[cfg_keys[i] & pos_mask] if i < len(cfg_keys) else None
            memo[tno] = cfg
        return cfg.config_no if cfg is not None else None

    def submit(task: Task, now: int) -> int:
        """One ``DreamScheduler.schedule`` + framework follow-up, inlined.

        Returns 0 scheduled / 1 suspended / 2 discarded (the framework only
        branches on "scheduled or not").  Step charges accumulate in the
        local ``ss`` and are flushed to the shared counters once per exit
        path (and before ``scan_any_idle``, which charges internally).
        """
        nonlocal seq, sys_waste, waste_samples, placed
        nonlocal running_count, load_sum_i, load_sumsq_i
        nonlocal pw_n, pw_total, pw_mean, pw_m2, pw_min, pw_max
        nonlocal wasted_total, conf_total
        nonlocal sched_steps, hk_steps
        nonlocal st_scheduled, st_suspended, st_discarded
        nonlocal st_closest, st_cfg_paid, st_evicted
        nonlocal sc_busy, sc_idle, sc_blank, mon_last
        nonlocal tr_seq
        steps0 = sched_steps

        # Phase 0: exact configuration match, else closest (both charged as
        # the reference linear scans).
        pref = task.pref_config
        hit = config_by_no.get(pref.config_no)
        if hit is not None:
            ss = hit[0] + 1
            config = hit[1]
            used_closest = False
        else:
            ss = 2 * ncfg
            i = bl(cfg_keys, pref.req_area << pos_bits)
            if i == len(cfg_keys):
                task.status = discarded_s
                task._history.append((now, discarded_s))
                sched_steps = steps0 + ss
                task.scheduling_steps += ss
                st_discarded += 1
                if trace_on:
                    tr_app(f'{{"ev":"Discarded","hk":{hk_steps},"reason":"no_config","seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{task.task_no}}}\n')
                    tr_seq += 1
                return 2
            config = configs_list[cfg_keys[i] & pos_mask]
            used_closest = True
        cno = config.config_no
        req = config.req_area
        config_time = 0
        evicted = 0

        # Phase 1: best idle entry holding the matched configuration.
        ss += len(idle_m[cno])
        lst = ie[cno]
        if lst:
            entry = entry_by_seq[lst[0] & seq_mask]
            node = entry._node  # type: ignore[attr-defined]
            kind = "allocation"
        else:
            node = None
            kind = ""
            # Phase 2: best blank node.
            ss += len(blank_m)
            j = bl(bq, req << seq_bits)
            if j < len(bq):
                node = node_by_bseq[bq[j] & seq_mask]
                kind = "configuration"
            elif partial:
                # Phase 3: best partially blank node.
                ss += n_nodes - sc_blank
                k = bl(sp, req << pos_bits)
                if k < len(sp):
                    node = nodes_list[sp[k] & pos_mask]
                    kind = "partial_configuration"
            if node is None:
                # Phase 4: FindAnyIdleNode (Alg. 1); full mode requires an
                # all-idle node (whole-node reconfiguration).
                lst4 = sr if partial else sa
                if not lst4 or lst4[-1] < req << pos_bits:
                    if partial:
                        ss += rim._failed_count + len(blank_m) + rim._entries_total
                    else:
                        ss += (
                            rim._failed_count + sc_busy + len(blank_m)
                            + rim._idle_node_entries
                        )
                else:
                    counters.scheduling_steps = steps0 + ss
                    counters.housekeeping_steps = hk_steps
                    state_counts["busy"] = sc_busy
                    state_counts["idle"] = sc_idle
                    state_counts["blank"] = sc_blank
                    node, evict = scan_any_idle(config, not partial)
                    ss = counters.scheduling_steps - steps0
                    hk_steps = counters.housekeeping_steps
                    if node is not None:
                        evicted = evict_entries(node, evict) if evict else 0
                        hk_steps = counters.housekeeping_steps
                        sc_busy = state_counts["busy"]
                        sc_idle = state_counts["idle"]
                        sc_blank = state_counts["blank"]
                        kind = "partial_reconfiguration"
                        if trace_on and evict:
                            cfgs = ",".join([str(e.config.config_no) for e in evict])
                            tr_app(f'{{"area":{evicted},"cfgs":[{cfgs}],"ev":"ConfigEvicted","hk":{hk_steps},"node":{node.node_no},"seq":{tr_seq},"ss":{steps0 + ss},"t":{now}}}\n')
                            tr_seq += 1
            if node is None:
                # Last resort: suspend if any busy node could ever host it.
                if not sb or sb[-1] < req << pos_bits:
                    ss += n_nodes
                    exists = False
                else:
                    exists = False
                    for p in busy_pos:
                        if t_total[p] >= req:
                            ss += p + 1
                            exists = True
                            break
                if exists:
                    if max_len is None or len(sq_order) < max_len:
                        # ArraySuspensionQueue.add, inlined.
                        task.status = suspended_s
                        task._history.append((now, suspended_s))
                        susq._seq += 1
                        s = susq._seq
                        # matched_cno with the memo hit unwrapped inline.
                        tno = task.task_no
                        if tno in memo:
                            cfgm = memo[tno]
                            key = cfgm.config_no if cfgm is not None else no_key
                        else:
                            key = matched_cno(task)
                            if key is None:
                                key = no_key
                        rank = 0.0 if fifo else rank_fn(task)
                        if sq_free:
                            slot = sq_free.pop()
                            sq_task[slot] = task
                            sq_seq_c[slot] = s
                            sq_key_c[slot] = key
                            sq_rank_c[slot] = rank
                        else:
                            slot = len(sq_task)
                            sq_task.append(task)
                            sq_seq_c.append(s)
                            sq_key_c.append(key)
                            sq_rank_c.append(rank)
                        triple = (rank, s, slot)
                        # FIFO rank is constant 0.0 and the seq strictly
                        # grows, so the new triple always sorts last and
                        # insort degenerates to append.
                        if fifo:
                            sq_order.append(triple)
                        else:
                            ins(sq_order, triple)
                        bucket = by_key.get(key)
                        if bucket is None:
                            by_key[key] = [triple]
                        elif fifo:
                            bucket.append(triple)
                        else:
                            ins(bucket, triple)
                        hk_steps += 1
                        susq.total_suspended += 1
                        sched_steps = steps0 + ss
                        task.scheduling_steps += ss
                        st_suspended += 1
                        if trace_on:
                            tr_app(f'{{"ev":"Suspended","hk":{hk_steps},"qlen":{len(sq_order)},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{task.task_no}}}\n')
                            tr_seq += 1
                        return 1
                # Queue full or nothing can ever host it: requisition a
                # quarantined node (DreamScheduler._rescue_or_discard's
                # rung, a slow-path exit), else discard.
                if quarantined:
                    sched_steps = steps0 + ss
                    node = slow(requisition, config)
                    ss = sched_steps - steps0
                if node is None:
                    task.status = discarded_s
                    task._history.append((now, discarded_s))
                    sched_steps = steps0 + ss
                    task.scheduling_steps += ss
                    st_discarded += 1
                    if trace_on:
                        reason = "queue_full" if exists else "no_placement"
                        tr_app(f'{{"ev":"Discarded","hk":{hk_steps},"reason":"{reason}","seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{task.task_no}}}\n')
                        tr_seq += 1
                    return 2
                kind = "configuration"
            counters.housekeeping_steps = hk_steps
            state_counts["busy"] = sc_busy
            state_counts["idle"] = sc_idle
            state_counts["blank"] = sc_blank
            entry = configure_node(node, config, now=now)
            hk_steps = counters.housekeeping_steps
            sc_busy = state_counts["busy"]
            sc_idle = state_counts["idle"]
            sc_blank = state_counts["blank"]
            config_time = config.config_time
            # FixedDelayModel ships bitstreams for free (transfer time 0).
            # Re-mirror the aggregates configure/evict just changed.
            wasted_total = rim._wasted_total
            conf_total = rim._configured_total
            if trace_on:
                tr_app(f'{{"cfg":{cno},"ctime":{config_time},"ev":"ConfigLoaded","hk":{hk_steps},"node":{node.node_no},"seq":{tr_seq},"ss":{steps0 + ss},"t":{now}}}\n')
                tr_seq += 1

        # DreamScheduler._start + DReAMSim._submit/_record_placement.
        comm = node.network_delay
        task.status = running_s
        task._history.append((now, running_s))
        task.start_time = now
        task.assigned_config = config
        task.comm_time = comm
        task.config_time_paid = config_time
        # ArrayRIM.assign_task (incl. Node.add_task), inlined: the entry is
        # idle on ``node`` by construction, so the validation scans and the
        # (always-true) liveness branch drop out.
        ecfg = entry.config
        req2 = ecfg.req_area
        cno2 = ecfg.config_no
        del idle_m[cno2][entry]
        akey = entry._akey  # type: ignore[attr-defined]
        if akey is not None:
            lst2 = ie[cno2]
            del lst2[bl(lst2, akey)]
            del entry_by_seq[akey & seq_mask]
            entry._akey = None  # type: ignore[attr-defined]
        hk_steps += 1
        entry.task = task
        node._busy_count += 1
        node._busy_area += req2
        pos = pos_of[node]
        ba0 = t_busy_area[pos]
        ba1 = ba0 + req2
        bc0 = t_busy_cnt[pos]
        t_busy_area[pos] = ba1
        t_busy_cnt[pos] = bc0 + 1
        running_count += 1
        total = t_total[pos]
        if bc0 == 0:
            sc_idle -= 1
            sc_busy += 1
        okey = (total - ba0) << pos_bits | pos
        del sr[bl(sr, okey)]
        ins(sr, (total - ba1) << pos_bits | pos)
        if bc0 == 0:
            tkey = total << pos_bits | pos
            del sa[bl(sa, tkey)]
            ins(sb, tkey)
            ins(busy_pos, pos)
            rim._idle_node_entries -= t_nent[pos]  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
        # _apply_load_delta, inlined (same float ops, same order).
        old = (ba0 / total, pos)
        del sl[bl(sl, old)]
        ins(sl, (ba1 / total, pos))
        w = load_w[pos]
        d = (ba1 - ba0) * w
        load_sum_i += d
        load_sumsq_i += d * ((ba1 + ba0) * w)
        busy_m[cno2][entry] = None
        hk_steps += 1
        used_nodes.add(node.node_no)

        sched_steps = steps0 + ss
        task.scheduling_steps += ss
        if trace_on:
            tr_app(f'{{"avail":{node._available_area},"cfg":{cno},"closest":{"true" if used_closest else "false"},"ctime":{config_time},"ev":"Placed","hk":{hk_steps},"kind":"{kind}","node":{node.node_no},"seq":{tr_seq},"ss":{sched_steps},"sw":{wasted_total},"t":{now},"task":{task.task_no}}}\n')
            tr_seq += 1
        st_scheduled += 1
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if used_closest:
            st_closest += 1
        st_cfg_paid += config_time
        st_evicted += evicted
        # RunningStats.add, inlined.
        x = float(node._available_area)
        pw_n += 1
        pw_total += x
        delta = x - pw_mean
        pw_mean += delta / pw_n
        pw_m2 += delta * (x - pw_mean)
        if x < pw_min:
            pw_min = x
        if x > pw_max:
            pw_max = x
        if sample_system:
            sys_waste += wasted_total
            waste_samples += 1
        # Monitor.sample, inlined (direct item stores into the fresh
        # instance dict — no intermediate display dict).
        if mon_last is None or now - mon_last >= ml:
            qlen = len(sq_order)
            ms = ms_new(MonitorSample)
            dd = ms.__dict__
            dd["time"] = now
            dd["busy_nodes"] = sc_busy
            dd["idle_nodes"] = sc_idle
            dd["blank_nodes"] = sc_blank
            dd["running_tasks"] = running_count
            dd["suspended_tasks"] = qlen
            dd["configured_area"] = conf_total
            dd["wasted_area"] = wasted_total
            mon_samples.append(ms)
            mb_t.append(now)
            mb_v.append(sc_busy)
            mq_t.append(now)
            mq_v.append(qlen)
            mw_t.append(now)
            mw_v.append(wasted_total)
            mr_t.append(now)
            mr_v.append(running_count)
            mon_last = now
            if trace_on:
                tr_app(f'{{"busy":{sc_busy},"ev":"MonitorSampled","hk":{hk_steps},"queued":{qlen},"running":{running_count},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"waste":{wasted_total}}}\n')
                tr_seq += 1
        placed += 1
        seq += 1
        rec = (
            now + config_time + comm + task.required_time, seq, task, node, entry,
            (kind, evicted, used_closest),
        )
        placements[task.task_no] = rec
        hpush(heap, rec)
        return 0

    # -- main event loop ---------------------------------------------------
    ingest_pop = ingest_buf.popleft
    stop = yield
    while True:
        # Window start.  Generic code may have run since the last window —
        # ingest() fed an arrival, close_ingest() sealed the feed, a
        # checkpoint spilled the heap — so re-read what it can touch, then
        # adopt whatever it queued on the kernel (on the first window: the
        # primed arrival and an armed injector's events).
        sync_in()
        now = env._now
        arrival = sim._pending_arrival
        arrivals_done = sim._arrivals_done
        consumed = sim._arrivals_consumed
        if env_q:
            adopt()
        if stop is None:
            stop = _FOREVER
        while heap:
            rec = hpop(heap)
            if rec[0] > stop:
                hpush(heap, rec)
                break
            now, _s, task, cnode, centry, _x = rec
            events += 1
            if centry is None:
                if cnode is None:
                    # -- arrival (DReAMSim._on_arrival) -----------------------
                    if now > last_hk:
                        if per_tick:
                            hk_steps += (now - last_hk) * per_tick
                        last_hk = now
                    task.create_time = now
                    task._history.append((now, created_s))
                    tasks_append(task)
                    if trace_on:
                        tr_app(f'{{"ev":"TaskArrived","hk":{hk_steps},"pref":{task.pref_config.config_no},"req":{task.required_time},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{task.task_no}}}\n')
                        tr_seq += 1
                        if len(tr_buf) >= 1024:
                            tr_write("".join(tr_buf).encode("utf-8"), len(tr_buf))
                            tr_buf.clear()
                    submit(task, now)
                    # DReAMSim._feed_next_arrival, inlined.
                    arrival = next(arr_iter, None)
                    if arrival is not None:
                        consumed += 1
                    elif ingest_buf:
                        arrival = ingest_pop()
                    if arrival is not None:
                        seq += 1
                        at = arrival.at
                        hpush(heap, (at if at > now else now, seq, arrival.task, None, None, None))
                    elif not sim._ingest_open:
                        arrivals_done = True
                    continue
                if cnode is _RETRY:
                    # -- backoff elapsed (FailureInjector._retry) -------------
                    sim._pending_retries -= 1
                    submit(task, now)
                    continue
                if cnode is _SCRUB:
                    # -- scrub done (FailureInjector._finish_scrub): free the
                    #    region on the slow path, redispatch from it below ---
                    cnode = slow(end_scrub, task)
                    if cnode is None:
                        continue  # stale: the node crashed mid-scrub
                    pos = pos_of[cnode]
                else:
                    if cnode is _SLOW:
                        slow(fire, task)
                    continue  # a _NOOP: a generic completion already stale
            else:
                # -- completion (DReAMSim._on_complete) -----------------------
                if placements.get(task.task_no) is not rec:
                    continue  # stale: a fault interrupted the task
                del placements[task.task_no]
                if now > last_hk:
                    if per_tick:
                        hk_steps += (now - last_hk) * per_tick
                    last_hk = now
                task.status = completed_s
                task._history.append((now, completed_s))
                task.completion_time = now
                if trace_on:
                    tr_app(f'{{"closest":{"true" if task.used_closest_match else "false"},"ev":"Completed","hk":{hk_steps},"node":{cnode.node_no},"run":{task.running_time},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{task.task_no},"wait":{task.waiting_time}}}\n')
                    tr_seq += 1
                    if len(tr_buf) >= 1024:
                        tr_write("".join(tr_buf).encode("utf-8"), len(tr_buf))
                        tr_buf.clear()
                # ArrayRIM.complete_task (incl. Node.remove_task), inlined: the
                # event carries the busy entry, so no per-node scan; liveness
                # branch drops out as in assign.
                centry.task = None
                ecfg = centry.config
                req = ecfg.req_area
                cno = ecfg.config_no
                cnode._busy_count -= 1
                cnode._busy_area -= req
                pos = pos_of[cnode]
                ba0 = t_busy_area[pos]
                ba1 = ba0 - req
                bc1 = t_busy_cnt[pos] - 1
                t_busy_area[pos] = ba1
                t_busy_cnt[pos] = bc1
                running_count -= 1
                total = t_total[pos]
                if bc1 == 0:
                    sc_busy -= 1
                    sc_idle += 1
                okey = (total - ba0) << pos_bits | pos
                del sr[bl(sr, okey)]
                ins(sr, (total - ba1) << pos_bits | pos)
                if bc1 == 0:
                    tkey = total << pos_bits | pos
                    del sb[bl(sb, tkey)]
                    del busy_pos[bl(busy_pos, pos)]
                    ins(sa, tkey)
                    rim._idle_node_entries += t_nent[pos]  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
                # _apply_load_delta, inlined.
                old = (ba0 / total, pos)
                del sl[bl(sl, old)]
                ins(sl, (ba1 / total, pos))
                w = load_w[pos]
                d = (ba1 - ba0) * w
                load_sum_i += d
                load_sumsq_i += d * ((ba1 + ba0) * w)
                del busy_m[cno][centry]
                hk_steps += 1
                idle_m[cno][centry] = None
                # _idle_append, inlined (allocates a chain sequence number).
                rim._chain_seq = cseq = rim._chain_seq + 1  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
                akey = t_avail[pos] << seq_bits | cseq
                centry._akey = akey  # type: ignore[attr-defined]
                entry_by_seq[cseq] = centry
                ins(ie[cno], akey)
                hk_steps += 1

                # Monitor.sample, inlined (same form as the submit site).
                if mon_last is None or now - mon_last >= ml:
                    qlen = len(sq_order)
                    ms = ms_new(MonitorSample)
                    dd = ms.__dict__
                    dd["time"] = now
                    dd["busy_nodes"] = sc_busy
                    dd["idle_nodes"] = sc_idle
                    dd["blank_nodes"] = sc_blank
                    dd["running_tasks"] = running_count
                    dd["suspended_tasks"] = qlen
                    dd["configured_area"] = conf_total
                    dd["wasted_area"] = wasted_total
                    mon_samples.append(ms)
                    mb_t.append(now)
                    mb_v.append(sc_busy)
                    mq_t.append(now)
                    mq_v.append(qlen)
                    mw_t.append(now)
                    mw_v.append(wasted_total)
                    mr_t.append(now)
                    mr_v.append(running_count)
                    mon_last = now
                    if trace_on:
                        tr_app(f'{{"busy":{sc_busy},"ev":"MonitorSampled","hk":{hk_steps},"queued":{qlen},"running":{running_count},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"waste":{wasted_total}}}\n')
                        tr_seq += 1
                # LoadBalancer.observe, inlined (the array backend's O(1) aggregates).
                s1 = load_sum_i / load_den
                s2 = load_sumsq_i / load_den_sq
                max_load = sl[-1][0] if sl else 0.0
                mean = s1 / n_nodes if n_nodes else 0.0
                if n_nodes and mean > 0:
                    var = s2 / n_nodes - mean * mean
                    cv = sqrt(var) / mean if var > 0.0 else 0.0
                    jain = min((s1 * s1) / (n_nodes * s2), 1.0) if s2 > 0.0 else 1.0
                else:
                    cv, jain = 0.0, 1.0
                snap = ls_new(LoadSnapshot)
                dd = snap.__dict__
                dd["time"] = now
                dd["mean_load"] = mean
                dd["cv"] = cv
                dd["jain"] = jain
                dd["max_load"] = max_load
                snapshots.append(snap)
                cv_t.append(now)
                cv_v.append(cv)
                jn_t.append(now)
                jn_v.append(jain)
            # -- redispatch from the freed node (DReAMSim._redispatch_from) --
            while sq_order:
                reclaimable = t_total[pos] - t_busy_area[pos]
                if reclaimable <= 0:
                    break
                sched_steps += len(sq_order)
                best = None
                for e in cnode.entries:
                    if e.task is None:
                        bucket = by_key.get(e.config.config_no)
                        if bucket is not None:
                            head = bucket[0]
                            if best is None or head < best:
                                best = head
                if best is not None:
                    slot = best[2]
                else:
                    if reclaimable < min_cfg_area:
                        break
                    # first_matching_key(fits_key), inlined.
                    for key, bucket in by_key.items():
                        ra = req_of.get(key)
                        if ra is None or ra > reclaimable:
                            continue
                        head = bucket[0]
                        if best is None or head < best:
                            best = head
                    if best is None:
                        hk_steps += len(sq_order)
                        break
                    hk_steps += bl(sq_order, best) + 1
                    slot = best[2]
                # ArraySuspensionQueue.remove, inlined.
                rtask = sq_task[slot]
                triple = (sq_rank_c[slot], sq_seq_c[slot], slot)
                del sq_order[bl(sq_order, triple)]
                key = sq_key_c[slot]
                bucket = by_key[key]
                del bucket[bl(bucket, triple)]
                if not bucket:
                    del by_key[key]
                sq_task[slot] = None
                sq_key_c[slot] = None
                sq_free.append(slot)
                hk_steps += 1
                rtask.sus_retry += 1
                if trace_on:
                    tr_app(f'{{"ev":"Resumed","hk":{hk_steps},"retry":{rtask.sus_retry},"seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{rtask.task_no}}}\n')
                    tr_seq += 1
                if submit(rtask, now) != 0:
                    break
            if max_retries is not None:
                for ex in susq_expired():
                    ex.status = discarded_s
                    ex._history.append((now, discarded_s))
                    st_discarded += 1
                    if trace_on:
                        tr_app(f'{{"ev":"Discarded","hk":{hk_steps},"reason":"retries","seq":{tr_seq},"ss":{sched_steps},"t":{now},"task":{ex.task_no}}}\n')
                        tr_seq += 1

        # Window end: write back the state the generic loop keeps on the
        # objects, flush the trace, park until the next window.
        sync_out()
        stop = yield


__all__ = ["hot_ineligibility", "run_hot", "spill"]
