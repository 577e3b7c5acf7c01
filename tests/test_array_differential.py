"""Backend differential: the array backend vs the reference scan manager.

The array backend (``backend="array"``, the flat-table hot core) must be
observationally identical to the reference linear-scan manager
(``backend="scan"``) in everything *simulated*: per-task placements,
status and search length ``SL``, Table I counters, the report, the Figure
6–10 monitor series, resilience metrics under fault campaigns, and the
byte-exact structured trace stream.  Only wall-clock time may differ.

Beyond-paper load statistics (``cv``/``jain``/``mean_load``) come from
exact-integer aggregates on the array backend and from a two-pass walk on
the scan manager, so those series are compared with a tight floating-point
tolerance; ``max_load`` is exact on both.

Five layers of evidence:

1. **Campaign differential** — {clean, SEU, quarantine} × {partial, full}
   campaigns run on scan, on array, and on array with the invariant
   checker after every event; reports, resilience reports and BLAKE2b
   trace digests must match byte for byte.  Larger clean runs and
   crash/repair campaigns are compared per task and per monitor sample.
2. **Operation-level round trips** — scripted manager histories (fail,
   repair, evict, blank) and FindAnyIdleNode's per-branch step charging,
   on twin managers of both backends, with the invariant checker after
   every step.
3. **Hot-vs-generic differential** — the flat-table hot loop
   (:func:`repro.framework.hotloop.run_hot`) against the generic event
   loop on the same array backend, field by field, on clean runs and on
   every fault class (SEU in both modes, crash/repair, bursts, quarantine
   with probation and requisition, retry-budget exhaustion, instant and
   backoff resubmits, a crash tied with a completion on one tick).  The
   generic path is forced by an unreachable ``debug_invariants_every``
   threshold, which makes the hot loop decline without ever running the
   checker; each run's ``driver`` record proves which loop ran.  ``run
   --trace FILE`` writes byte-identical files on both tiers.
4. **Property-based free-list interleavings** — random add/remove/expired
   scripts against :class:`~repro.resources.arraycore.ArraySuspensionQueue`,
   twinned with the reference queue and cross-checked by
   ``validate_index()`` after every operation.
5. **Node bookkeeping** — ``Node.interrupt_all`` and failing a node that
   runs nothing leave every busy aggregate exact on both backends.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest
from pytest import approx

from repro import quick_simulation
from repro.framework import DReAMSim
from repro.framework.campaign import FaultCampaignSpec, run_campaign
from repro.framework.failures import FailureInjector
from repro.model import Configuration, Node, Task
from repro.resources import BACKENDS, check_invariants, create_manager
from repro.resources.arraycore import ArraySuspensionQueue
from repro.resources.susqueue import SuspensionQueue
from repro.rng import RNG
from repro.rng.distributions import Constant, UniformInt
from repro.trace import DigestSink, MemorySink, TraceBus
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

SEEDS = (1, 7, 42)


# -- 1. campaign differential --------------------------------------------------


CAMPAIGNS = {
    # No fault knob set: exactly the quick_simulation workload.
    "clean": {},
    # Transient configuration faults with a retry budget: exercises
    # seu_corrupt / finish_scrub / TASK_RETRY / retry discards.
    "seu": {"seu_rate": 1500, "retry_budget": 2, "backoff_base": 20},
    # Crash/repair churn with health-aware quarantine: exercises
    # fail_node / repair_node / quarantine_node / release_quarantined.
    "quarantine": {
        "mtbf": 2500,
        "mttr": 600,
        "quarantine_threshold": 2,
        "probation": 2000,
        "health_half_life": 1000,
    },
}


def run_backend(backend, partial, knobs, **sim_kwargs):
    digest = DigestSink()
    spec = FaultCampaignSpec(
        nodes=30, configs=15, tasks=400, partial=partial, seed=11, **knobs
    )
    result, injector = run_campaign(
        spec, backend=backend, trace=TraceBus(digest), **sim_kwargs
    )
    resilience = injector.resilience(result) if injector is not None else None
    return result, injector, resilience, digest.hexdigest()


#: The three runs each campaign is compared across: the reference scan
#: manager, the array backend, and the array backend with the I1–I10
#: invariant checker run after every single event (which also forces the
#: generic event loop, so a clean campaign covers hot and generic paths).
ARMS = {
    "scan": dict(backend="scan"),
    "array": dict(backend="array"),
    "array-checked": dict(backend="array", debug_invariants_every=1),
}


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
def test_three_backends_identical(campaign, partial):
    knobs = CAMPAIGNS[campaign]
    runs = {arm: run_backend(partial=partial, knobs=knobs, **kw) for arm, kw in ARMS.items()}
    ref_result, ref_injector, ref_resilience, ref_digest = runs["scan"]
    if campaign != "clean":
        # The regime must actually exercise the fault machinery (crashes
        # count as failures; SEU strikes show up as config faults).
        assert ref_injector is not None and ref_resilience is not None
        assert ref_resilience.failures_total + ref_resilience.config_faults > 0
    for arm in ARMS:
        result, _, resilience, digest = runs[arm]
        # Table I counters and everything derived from them.
        assert result.report.as_dict() == ref_result.report.as_dict(), arm
        assert result.final_time == ref_result.final_time, arm
        # Fault-campaign metrics (availability, MTTF/MTTR, retries, ...).
        if ref_resilience is None:
            assert resilience is None, arm
        else:
            assert resilience.as_dict() == ref_resilience.as_dict(), arm
        # The full structured event stream, byte for byte.
        assert digest == ref_digest, arm


def test_quarantine_campaign_quarantines_nodes():
    """Sanity: the quarantine regime above really triggers quarantines."""
    _, _, resilience, _ = run_backend("array", True, CAMPAIGNS["quarantine"])
    assert resilience is not None and resilience.quarantines_total > 0


def test_seu_campaign_injects_config_faults():
    """Sanity: the SEU regime above really strikes configurations."""
    _, _, resilience, _ = run_backend("array", True, CAMPAIGNS["seu"])
    assert resilience is not None and resilience.config_faults > 0


def task_fingerprint(result):
    """Everything the paper observes about one task, per task."""
    return [
        (
            t.task_no,
            t.status.value,
            t.scheduling_steps,  # per-task SL (Fig. 9a numerator)
            t.assigned_config.config_no if t.assigned_config else None,
            t.create_time,
            t.start_time,
            t.completion_time,
            t.comm_time,
            t.config_time_paid,
            t.sus_retry,
        )
        for t in result.tasks
    ]


def assert_equivalent(array, scan):
    """Bit-identical paper-facing outputs; tight approx for beyond-paper."""
    # Per-task placements, status, and SL.
    assert task_fingerprint(array) == task_fingerprint(scan)
    # Table I counters and everything derived from them.
    assert array.report.as_dict() == scan.report.as_dict()
    assert array.final_time == scan.final_time
    # Figure-series samples (busy nodes, queue length, wasted area, running).
    for name in ("busy_nodes", "queue_length", "wasted_area", "running_tasks"):
        sa, ss = getattr(array.monitor, name), getattr(scan.monitor, name)
        assert sa.times == ss.times, name
        assert sa.values == ss.values, name
    # Load series: max is exact; mean/cv/jain may differ by ULPs.
    assert array.load.cv_series.times == scan.load.cv_series.times
    for snap_a, snap_s in zip(array.load.snapshots, scan.load.snapshots):
        assert snap_a.max_load == snap_s.max_load
        assert snap_a.mean_load == approx(snap_s.mean_load, rel=1e-9, abs=1e-12)
        assert snap_a.cv == approx(snap_s.cv, rel=1e-6, abs=1e-9)
        assert snap_a.jain == approx(snap_s.jain, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
@pytest.mark.parametrize("nodes", [100, 200])
def test_array_matches_scan(nodes, partial, seed):
    tasks = 1200 if nodes == 100 else 800
    runs = {
        b: quick_simulation(nodes=nodes, tasks=tasks, partial=partial, seed=seed, backend=b)
        for b in BACKENDS
    }
    assert_equivalent(runs["array"], runs["scan"])
    for result in runs.values():
        check_invariants(result.load.rim)


def run_failure_campaign(backend, seed, partial=True, tasks=300, trace=None):
    """One fail/repair campaign on the generic loop; returns (result, injector)."""
    rng = RNG(seed=seed)
    nodes = generate_nodes(NodeSpec(count=20), rng)
    configs = generate_configs(ConfigSpec(count=10), rng)
    stream = generate_task_stream(TaskSpec(count=tasks), configs, rng)
    sim = DReAMSim(nodes, configs, stream, partial=partial, backend=backend, trace=trace)
    injector = FailureInjector(
        sim, mtbf=UniformInt(3000, 9000), mttr=Constant(800), rng=RNG(seed=seed + 1)
    )
    injector.arm()
    return sim.run(), injector


@pytest.mark.parametrize("seed", SEEDS)
def test_array_matches_scan_under_failures(seed):
    """Fail -> repair round trips during a run leave both backends identical."""
    array, inj_a = run_failure_campaign("array", seed)
    scan, inj_s = run_failure_campaign("scan", seed)
    assert inj_a.failure_count == inj_s.failure_count
    assert inj_a.failure_count > 0  # the regime must actually exercise failures
    assert_equivalent(array, scan)
    check_invariants(array.load.rim)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
def test_failure_campaign_event_streams_identical_across_backends(seed, partial):
    """The *full structured event stream* of a failure campaign — every
    NodeFailed/NodeRepaired/TaskInterrupted/Placed/… event with its counter
    stamps — is byte-identical between backends, so the trace digest
    cannot tell them apart even under fail-restart churn."""
    streams = {}
    for backend in BACKENDS:
        mem, digest = MemorySink(), DigestSink()
        result, injector = run_failure_campaign(
            backend, seed, partial=partial, trace=TraceBus(mem, digest)
        )
        streams[backend] = (result, injector, mem, digest)
        check_invariants(result.load.rim)
    res_a, inj_a, mem_a, dig_a = streams["array"]
    res_s, inj_s, mem_s, dig_s = streams["scan"]
    assert inj_a.failure_count > 0
    assert dig_a.hexdigest() == dig_s.hexdigest()
    assert [e.canonical() for e in mem_a] == [e.canonical() for e in mem_s]
    assert_equivalent(res_a, res_s)
    # The failure events really are in the stream.
    kinds = {e.type for e in mem_a}
    assert "NodeFailed" in kinds and "NodeRepaired" in kinds


# -- 2. operation-level round trips on twin managers ---------------------------


def cfg(no, area, t=10):
    return Configuration(config_no=no, req_area=area, config_time=t)


def build_manager(backend, node_areas, config_areas):
    """A fresh manager of ``backend`` over blank nodes of the given areas."""
    nodes = [Node(node_no=i, total_area=a) for i, a in enumerate(node_areas)]
    configs = [cfg(i, a) for i, a in enumerate(config_areas)]
    return create_manager(nodes, configs, backend=backend)


def started_task(no, config, required=50):
    t = Task(task_no=no, required_time=required, pref_config=config)
    t.mark_created(0)
    t.mark_started(0, config)
    return t


def drive(rim):
    """One scripted mutation history touching every query structure."""
    nodes, configs = rim.nodes, rim.configs
    log = []
    e0 = rim.configure_node(nodes[0], configs[0])
    rim.configure_node(nodes[0], configs[1])
    e2 = rim.configure_node(nodes[1], configs[0])
    for i, (node, entry) in enumerate([(nodes[0], e0), (nodes[1], e2)]):
        t = started_task(i, entry.config)
        rim.assign_task(t, node, entry)
        log.append(t)
    # Queries from every fast path, recording results + charges.
    results = [
        rim.find_preferred_config(configs[1]),
        rim.find_closest_config(cfg(99, configs[1].req_area - 1)),
        rim.find_best_idle_entry(configs[1]),
        rim.find_best_blank_node(configs[0]),
        rim.find_best_partially_blank_node(configs[0]),
        rim.find_any_idle_node(configs[0]),
        rim.busy_candidate_exists(configs[0]),
    ]
    # Fail a busy node, then a repair round trip.
    interrupted = rim.fail_node(nodes[0])
    results.append([t.task_no for t in interrupted])
    results.append(rim.find_best_blank_node(configs[0]))
    rim.repair_node(nodes[0])
    rim.configure_node(nodes[0], configs[0])
    results.append(rim.find_best_idle_entry(configs[0]))
    # Completion + eviction + blanking.
    rim.complete_task(log[1], nodes[1])
    rim.evict_entries(nodes[1], [e2])
    rim.blank_node(nodes[1])
    results.append(rim.find_any_idle_node(configs[0], require_all_idle=True))
    return results, rim.counters.snapshot()


def summarize(results):
    """Node/entry results -> comparable identities."""
    out = []
    for r in results:
        if isinstance(r, tuple) and len(r) == 2:  # (node, evict_list)
            node, evict = r
            out.append(
                (node.node_no if node else None, [e.config.config_no for e in evict])
            )
        elif hasattr(r, "config_no"):
            out.append(("config", r.config_no))
        elif hasattr(r, "node_no"):
            out.append(("node", r.node_no))
        elif hasattr(r, "config"):
            out.append(("entry", r.config.config_no))
        else:
            out.append(r)
    return out


def test_fail_repair_round_trip_identical_and_invariant():
    outcomes = {}
    for backend in BACKENDS:
        rim = build_manager(backend, [2000, 2000, 1500], [400, 600, 900])
        results, counters = drive(rim)
        check_invariants(rim)  # I10 cross-checks every structure after the history
        outcomes[backend] = (summarize(results), counters)
    assert outcomes["array"] == outcomes["scan"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fail_repair_preserves_structures_stepwise(backend):
    """check_invariants after every single mutation of a fail/repair cycle."""
    rim = build_manager(backend, [2000, 2000, 2000], [400, 600])
    nodes, configs = rim.nodes, rim.configs
    check_invariants(rim)
    e0 = rim.configure_node(nodes[0], configs[0])
    check_invariants(rim)
    rim.assign_task(started_task(0, configs[0], required=100), nodes[0], e0)
    check_invariants(rim)
    rim.fail_node(nodes[0])
    check_invariants(rim)
    assert nodes[0].is_blank and not nodes[0].in_service
    assert nodes[0].busy_area == 0
    rim.repair_node(nodes[0])
    check_invariants(rim)
    assert nodes[0].in_service
    # The repaired node is discoverable again through the blank-node query.
    assert rim.find_best_blank_node(configs[0]) is not None


class TestFindAnyIdleNodeCharging:
    """Each node visited by the scan costs exactly one step, every branch."""

    def _rim(self, backend, node_areas, configure=()):
        rim = build_manager(backend, node_areas, [400, 1800])
        for node_idx, config_idx in configure:
            rim.configure_node(rim.nodes[node_idx], rim.configs[config_idx])
        return rim

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_early_return_branch_charges_one(self, backend):
        # Node 0 is configured with free area left: the scan succeeds on the
        # first node and must charge 1 step (the regression was charging 0).
        rim = self._rim(backend, [2000], configure=[(0, 0)])
        before = rim.counters.scheduling_steps
        node, evict = rim.find_any_idle_node(rim.configs[0])
        assert node is rim.nodes[0] and evict == []
        assert rim.counters.scheduling_steps - before == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blank_node_branch_charges_one(self, backend):
        # Node 0 blank (skipped, but visited: 1 step); node 1 hosts the hit.
        rim = self._rim(backend, [2000, 2000], configure=[(1, 0)])
        before = rim.counters.scheduling_steps
        node, _ = rim.find_any_idle_node(rim.configs[0])
        assert node is rim.nodes[1]
        assert rim.counters.scheduling_steps - before == 2

    @pytest.mark.parametrize("require_all_idle", [False, True])
    def test_failed_scan_charges_match_reference(self, require_all_idle):
        # Infeasible request: the array prefilter must bill exactly what
        # the reference walk bills when it comes up empty.
        def charge(backend):
            # Config 1 needs 1800 > every node's total area: no node can ever
            # host it, so the scan fails after visiting the whole table.
            rim = self._rim(backend, [1500, 1400, 1000], configure=[(0, 0), (1, 0)])
            before = rim.counters.scheduling_steps
            node, evict = rim.find_any_idle_node(
                rim.configs[1], require_all_idle=require_all_idle
            )
            assert (node, evict) == (None, [])
            return rim.counters.scheduling_steps - before

        assert charge("array") == charge("scan")

    def test_infeasible_everywhere_charges_whole_walk(self):
        # No node can ever host config 1 (req 1800 > any reclaimable area
        # once config 0 is pinned busy) — full-mode scan visits everything.
        charged = {}
        for backend in BACKENDS:
            rim = self._rim(backend, [1500, 1000], configure=[(0, 0)])
            task = started_task(0, rim.configs[0])
            rim.assign_task(task, rim.nodes[0], rim.nodes[0].entries[0])
            before = rim.counters.scheduling_steps
            assert rim.find_any_idle_node(rim.configs[1]) == (None, [])
            charged[backend] = rim.counters.scheduling_steps - before
        # Reference walk: node 0 visited + per-entry exploration, node 1
        # (blank) visited.  Whatever the exact arithmetic, both agree:
        assert charged["array"] == charged["scan"] >= 2


# -- 3. hot loop vs generic event loop on the array backend --------------------


def full_fingerprint(res):
    """Every simulated observable, including per-task status history."""
    tasks = [
        (
            t.task_no,
            t.status.value,
            t.create_time,
            t.start_time,
            t.completion_time,
            t.comm_time,
            t.config_time_paid,
            t.assigned_config.config_no if t.assigned_config else None,
            t.sus_retry,
            t.scheduling_steps,
            tuple((when, s.value) for when, s in t._history),
        )
        for t in res.tasks
    ]
    samples = [
        (
            s.time,
            s.busy_nodes,
            s.idle_nodes,
            s.blank_nodes,
            s.running_tasks,
            s.suspended_tasks,
            s.configured_area,
            s.wasted_area,
        )
        for s in res.monitor.samples
    ]
    snaps = [
        (s.time, s.mean_load, s.cv, s.jain, s.max_load) for s in res.load.snapshots
    ]
    return (res.report.as_dict(), res.final_time, tasks, samples, snaps)


HOT_CASES = [
    dict(nodes=30, tasks=400, seed=42, partial=True),
    dict(nodes=30, tasks=400, seed=42, partial=False),
    dict(nodes=20, tasks=350, seed=11, partial=True, max_retries=2),
    dict(nodes=20, tasks=350, seed=11, partial=True, max_queue_length=5),
    dict(nodes=15, tasks=300, seed=3, partial=True, queue_order="sjf"),
    dict(nodes=15, tasks=300, seed=3, partial=True, queue_order="area"),
    dict(nodes=25, tasks=300, seed=99, partial=True, monitor_min_interval=50),
    dict(nodes=25, tasks=300, seed=99, partial=False, per_tick_housekeeping=0),
]


@pytest.mark.parametrize(
    "case", HOT_CASES, ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items())
)
def test_hot_loop_matches_generic_loop(case):
    hot = quick_simulation(backend="array", **case)
    # An unreachable invariant-check threshold makes the hot loop decline,
    # forcing the generic event loop without ever running the checker.
    generic = quick_simulation(backend="array", debug_invariants_every=10**9, **case)
    assert (hot.driver, generic.driver) == ("hot", "generic")
    assert generic.driver_reason == "invariant checking enabled"
    assert full_fingerprint(hot) == full_fingerprint(generic)


def _events(kind, **fields):
    """Predicate: the reference stream holds an event of ``kind`` with ``fields``."""

    def has(stream):
        return any(
            e.type == kind and all(e.fields.get(k) == v for k, v in fields.items())
            for e in stream
        )

    return has


#: Fault campaigns on the hot loop vs the generic loop: (campaign knobs,
#: simulator knobs, a predicate proving the reference run exercised the
#: fault class).
FAULT_HOT_CASES = {
    "seu-partial": (
        dict(partial=True, seu_rate=150, scrub_factor=2, retry_budget=3,
             backoff_base=16, backoff_cap=1024),
        {},
        _events("ConfigFault"),
    ),
    "seu-full": (
        dict(partial=False, seu_rate=150, scrub_factor=2, retry_budget=3,
             backoff_base=16, backoff_cap=1024),
        {},
        _events("ConfigFault"),
    ),
    "crash-repair-max-failures": (
        dict(mtbf=300, mttr=400, max_failures=8),
        {},
        _events("NodeRepaired"),
    ),
    "burst": (
        dict(burst_rate=900, burst_size=3, burst_group=4, mttr=500,
             backoff_base=10, retry_budget=4, max_failures=12),
        {},
        _events("NodeFailed", cls="burst"),
    ),
    "quarantine-probation": (
        dict(mtbf=2500, mttr=600, quarantine_threshold=2, probation=2000,
             health_half_life=1000),
        {},
        _events("NodeProbation", reason="probation"),
    ),
    "quarantine-requisition": (
        dict(mtbf=250, mttr=300, quarantine_threshold=1500, probation=3000,
             health_half_life=5000, retry_budget=4, max_failures=30),
        dict(max_queue_length=2),
        _events("NodeProbation", reason="requisition"),
    ),
    "retry-budget-exhausted": (
        dict(seu_rate=600, retry_budget=1),
        {},
        _events("Discarded", reason="retry_budget"),
    ),
    "instant-resubmit": (
        dict(mtbf=500, mttr=300, seu_rate=800, backoff_base=0, retry_budget=4,
             max_failures=10),
        {},
        _events("TaskInterrupted", cls="crash"),
    ),
    "backoff": (
        dict(mtbf=500, mttr=300, seu_rate=800, backoff_base=40, backoff_cap=300,
             retry_budget=4, max_failures=10),
        {},
        _events("TaskRetry"),
    ),
}


def sparse_workload(spec):
    """The spec's workload with task numbers 1, 4, 7, ... instead of 0, 1, 2, ..."""
    rng = RNG(seed=spec.seed)
    nodes = generate_nodes(NodeSpec(count=spec.nodes), rng)
    configs = generate_configs(ConfigSpec(count=spec.configs), rng)
    stream = list(generate_task_stream(TaskSpec(count=spec.tasks), configs, rng))
    for arrival in stream:
        arrival.task.task_no = 3 * arrival.task.task_no + 1
    return nodes, configs, stream


def run_fault_arm(knobs, sim_knobs, generic, sparse=False):
    """One campaign on the hot loop, or on the generic loop with a memory sink."""
    digest = DigestSink()
    memory = MemorySink()
    spec = FaultCampaignSpec(nodes=30, configs=15, tasks=400, seed=11, **knobs)
    extra = dict(debug_invariants_every=10**9) if generic else {}
    if sparse:
        extra["workload"] = sparse_workload(spec)
    sinks = (memory, digest) if generic else (digest,)
    result, injector = run_campaign(spec, trace=TraceBus(*sinks), **sim_knobs, **extra)
    return result, injector.resilience(result), digest.hexdigest(), memory


@pytest.mark.parametrize("case", sorted(FAULT_HOT_CASES))
def test_fault_campaign_hot_loop_matches_generic_loop(case):
    knobs, sim_knobs, exercised = FAULT_HOT_CASES[case]
    hot, hot_res, hot_digest, _ = run_fault_arm(knobs, sim_knobs, generic=False)
    ref, ref_res, ref_digest, stream = run_fault_arm(knobs, sim_knobs, generic=True)
    # Every fault class runs on the hot loop; the reference is generic.
    assert (hot.driver, hot.driver_reason) == ("hot", None)
    assert ref.driver == "generic"
    assert exercised(stream), case
    assert full_fingerprint(hot) == full_fingerprint(ref)
    assert hot_res.as_dict() == ref_res.as_dict()
    assert hot_digest == ref_digest
    check_invariants(hot.load.rim)


@pytest.mark.parametrize("case", ["instant-resubmit", "backoff"])
def test_fault_campaign_with_sparse_task_numbers(case):
    """Retry and resubmit events name their task by number; the hot loop
    resolves numbers that do not match arrival positions too."""
    knobs, sim_knobs, _ = FAULT_HOT_CASES[case]
    hot, hot_res, hot_digest, _ = run_fault_arm(knobs, sim_knobs, False, sparse=True)
    ref, ref_res, ref_digest, _ = run_fault_arm(knobs, sim_knobs, True, sparse=True)
    assert hot.driver == "hot" and hot.tasks[-1].task_no % 3 == 1
    assert full_fingerprint(hot) == full_fingerprint(ref)
    assert hot_res.as_dict() == ref_res.as_dict()
    assert hot_digest == ref_digest


def _one_task_crash(crash_after_completion, generic):
    """One task finishing at t=110 on node 0, and a crash of node 0 at t=110.

    The crash is an untagged kernel event, so the hot loop runs it as a
    generic slow-path exit.  Inserted before the run it precedes the
    completion in the t=110 tie (the completion goes stale and the task
    restarts); inserted from a t=50 event it follows it (harmless).
    """
    configs = [Configuration(config_no=0, req_area=400, config_time=10)]
    nodes = [Node(node_no=0, total_area=1000), Node(node_no=1, total_area=1000)]
    task = Task(task_no=0, required_time=100, pref_config=configs[0])
    digest = DigestSink()
    sim = DReAMSim(
        nodes, configs, [TaskArrival(at=0, task=task)], trace=TraceBus(digest),
        debug_invariants_every=10**9 if generic else None,
    )
    inj = FailureInjector(sim, mttr=Constant(50), rng=RNG(seed=1))

    def crash():
        inj._crash(nodes[0], int(sim.env.now))

    if crash_after_completion:
        sim.env.call_at(50, lambda: sim.env.call_at(110, crash))
    else:
        sim.env.call_at(110, crash)
    result = sim.run()
    return result, inj, digest.hexdigest()


@pytest.mark.parametrize("after", [False, True], ids=["crash-first", "completion-first"])
def test_crash_tied_with_completion_hot_matches_generic(after):
    hot, hot_inj, hot_digest = _one_task_crash(after, generic=False)
    ref, ref_inj, ref_digest = _one_task_crash(after, generic=True)
    assert hot.driver == "hot" and ref.driver == "generic"
    task = hot.tasks[0]
    if after:
        assert task.completion_time == 110 and hot_inj.tasks_interrupted == 0
    else:
        # The t=110 completion went stale; the restart finishes at 220.
        assert task.completion_time == 220 and hot_inj.tasks_interrupted == 1
    assert full_fingerprint(hot) == full_fingerprint(ref)
    assert hot_inj.failure_count == ref_inj.failure_count == 1
    assert hot_digest == ref_digest
    check_invariants(hot.load.rim)


@pytest.mark.parametrize(
    "faults",
    [[], ["--seu-rate", "300", "--retry-budget", "2", "--backoff-base", "16"]],
    ids=["clean", "seu"],
)
def test_run_trace_file_bytes_identical_across_tiers(tmp_path, capsys, faults):
    """``run --trace FILE`` writes the same bytes from the hot loop (array)
    as from the generic loop (scan)."""
    from repro.cli.main import main

    files = {}
    for backend, driver in (("array", "driver: hot"), ("scan", "driver: generic")):
        path = tmp_path / f"{backend}.jsonl"
        argv = ["run", "--nodes", "20", "--tasks", "300", "--configs", "10",
                "--seed", "5", "--backend", backend, "--trace", str(path), "--profile"]
        assert main(argv + faults) == 0
        assert f"\n{driver}" in capsys.readouterr().out
        files[backend] = path.read_bytes()
    assert files["array"] and files["array"] == files["scan"]


# -- 4. property-based free-list interleavings ---------------------------------


def make_task(no, required=50, retries=0):
    # A preferred configuration so the "area" discipline has a rank key.
    cfg = Configuration(config_no=no % 5, req_area=300 + 100 * (no % 5), config_time=10)
    t = Task(task_no=no, required_time=required, pref_config=cfg)
    t.mark_created(0)
    t.sus_retry = retries
    return t


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "head_remove", "expired", "bump"]),
        st.integers(0, 7),  # operand selector (task sizing / victim index)
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, order=st.sampled_from(["fifo", "sjf", "area"]), max_retries=st.integers(1, 3))
def test_array_susqueue_free_list_interleavings(ops, order, max_retries):
    """Random fail/repair-shaped add/remove/expired scripts leave the flat
    columns, service-order list, key index and free list consistent after
    every single operation — and the queue behaves exactly like the
    reference :class:`SuspensionQueue` throughout."""
    key_fn = lambda t: t.task_no % 3  # noqa: E731 - small keyed buckets
    array = ArraySuspensionQueue(
        max_retries=max_retries, max_length=12, key_fn=key_fn, order=order
    )
    ref = SuspensionQueue(
        max_retries=max_retries, max_length=12, key_fn=key_fn, order=order
    )
    live = []  # (array_slot, ref_record) pairs for targeted removals
    next_no = 0
    now = 0
    for op, idx in ops:
        now += 1
        if op == "add":
            ta = make_task(next_no, required=10 + 7 * idx)
            tr = make_task(next_no, required=10 + 7 * idx)
            next_no += 1
            slot = array.add(ta, now)
            rec = ref.add(tr, now)
            assert (slot is None) == (rec is None)
            if slot is not None:
                assert slot >= 1  # slot 0 reserved: handles stay truthy
                live.append((slot, rec))
        elif op == "remove" and live:
            slot, rec = live.pop(idx % len(live))
            ta = array.remove(slot)
            tr = ref.remove(rec)
            assert ta.task_no == tr.task_no and ta.sus_retry == tr.sus_retry
        elif op == "head_remove" and array:
            slot, rec = array.head, ref.head
            assert array.task_of(slot).task_no == rec.task.task_no
            live = [(s, r) for s, r in live if s != slot]
            assert array.remove(slot).task_no == ref.remove(rec).task_no
        elif op == "bump" and live:
            # Age a queued task toward its retry budget (fail/repair churn).
            slot, rec = live[idx % len(live)]
            array.task_of(slot).sus_retry += 1
            rec.task.sus_retry += 1
        elif op == "expired":
            gone_a = array.expired()
            gone_r = ref.expired()
            assert [t.task_no for t in gone_a] == [t.task_no for t in gone_r]
            dropped = {t.task_no for t in gone_a}
            live = [
                (s, r) for s, r in live if r.task.task_no not in dropped
            ]
        array.validate_index()
        # Observable state tracks the reference exactly.
        assert len(array) == len(ref)
        assert [array.task_of(s).task_no for s in array] == [
            r.task.task_no for r in ref
        ]
        assert array.counters.snapshot() == ref.counters.snapshot()
        assert array.total_suspended == ref.total_suspended
    leftover_a = array.drain()
    leftover_r = ref.drain()
    assert [t.task_no for t in leftover_a] == [t.task_no for t in leftover_r]
    array.validate_index()
    assert len(array) == 0 and not array._free


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    adds=st.integers(1, 20),
    removals=st.lists(st.integers(0, 19), max_size=20, unique=True),
)
def test_array_susqueue_slot_recycling(adds, removals):
    """Freed slots are recycled LIFO and never collide with live records."""
    q = ArraySuspensionQueue()
    slots = [q.add(make_task(i), i) for i in range(adds)]
    for r in removals:
        if r < adds and q._task[slots[r]] is not None:
            q.remove(slots[r])
            q.validate_index()
    freed = list(q._free)
    refill = [q.add(make_task(100 + i), 100 + i) for i in range(len(freed))]
    # LIFO recycling: the most recently freed slot is handed out first.
    assert refill == list(reversed(freed))
    q.validate_index()
    assert not q._free


# -- 5. node bookkeeping -------------------------------------------------------


def test_interrupt_all_returns_tasks_in_entry_order_and_zeroes_busy():
    rim = build_manager("scan", [3000], [400, 600, 500])
    node = rim.nodes[0]
    tasks = []
    for i, c in enumerate(rim.configs):
        entry = rim.configure_node(node, c)
        t = started_task(i, c)
        rim.assign_task(t, node, entry)
        tasks.append(t)
    rim.complete_task(tasks[1], node)  # leave a hole: idle entry in the middle
    interrupted = node.interrupt_all()
    assert interrupted == [tasks[0], tasks[2]]  # entry order, busy only
    assert node._busy_count == 0
    assert node.busy_area == 0
    assert all(e.is_idle for e in node.entries)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_entries", [True, False], ids=["idle-entries", "blank"])
def test_fail_node_with_zero_running_tasks_leaves_busy_bookkeeping_alone(
    backend, with_entries
):
    """Regression: failing a node that runs nothing (blank, or idle entries
    only) must interrupt nothing and leave every busy aggregate — the running
    task count, per-state node counts, busy areas — untouched and summing."""
    rim = build_manager(backend, [3000, 3000, 3000], [400, 600])
    nodes, configs = rim.nodes, rim.configs
    # Node 1 runs a task; the victim (node 0) holds only idle entries.
    if with_entries:
        rim.configure_node(nodes[0], configs[0])
        rim.configure_node(nodes[0], configs[1])
    e1 = rim.configure_node(nodes[1], configs[0])
    rim.assign_task(started_task(0, configs[0]), nodes[1], e1)

    running_before = rim.running_tasks_count
    busy_nodes_before = rim.state_counts["busy"]
    busy_area_before = sum(n.busy_area for n in rim.nodes)

    interrupted = rim.fail_node(nodes[0])

    assert interrupted == []
    assert nodes[0]._busy_count == 0
    assert rim.running_tasks_count == running_before == 1
    assert rim.state_counts["busy"] == busy_nodes_before == 1
    assert sum(n.busy_area for n in rim.nodes) == busy_area_before
    # blank + idle + busy partitions the fleet, failed node included.
    assert sum(rim.state_counts.values()) == len(rim.nodes)
    check_invariants(rim)
    # Repair restores the node without disturbing the running task either.
    rim.repair_node(nodes[0])
    assert rim.running_tasks_count == 1
    assert sum(rim.state_counts.values()) == len(rim.nodes)
    check_invariants(rim)
