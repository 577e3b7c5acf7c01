"""The service driver: a simulator advanced in windows, queryable mid-run.

:class:`ServiceSimulator` owns the trace wiring a long-lived run needs —
a :class:`~repro.trace.bus.MemorySink` (for mid-run replay and resume
prefixes) and a :class:`~repro.trace.bus.DigestSink` (the determinism
witness) are always attached, plus an optional JSONL file sink.  The
driver advances simulated time with :meth:`advance_to`, pulling each
window's due arrivals from its :class:`~repro.service.sources.ArrivalSource`
through the simulator's ingest seam, and :meth:`drain` seals the run.

:meth:`report_view` answers "what does Table I look like *right now*":
the partial trace plus one synthetic ``RunFinished`` framing event is
folded through :class:`~repro.trace.replay.TraceReplayer` — literally the
end-of-run assembly code path, reused on the prefix — so a mid-run view
and the final report can never drift apart structurally.

:meth:`checkpoint` / :meth:`ServiceSimulator.resume` wrap the snapshot
layer; resuming re-folds the trace prefix into fresh sinks and verifies
its digest against the checkpoint before restoring, so a mismatched
prefix fails loudly instead of producing a silently different stream.

On the array backend every window runs on the flat-table hot loop, which
parks between windows (:meth:`DReAMSim.advance`); a checkpoint spills it
back into kernel form and the next window adopts it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.framework.campaign import FaultCampaignSpec, build_campaign
from repro.framework.failures import FailureInjector
from repro.framework.simulator import DReAMSim, SimulationResult
from repro.metrics.resilience import ResilienceReport
from repro.metrics.table1 import MetricsReport
from repro.service.snapshot import Snapshot, SnapshotError, restore_snapshot, snapshot_of
from repro.service.sources import ArrivalSource
from repro.trace.bus import DigestSink, JsonlSink, MemorySink, TraceBus, encode_lines
from repro.trace.events import TraceEvent
from repro.trace.replay import TraceReplayer, synthetic_run_finished


@dataclass(frozen=True)
class ReportView:
    """Table I (and the resilience report) as of one mid-run moment."""

    time: int
    events_seen: int
    report: MetricsReport
    resilience: ResilienceReport


class ServiceSimulator:
    """One campaign run as an incrementally driven, checkpointable service.

    Parameters
    ----------
    spec:
        The campaign (workload + fault knobs); the constructor-side task
        stream it implies still feeds first — set ``tasks=0`` for a run
        fed purely from ``source``.
    backend:
        Resource-manager backend (``array``, the default, or ``scan``).
    source:
        Optional :class:`ArrivalSource`; its due arrivals are ingested at
        every :meth:`advance_to` window.
    jsonl_path:
        Optional trace persistence (``append=True`` continues a file, as
        :meth:`resume` does).
    arm:
        Internal: ``False`` builds the injector un-armed for a restore.
    """

    def __init__(
        self,
        spec: FaultCampaignSpec,
        *,
        backend: str = "array",
        source: Optional[ArrivalSource] = None,
        jsonl_path: Optional[str] = None,
        append: bool = False,
        arm: bool = True,
    ) -> None:
        self.spec = spec
        self.source = source
        self.bus = TraceBus()
        self.memory = MemorySink()
        self.digest = DigestSink()
        self.bus.attach(self.memory)
        self.bus.attach(self.digest)
        self.jsonl: Optional[JsonlSink] = None
        if jsonl_path is not None:
            self.jsonl = JsonlSink(jsonl_path, append=append)
            self.bus.attach(self.jsonl)
        self.sim: DReAMSim
        self.injector: Optional[FailureInjector]
        self.sim, self.injector = build_campaign(
            spec, backend=backend, trace=self.bus, arm=arm
        )
        self.result: Optional[SimulationResult] = None

    @classmethod
    def resume(
        cls,
        snapshot: Snapshot,
        spec: FaultCampaignSpec,
        *,
        backend: str = "array",
        source: Optional[ArrivalSource] = None,
        prefix_events: Iterable[TraceEvent] = (),
        prefix_lines: Optional[bytes] = None,
        jsonl_path: Optional[str] = None,
    ) -> "ServiceSimulator":
        """Restore a checkpoint into a fresh service.

        ``spec`` must be the original campaign spec (identical workload
        and fault parameters); ``backend`` may differ from the snapshot's.
        The trace up to the cut comes either as ``prefix_lines`` — the
        canonical lines of the previous service's JSONL file, as bytes —
        or as ``prefix_events`` (e.g. the previous service's ``memory``),
        which are encoded to those lines once.  The lines are folded as
        they are into the new memory and digest sinks, so the resumed
        digest and :meth:`report_view` continue seamlessly, and their
        digest is verified against the checkpoint's.  A JSONL file already
        holding the prefix is continued with ``append=True`` (the prefix is
        not re-written to it).
        """
        if prefix_lines is None:
            prefix_lines = encode_lines(prefix_events)
        svc = cls(
            spec,
            backend=backend,
            source=source,
            jsonl_path=jsonl_path,
            append=True,
            arm=False,
        )
        folded = prefix_lines.count(b"\n")
        if folded:
            svc.memory.write_lines(prefix_lines, folded)
            svc.digest.write_lines(prefix_lines, folded)
        if folded and snapshot.trace_digest is not None:
            got = svc.digest.hexdigest()
            if got != snapshot.trace_digest:
                raise SnapshotError(
                    f"trace prefix digest {got} does not match the "
                    f"checkpoint's {snapshot.trace_digest}; the prefix is "
                    "not the stream this snapshot was cut from"
                )
        if snapshot.trace_seq is not None:
            svc.bus.resume_at(snapshot.trace_seq)
        restore_snapshot(snapshot, svc.sim, svc.injector)
        return svc

    # -- driving -----------------------------------------------------------------

    def _ensure_started(self) -> None:
        if not self.sim.started:
            if self.source is not None:
                self.sim.open_ingest()
            self.sim.start()

    def _ingest_sealed(self) -> bool:
        """True once the ingest seam has been closed for good.

        Derived from the simulator's own state (not stored here) so a
        resumed service inherits the seal from its snapshot: a started run
        whose ingest seam is shut never reopens it.
        """
        return self.sim.started and not self.sim.ingest_open

    def advance_to(self, t: int) -> int:
        """Ingest arrivals due by ``t`` and fire everything due by then.

        Returns the number of arrivals ingested this window.  The clock ends
        at the last fired event (not idled forward to ``t``), so a run that
        finishes mid-window seals with exactly the byte stream a straight
        batch run produces.  Call again with a later ``t`` (windows must be
        non-decreasing).
        """
        if self.result is not None:
            raise RuntimeError("service run already finished")
        self._ensure_started()
        taken = 0
        if self.source is not None and not self._ingest_sealed():
            taken = self.sim.ingest(self.source.take_until(t))
            if self.source.exhausted:
                self.sim.close_ingest()
        self.sim.advance(t)
        return taken

    def drain(self) -> SimulationResult:
        """Ingest everything left, run to completion, seal the run."""
        if self.result is not None:
            raise RuntimeError("service run already finished")
        self._ensure_started()
        if self.source is not None and not self._ingest_sealed():
            self.sim.ingest(self.source.take_all())
            self.sim.close_ingest()
        self.result = self.sim.run_to_end()
        return self.result

    # -- queries -----------------------------------------------------------------

    def report_view(self) -> ReportView:
        """Table I as of now, replayed from the partial trace.

        The buffered events plus one synthetic ``RunFinished`` (stamped
        like the bus would stamp it, but never emitted) go through the
        exact :class:`TraceReplayer` path the end-of-run report uses.
        """
        events = list(self.memory)
        now = int(self.sim.env.now)
        if self.result is None:
            events.append(
                synthetic_run_finished(
                    seq=self.bus.events_emitted,
                    time=now,
                    ss=self.sim.counters.scheduling_steps,
                    hk=self.sim.counters.housekeeping_steps,
                )
            )
        replayer = TraceReplayer(events).replay()
        return ReportView(
            time=now,
            events_seen=len(self.memory),
            report=replayer.report(),
            resilience=replayer.resilience_report(),
        )

    def checkpoint(self) -> Snapshot:
        """Cut a snapshot at the current (between-events) moment."""
        return snapshot_of(self.sim, self.injector, digest=self.digest.hexdigest())

    def hexdigest(self) -> str:
        """The trace digest so far (the determinism witness)."""
        return self.digest.hexdigest()


__all__ = ["ReportView", "ServiceSimulator"]
