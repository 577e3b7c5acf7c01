"""The canonical structured event taxonomy.

Every observable state transition in a simulation run is one
:class:`TraceEvent` on the :class:`~repro.trace.bus.TraceBus`.  The taxonomy
mirrors the paper's own vocabulary (§IV–V): tasks arrive, are placed by one
of the four phases (or offloaded to a GPP in hybrid systems), suspend and
resume through the suspension queue, complete or are discarded; nodes load,
evict and lose configurations; failure studies add fail/repair/interrupt
events.  Two framing events bracket a run (``RunStarted`` / ``RunFinished``)
and the monitoring module contributes one ``MonitorSampled`` event per
recorded snapshot, which is what lets :class:`~repro.trace.replay.TraceReplayer`
rebuild the Fig. 6–10 time series from a trace alone.

Field values are restricted to JSON scalars (ints, bools, strings, ``None``)
and lists thereof — never floats — so the canonical serialisation, and hence
the run digest, is platform- and version-stable.

Every event also carries the cumulative search-step counters at emission
time (``ss`` = scheduling steps, ``hk`` = housekeeping steps, stamped by the
bus when a :class:`~repro.resources.counters.SearchCounters` is attached).
This makes the digest sensitive to *charging* regressions, not only to
decision reshuffles: any change in what a query bills shifts every later
event's stamps and the digest flips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

# -- event types (the taxonomy) -----------------------------------------------

RUN_STARTED = "RunStarted"  # run parameters: nodes, configs, partial, sample_system
# (the manager backend is deliberately absent: both backends must produce
# byte-identical traces)
RUN_FINISHED = "RunFinished"  # final_time + terminal counter totals
TASK_ARRIVED = "TaskArrived"  # job submission manager handed a task over
PLACED = "Placed"  # scheduler bound the task (kind = the Fig. 5 phase)
SUSPENDED = "Suspended"  # task entered the suspension queue
RESUMED = "Resumed"  # task left the suspension queue for a dispatch attempt
DISCARDED = "Discarded"  # task terminally rejected (reason says why)
COMPLETED = "Completed"  # task finished; carries the Eq. 8 timing components
TASK_INTERRUPTED = "TaskInterrupted"  # fail-restart: a crash detached the task
CONFIG_LOADED = "ConfigLoaded"  # bitstream sent to a node (Eq. 10 numerator)
CONFIG_EVICTED = "ConfigEvicted"  # idle entries reclaimed (partial re-config)
NODE_FAILED = "NodeFailed"  # node left service; configurations lost
NODE_REPAIRED = "NodeRepaired"  # node back in service, blank
MONITOR_SAMPLED = "MonitorSampled"  # one monitoring snapshot (Fig. series point)
CONFIG_FAULT = "ConfigFault"  # SEU corrupted one loaded configuration (scrub starts)
TASK_RETRY = "TaskRetry"  # interrupted task re-enters after a backoff delay
NODE_QUARANTINED = "NodeQuarantined"  # flaky node held out of service past repair
NODE_PROBATION = "NodeProbation"  # quarantined node released (probation/requisition)

EVENT_TYPES = frozenset(
    {
        RUN_STARTED,
        RUN_FINISHED,
        TASK_ARRIVED,
        PLACED,
        SUSPENDED,
        RESUMED,
        DISCARDED,
        COMPLETED,
        TASK_INTERRUPTED,
        CONFIG_LOADED,
        CONFIG_EVICTED,
        NODE_FAILED,
        NODE_REPAIRED,
        MONITOR_SAMPLED,
        CONFIG_FAULT,
        TASK_RETRY,
        NODE_QUARANTINED,
        NODE_PROBATION,
    }
)

# Reserved top-level keys of the JSONL representation; everything else in a
# line is an event field.
_RESERVED = ("seq", "t", "ev")


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: sequence number, sim time, type, payload."""

    seq: int
    time: int
    type: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> str:
        """The canonical JSON line: stable key order, minimal separators.

        This exact string is what the JSONL sink writes and what the digest
        hashes, so ``digest(file) == digest(live stream)`` by construction.
        """
        doc = {"seq": self.seq, "t": self.time, "ev": self.type}
        doc.update(self.fields)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "TraceEvent":
        """Parse one JSONL line back into an event."""
        doc = json.loads(line)
        return cls(
            seq=doc.pop("seq"),
            time=doc.pop("t"),
            type=doc.pop("ev"),
            fields=doc,
        )


__all__ = [
    "TraceEvent",
    "EVENT_TYPES",
    "RUN_STARTED",
    "RUN_FINISHED",
    "TASK_ARRIVED",
    "PLACED",
    "SUSPENDED",
    "RESUMED",
    "DISCARDED",
    "COMPLETED",
    "TASK_INTERRUPTED",
    "CONFIG_LOADED",
    "CONFIG_EVICTED",
    "NODE_FAILED",
    "NODE_REPAIRED",
    "MONITOR_SAMPLED",
    "CONFIG_FAULT",
    "TASK_RETRY",
    "NODE_QUARANTINED",
    "NODE_PROBATION",
]
