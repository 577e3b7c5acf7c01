"""Search-step accounting for Table I.

The paper defines a *search step* as "a basic unit of exploration to search a
memory location" and reports two derived metrics:

* **Average scheduling steps per task** — "total number of search links
  explored by the scheduling system to assign a task to a proper node",
  i.e. the per-task ``SL`` counter of Alg. 1, averaged.
* **Total scheduler workload** — scheduling steps *plus* "different
  housekeeping activities, for instance, updating the idle, busy, and
  suspension queue lists" (the ``TotalSimWorkLoad`` counter, which Alg. 1
  increments alongside ``SL``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SearchCounters:
    """Mutable search-step counters shared by the manager and scheduler."""

    scheduling_steps: int = 0  # Σ over tasks of the per-task search length SL
    housekeeping_steps: int = 0  # list maintenance / monitoring exploration

    @property
    def total_workload(self) -> int:
        """Table I's 'Total scheduler workload' (Fig. 9b's series)."""
        return self.scheduling_steps + self.housekeeping_steps

    def charge_scheduling(self, steps: int = 1) -> None:
        """Record steps spent assigning a task (also counted in workload)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.scheduling_steps += steps

    def charge_housekeeping(self, steps: int = 1) -> None:
        """Record steps spent maintaining lists and statuses."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.housekeeping_steps += steps

    def charge_housekeeping_many(self, steps: int) -> None:
        """Batched housekeeping charge: one bulk charge standing in for the
        per-link :meth:`charge_housekeeping` calls of a simulated walk."""
        self.charge_housekeeping(steps)

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view of both counters and the derived workload."""
        return {
            "scheduling_steps": self.scheduling_steps,
            "housekeeping_steps": self.housekeeping_steps,
            "total_workload": self.total_workload,
        }

    def reset(self) -> None:
        """Zero both counters (start of a fresh simulation run)."""
        self.scheduling_steps = 0
        self.housekeeping_steps = 0


__all__ = ["SearchCounters"]
