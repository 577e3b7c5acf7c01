"""Discrete-event simulation kernel (substrate S1).

DReAMSim, as published, advances simulated time with an explicit
``IncreaseTimeTick`` loop over integer *timeticks*.  This package provides the
equivalent substrate built from scratch:
:class:`~repro.sim.environment.Environment`, an event-driven kernel that
jumps directly to the next scheduled event.  The simulator schedules plain
function calls on it with :meth:`~repro.sim.environment.Environment.call_at`;
tagged calls can be exported and rebuilt for snapshots.

Time is measured in integer or float *timeticks* (Eq. 5 of the paper: total
simulation time = total number of timeticks).  The kernel is deterministic:
events scheduled at equal times fire in (priority, insertion-order) sequence.
"""

from repro.sim.core import Event, EventStatus, SimulationError
from repro.sim.environment import Environment

__all__ = [
    "Environment",
    "Event",
    "EventStatus",
    "SimulationError",
]
