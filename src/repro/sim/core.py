"""Core event type for the discrete-event kernel.

An :class:`Event` is a happening at a point in simulated time: it carries a
value (or an exception) and an ordered callback list that the environment
runs when the event fires.  The simulator schedules plain function calls
through :meth:`Environment.call_at`, which wraps each one in an event.

Everything here is deterministic.  Ties in the event queue are broken by
``(time, priority, sequence_number)`` so two runs with the same seed replay
identically — a property the reproduction tests rely on.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class EventStatus(enum.Enum):
    """Lifecycle of an :class:`Event`."""

    PENDING = "pending"  # created, not yet scheduled to fire
    SCHEDULED = "scheduled"  # in the event queue with a firing time
    FIRED = "fired"  # callbacks have run (succeeded or failed)


# Priority: smaller fires earlier among events at the same time.
PRIORITY_NORMAL = 1


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` schedules it to
    fire at the current simulation time.  Arbitrary callables attached via
    :attr:`callbacks` run, in order, when it fires.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_status", "_defused", "tag")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._status = EventStatus.PENDING
        self._defused = False
        #: Optional serializable identity (a tuple) naming what this event
        #: does, set via Environment.call_at(..., tag=...).  Snapshots export
        #: pending events by tag and re-create their callbacks from it; an
        #: untagged pending event makes the run unsnapshottable.
        self.tag: Optional[tuple] = None

    # -- introspection -----------------------------------------------------

    @property
    def status(self) -> EventStatus:
        return self._status

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled or has fired."""
        return self._status is not EventStatus.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._status is EventStatus.FIRED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._status is EventStatus.PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._status is EventStatus.PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to fire successfully at the current time."""
        if self._status is not EventStatus.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to fire with an exception at the current time."""
        if self._status is not EventStatus.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} status={self._status.value}>"
