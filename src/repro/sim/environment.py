"""The event-driven simulation environment.

:class:`Environment` owns the event queue (a binary heap keyed on
``(time, priority, sequence)``) and the simulation clock.  It is the
from-scratch substrate replacing the explicit ``IncreaseTimeTick`` loop of the
original C++ DReAMSim: instead of visiting every tick, the clock jumps
straight to the next scheduled event.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.core import PRIORITY_NORMAL, Event, EventStatus, SimulationError


class Environment:
    """Event-driven execution environment.

    Parameters
    ----------
    initial_time:
        Simulation clock start (timeticks).
    """

    def __init__(self, initial_time: float = 0) -> None:
        self._now = initial_time
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._event_count = 0

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in timeticks."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (kernel statistics)."""
        return self._event_count

    @property
    def schedule_seq(self) -> int:
        """Total events ever scheduled (the heap tie-break counter).

        Snapshots record this so a restored run hands out exactly the
        sequence numbers the uninterrupted run would have.
        """
        return self._seq

    @property
    def pending_count(self) -> int:
        """Number of events currently waiting in the queue."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- scheduling -------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0, priority: int = PRIORITY_NORMAL) -> None:
        """Place ``event`` in the queue ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if event._status is EventStatus.FIRED:
            raise SimulationError("cannot schedule an event that already fired")
        event._status = EventStatus.SCHEDULED
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    # -- factories ---------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    # -- execution ----------------------------------------------------------------

    def step(self) -> None:
        """Fire the single next event.

        Raises
        ------
        SimulationError
            If the queue is empty, or an undefused event failed with an
            unhandled exception (crash propagation).
        """
        if not self._queue:
            raise SimulationError("event queue is empty")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        self._event_count += 1
        self.fire(event)

    def fire(self, event: Event) -> None:
        """Run a dequeued event's callbacks at the current clock.

        The second half of :meth:`step`, shared with drivers that keep
        their own event heap (the flat-table hot loop) and hand the events
        scheduled here back to the kernel's own firing semantics.
        """
        event._status = EventStatus.FIRED
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(self, until: Optional[float] = None, *, idle_advance: bool = True) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain; a number runs every event
            due at or before that time (the clock is set to exactly that
            value on return).
        idle_advance:
            With a numeric ``until``, ``False`` leaves the clock at the last
            fired event instead of idling it forward to ``until``.  Windowed
            drivers use this so a run that ends mid-window produces the same
            event stream, byte for byte, as one driven straight through.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        stop_at = float(until)
        if stop_at < self._now:
            raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= stop_at:
            self.step()
        if idle_advance:
            self._now = max(self._now, stop_at)

    # -- convenience -----------------------------------------------------------------

    def run_all(self, limit: int = 10_000_000) -> int:
        """Drain the queue with a hard safety limit; returns events fired."""
        fired = 0
        while self._queue:
            self.step()
            fired += 1
            if fired > limit:
                raise SimulationError(f"exceeded event limit {limit}")
        return fired

    def call_at(
        self,
        when: float,
        fn: Callable[[], None],
        tag: Optional[tuple] = None,
    ) -> Event:
        """Schedule a plain function call at an absolute time.

        ``tag`` is an optional serializable tuple naming the call (e.g.
        ``("complete", task_no)``); snapshots export pending events by tag
        and rebuild their callbacks from it on restore.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        ev = Event(self)
        ev._ok = True
        ev.tag = tag
        ev.callbacks.append(lambda _e: fn())
        self.schedule(ev, delay=when - self._now)
        return ev

    # -- snapshot support --------------------------------------------------------

    def export_pending(
        self, rewrite: Optional[Callable[[tuple, Event], tuple]] = None
    ) -> list[tuple[float, int, int, tuple]]:
        """Export every pending event as ``(time, priority, seq, tag)``.

        Records come out in heap order (time, priority, seq) so the export is
        canonical.  Every pending event must carry a tag; an untagged event
        means some subsystem scheduled work the snapshot layer cannot
        rebuild, so the run is not snapshottable and we refuse loudly.
        ``rewrite`` may substitute the exported tag per event — e.g. mapping
        a stale completion to a no-op marker so the restored queue keeps the
        event (and its clock advance) without needing the dead callback; it
        sees ``(tag, event)`` and returns the tag to export.  Events are
        never dropped: every queue slot travels, so the restored heap is
        structurally identical and the run's final time is preserved.
        """
        out: list[tuple[float, int, int, tuple]] = []
        for when, prio, seq, event in sorted(
            self._queue, key=lambda rec: (rec[0], rec[1], rec[2])
        ):
            tag = event.tag
            if tag is None:
                raise SimulationError(
                    "cannot snapshot: pending event without a tag "
                    f"(scheduled for t={when}); only call_at(..., tag=...) "
                    "events are serializable"
                )
            if rewrite is not None:
                tag = rewrite(tag, event)
            out.append((when, prio, seq, tag))
        return out

    def restore_pending(
        self,
        records: list[tuple[float, int, int, tuple]],
        resolver: Callable[[tuple], Callable[[], None]],
        *,
        now: float,
        seq: int,
        event_count: int,
    ) -> list[Event]:
        """Rebuild the event queue from exported records.

        ``resolver`` maps each tag back to the zero-argument callable the
        original event would have run.  Original sequence numbers are
        preserved so heap tie-breaks replay identically; the clock, sequence
        counter and fired-event count are reset to the snapshot's values.
        Returns the rebuilt events in record order so callers can re-register
        them (e.g. the simulator's completion-event registry).
        """
        if self._queue:
            raise SimulationError("restore_pending requires an empty event queue")
        self._now = now
        self._seq = seq
        self._event_count = event_count
        return [
            self.requeue(when, ev_seq, resolver(tuple(tag)), tuple(tag), prio)
            for when, prio, ev_seq, tag in records
        ]

    def requeue(
        self,
        when: float,
        seq: int,
        fn: Callable[[], None],
        tag: tuple,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Queue a tagged call under a sequence number handed out earlier.

        Unlike :meth:`call_at` this allocates no new sequence number: the
        call keeps its original place in the ``(time, priority, seq)``
        order.  Snapshot restore and the hot loop's spill back into kernel
        form (:func:`repro.framework.hotloop.spill`) rebuild their events
        this way.
        """
        ev = Event(self)
        ev._ok = True
        ev.tag = tag
        ev._status = EventStatus.SCHEDULED
        ev.callbacks.append(lambda _e: fn())
        heapq.heappush(self._queue, (when, priority, seq, ev))
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now} queued={len(self._queue)}>"
