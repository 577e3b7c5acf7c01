"""Arrival sources: where a service-mode simulator's tasks come from.

Batch runs hand the simulator its whole workload up front; a service pulls
arrivals from a source as simulated time advances.  The seam is tiny —
:meth:`ArrivalSource.take_until` releases every arrival due by a time, and
:attr:`ArrivalSource.exhausted` says whether more may ever come — so any
producer (trace replay, file tail, message queue) plugs in.

Arrivals must be released in non-decreasing ``at`` order across calls; the
simulator's ingest seam relies on it (and its event heap would reorder a
violation anyway, changing nothing but wasting the contract).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Protocol, Sequence, Union

from repro.model.config import Configuration
from repro.model.task import Task
from repro.workload.generator import TaskArrival
from repro.workload.swf import read_swf, tasks_from_swf


class ArrivalSource(Protocol):
    """Anything that feeds a :class:`~repro.service.ServiceSimulator`."""

    def take_until(self, t: int) -> list[TaskArrival]:
        """Release every arrival with ``at <= t`` not yet released."""
        ...

    def take_all(self) -> list[TaskArrival]:
        """Release everything available (the drain path)."""
        ...

    @property
    def exhausted(self) -> bool:
        """True once no further arrivals can ever appear."""
        ...


class ReplaySource:
    """Replay a fixed arrival list at its recorded submit times.

    The service driver pulls each window's due slice with
    :meth:`take_until`; :meth:`from_swf` builds the list from a Standard
    Workload Format trace, so an archived real workload streams into the
    simulator at its real (scaled) submit times.
    """

    def __init__(self, arrivals: Sequence[TaskArrival]) -> None:
        self._arrivals = sorted(arrivals, key=lambda a: (a.at, a.task.task_no))
        self._next = 0

    @classmethod
    def from_swf(
        cls,
        source: Union[str, Path],
        configs: Sequence[Configuration],
        time_scale: float = 1.0,
    ) -> "ReplaySource":
        """An SWF trace replayed against a generated configuration list."""
        return cls(tasks_from_swf(read_swf(source), configs, time_scale=time_scale))

    def take_until(self, t: int) -> list[TaskArrival]:
        """The not-yet-released arrivals with ``at <= t``, in order."""
        start = self._next
        end = start
        arrivals = self._arrivals
        while end < len(arrivals) and arrivals[end].at <= t:
            end += 1
        self._next = end
        return arrivals[start:end]

    def take_all(self) -> list[TaskArrival]:
        """Release everything left (drain)."""
        out = self._arrivals[self._next :]
        self._next = len(self._arrivals)
        return out

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)

    def __len__(self) -> int:
        return len(self._arrivals) - self._next


class JsonlTailSource:
    """Tail a JSONL file an external producer appends task records to.

    One record per line: ``{"no": 7, "at": 120, "req": 900, "pref": 3}``
    with optional ``"data"``, and — for a preference outside the system's
    configuration list — ``"pref_area"`` / ``"pref_ctime"`` to fabricate
    it.  ``no``, ``req``, ``pref`` and the two ``pref_*`` fields must be
    integers (``bool`` is not one), ``at`` a non-negative integer tick, and
    ``no`` unique on this source; a record breaking any of these is
    rejected like a malformed line.
    :meth:`poll` reads newly appended complete lines (a trailing
    partial line is left for the next poll); the file is *open-ended*: the
    source only reports :attr:`exhausted` after :meth:`close` marks the
    producer done, mirroring ``DReAMSim.close_ingest``.
    """

    def __init__(self, path: Union[str, Path], configs: Sequence[Configuration]) -> None:
        self.path = Path(path)
        self._configs = {c.config_no: c for c in configs}
        self._fabricated: dict[int, Configuration] = {}
        self._offset = 0  # byte offset of the first line not yet parsed
        self._lines = 0  # complete lines consumed so far (blank ones too)
        self._buffer: list[TaskArrival] = []
        self._seen: set[int] = set()  # task numbers of accepted records
        self._closed = False

    def close(self) -> None:
        """The producer is done appending; drain what is buffered and stop."""
        self._closed = True

    def poll(self) -> int:
        """Ingest newly appended complete lines; returns records read.

        The offset moves past a line only once the line has parsed, so a
        malformed line raises :class:`ValueError` naming its 1-based line
        number, and every later poll raises on the same line again: the
        lines after it are never skipped.
        """
        if not self.path.exists():
            return 0
        size = os.path.getsize(self.path)
        if size <= self._offset:
            return 0
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        # Everything after the last newline is a partial line: it waits.
        complete = chunk[: chunk.rfind(b"\n") + 1]
        count = 0
        for raw in complete.split(b"\n")[:-1]:
            if raw.strip():
                try:
                    arrival = self._parse(json.loads(raw))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"{self.path}: line {self._lines + 1}: "
                        f"malformed task record: {exc!r}"
                    ) from exc
                self._buffer.append(arrival)
                count += 1
            self._offset += len(raw) + 1
            self._lines += 1
        return count

    def _parse(self, rec: dict) -> TaskArrival:
        no, at, req, pref_no = rec["no"], rec["at"], rec["req"], rec["pref"]
        for name in ("no", "req", "at", "pref", "pref_area", "pref_ctime"):
            value = rec.get(name, 0)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if at < 0:
            raise ValueError(f"at must be a non-negative tick, got {at}")
        if no in self._seen:
            raise ValueError(f"duplicate task number {no}")
        pref = self._configs.get(pref_no)
        if pref is None:
            pref = self._fabricated.get(pref_no)
        if pref is None:
            if "pref_area" not in rec:
                raise ValueError(
                    f"task {rec.get('no')}: pref {pref_no} is not a system "
                    "configuration and no pref_area/pref_ctime were given"
                )
            pref = Configuration(
                config_no=pref_no,
                req_area=rec["pref_area"],
                config_time=rec.get("pref_ctime", 0),
            )
            self._fabricated[pref_no] = pref
        task = Task(
            task_no=no,
            required_time=req,
            pref_config=pref,
            data=rec.get("data"),
        )
        self._seen.add(no)
        return TaskArrival(at=at, task=task)

    def take_until(self, t: int) -> list[TaskArrival]:
        """Poll the file, then release the buffered arrivals with ``at <= t``."""
        self.poll()
        due = [a for a in self._buffer if a.at <= t]
        self._buffer = [a for a in self._buffer if a.at > t]
        due.sort(key=lambda a: (a.at, a.task.task_no))
        return due

    def take_all(self) -> list[TaskArrival]:
        """Release everything read so far (drain)."""
        self.poll()
        out = sorted(self._buffer, key=lambda a: (a.at, a.task.task_no))
        self._buffer = []
        return out

    @property
    def exhausted(self) -> bool:
        return self._closed and not self._buffer


__all__ = ["ArrivalSource", "JsonlTailSource", "ReplaySource"]
