"""The trace bus and its sinks.

:class:`TraceBus` is the single emission point the simulator, scheduler,
resource manager, suspension queue, monitor and failure injector all share.
It is *zero-overhead when absent*: instrumented code holds ``trace=None`` by
default and guards every emission with one attribute check, so a run without
a bus pays nothing but that check — no event objects, no field dicts, no
clock reads (the <2 % gate in ``BENCH_perf.json``).

When a bus is attached it stamps each event with

* a monotone sequence number (total emission order — the digest is
  order-sensitive),
* the simulation time, read from the attached ``clock`` callable,
* the cumulative search-step counters (``ss``/``hk``) when a
  :class:`~repro.resources.counters.SearchCounters` is attached,

then fans the event out to its sinks:

* :class:`MemorySink` — keeps events in a list (tests, the replayer);
* :class:`JsonlSink` — streams canonical JSON lines to a file;
* :class:`DigestSink` — folds canonical lines into a BLAKE2b hash without
  storing anything, giving the stable per-run *trace digest*.

Because all three consume the same canonical line, the digest of a live run,
of its JSONL file, and of the events re-read from that file are identical.

Besides ``write(event)`` every sink takes ``write_lines(data, count)``:
``count`` canonical lines, already stamped and encoded, newline-terminated.
That is how the flat-table hot loop and a resumed service's trace prefix
reach the sinks, each line encoded once whatever sinks listen
(:meth:`TraceBus.write_lines`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Union,
)

from repro.trace.events import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.counters import SearchCounters


class TraceSink(Protocol):
    """Anything the bus can fan events out to."""

    def write(self, event: TraceEvent) -> None:
        """Consume one stamped event."""


def parse_lines(data: bytes) -> list[TraceEvent]:
    """Parse newline-terminated canonical lines back into events."""
    if not data:
        return []
    docs = json.loads(b"[" + data.rstrip(b"\n").replace(b"\n", b",") + b"]")
    return [
        TraceEvent(seq=doc.pop("seq"), time=doc.pop("t"), type=doc.pop("ev"), fields=doc)
        for doc in docs
    ]


def encode_lines(events: Iterable[TraceEvent]) -> bytes:
    """The canonical lines of ``events``, newline-terminated (inverse of :func:`parse_lines`)."""
    return "".join([e.canonical() + "\n" for e in events]).encode("utf-8")


class MemorySink:
    """Collects events in order; iterable and indexable.

    Lines handed to :meth:`write_lines` stay raw bytes until the events are
    first read; each chunk is then parsed once and its bytes dropped.
    ``len()`` never parses.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        # Unread items in arrival order: line chunks (bytes) and events
        # written after a chunk (kept behind it so order is preserved).
        self._pending: list[Union[bytes, TraceEvent]] = []
        self._count = 0

    def write(self, event: TraceEvent) -> None:
        """Append the event to the in-memory list."""
        if self._pending:
            self._pending.append(event)
        else:
            self._events.append(event)
        self._count += 1

    def write_lines(self, data: bytes, count: int) -> None:
        """Keep ``count`` pre-encoded canonical lines for parsing on first read."""
        self._pending.append(data)
        self._count += count

    @property
    def events(self) -> list[TraceEvent]:
        """Every event written so far, in order."""
        if self._pending:
            out = self._events
            for item in self._pending:
                if isinstance(item, bytes):
                    out.extend(parse_lines(item))
                else:
                    out.append(item)
            self._pending = []
        return self._events

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return self._count


class DigestSink:
    """Streaming order-sensitive BLAKE2b over canonical event lines.

    Lines are accumulated in a byte buffer and folded into the hash in
    ~64 KiB batches: one big ``update`` costs a fraction of per-line
    update pairs, and the digest is over the byte *stream*, so batch
    boundaries cannot change it.  Besides :meth:`write` (one stamped
    event) the sink accepts :meth:`write_lines` — pre-encoded canonical
    lines in bulk — which is what the array backend's hot loop feeds it;
    a bus whose sinks all support ``write_lines`` is what
    :func:`repro.framework.hotloop.hot_ineligibility` calls digest-capable.
    """

    _FLUSH_BYTES = 65536

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._buf = bytearray()
        self.count = 0

    def write(self, event: TraceEvent) -> None:
        """Fold the event's canonical line into the digest."""
        buf = self._buf
        buf += event.canonical().encode("utf-8")
        buf += b"\n"
        self.count += 1
        if len(buf) >= self._FLUSH_BYTES:
            self._hash.update(buf)
            del buf[:]

    def write_lines(self, data: bytes, count: int) -> None:
        """Fold ``count`` pre-encoded canonical lines (newline-terminated)."""
        buf = self._buf
        buf += data
        self.count += count
        if len(buf) >= self._FLUSH_BYTES:
            self._hash.update(buf)
            del buf[:]

    def hexdigest(self) -> str:
        """Digest over everything written so far (non-destructive)."""
        buf = self._buf
        if buf:
            self._hash.update(buf)
            del buf[:]
        return self._hash.copy().hexdigest()


class JsonlSink:
    """Writes one canonical JSON line per event to ``path`` (or a text handle).

    ``append=True`` opens an existing file for appending — service-mode
    resume continues the JSONL trace where the interrupted run left off
    instead of truncating the prefix it is provably equivalent to.  A file
    the sink opens itself is written in binary, so :meth:`write_lines`
    passes its bytes straight through.
    """

    def __init__(self, path: Union[str, Path, IO[str]], append: bool = False) -> None:
        self._fh: Any
        if hasattr(path, "write"):
            self._fh = path
            self._owns = False
        else:
            self._fh = open(path, "ab" if append else "wb")
            self._owns = True

    def write(self, event: TraceEvent) -> None:
        """Write the event's canonical line to the file."""
        line = event.canonical() + "\n"
        self._fh.write(line.encode("utf-8") if self._owns else line)

    def write_lines(self, data: bytes, count: int) -> None:
        """Write ``count`` pre-encoded canonical lines verbatim."""
        self._fh.write(data if self._owns else data.decode("utf-8"))

    def close(self) -> None:
        """Close the underlying file if this sink opened it."""
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class TraceBus:
    """Shared emission point; see the module docstring.

    Parameters
    ----------
    *sinks:
        Any objects with a ``write(event)`` method.
    clock:
        Zero-argument callable returning the current simulation time; the
        simulator sets this to its environment clock.  Defaults to 0 (useful
        for tracing the resource manager standalone in tests).
    counters:
        When attached, every event carries cumulative ``ss``/``hk`` stamps.
    """

    __slots__ = ("clock", "counters", "_sinks", "_seq")

    def __init__(
        self,
        *sinks: TraceSink,
        clock: Optional[Callable[[], int]] = None,
        counters: Optional["SearchCounters"] = None,
    ) -> None:
        self._sinks: list[TraceSink] = list(sinks)
        self.clock = clock
        self.counters = counters
        self._seq = 0

    def attach(self, sink: TraceSink) -> None:
        """Add a sink; it sees only events emitted after attachment."""
        self._sinks.append(sink)

    @property
    def events_emitted(self) -> int:
        return self._seq

    def resume_at(self, seq: int) -> None:
        """Continue a resumed run's emission numbering at ``seq``.

        Snapshot restore attaches fresh sinks, re-folds the trace prefix into
        them, then calls this so the first post-restore event carries exactly
        the sequence number the uninterrupted run would have stamped.
        """
        if seq < 0:
            raise ValueError(f"sequence number must be >= 0, got {seq}")
        self._seq = seq

    def write_lines(self, data: bytes, count: int) -> None:
        """Fan out ``count`` canonical lines already stamped by the caller.

        The caller (the hot loop) numbers the lines itself and then calls
        :meth:`resume_at`.  A sink without ``write_lines`` gets the lines
        parsed back into events, once for all such sinks.
        """
        events: Optional[list[TraceEvent]] = None
        for sink in self._sinks:
            write_lines = getattr(sink, "write_lines", None)
            if write_lines is not None:
                write_lines(data, count)
                continue
            if events is None:
                events = parse_lines(data)
            for event in events:
                sink.write(event)

    def emit(self, ev_type: str, **fields: Any) -> None:
        """Stamp and fan out one event (callers guard the ``None`` check)."""
        clock = self.clock
        t = int(clock()) if clock is not None else 0
        c = self.counters
        if c is not None:
            fields["ss"] = c.scheduling_steps
            fields["hk"] = c.housekeeping_steps
        event = TraceEvent(seq=self._seq, time=t, type=ev_type, fields=fields)
        self._seq += 1
        for sink in self._sinks:
            sink.write(event)


def read_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Load a JSONL trace file back into events."""
    out: list[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(TraceEvent.from_json_line(line))
    return out


def write_jsonl(path: Union[str, Path], events: Iterable[TraceEvent]) -> None:
    """Write events to a JSONL trace file (inverse of :func:`read_jsonl`)."""
    with JsonlSink(path) as sink:
        for event in events:
            sink.write(event)


def head_lines(data: bytes, count: int) -> bytes:
    """The first ``count`` newline-terminated lines of ``data`` (fewer if it has fewer)."""
    end = 0
    for _ in range(count):
        nl = data.find(b"\n", end)
        if nl < 0:
            break
        end = nl + 1
    return data[:end]


def digest_of(events: Iterable[TraceEvent]) -> str:
    """Order-sensitive digest of an event sequence (same hash as DigestSink)."""
    sink = DigestSink()
    for event in events:
        sink.write(event)
    return sink.hexdigest()


__all__ = [
    "TraceBus",
    "TraceSink",
    "MemorySink",
    "DigestSink",
    "JsonlSink",
    "read_jsonl",
    "write_jsonl",
    "digest_of",
    "encode_lines",
    "head_lines",
    "parse_lines",
]
