"""In-memory span recording and the arithmetic the traced run is read with.

A span is one timed call at a layer boundary: ``name``, ``start``, ``end``
(``time.perf_counter`` seconds), the id of the span that was open when it
began (``parent``) and a dict of counts taken at the same boundary.  Spans
stay in memory until the child process writes them out as JSON at exit.

Self time is a span's duration minus the part of its interval that its
child spans cover (children are clipped to the parent and overlapping
children are counted once).
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional


class GcMeter:
    """Accumulates cyclic-GC pause time and collection count via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1

    def install(self) -> None:
        gc.callbacks.append(self._callback)


class Tracer:
    """Records nested spans; ``wrap`` puts a span around a module or class attribute."""

    def __init__(self, gc_meter: Optional[GcMeter] = None) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self._gc = gc_meter

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Time the ``with`` body; yields the span's count dict for the caller to fill."""
        rec: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        gc0 = (self._gc.pause_s, self._gc.collections) if self._gc else (0.0, 0)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if self._gc is not None:
                rec["counts"]["gc_s"] = self._gc.pause_s - gc0[0]
                rec["counts"]["gc_n"] = self._gc.collections - gc0[1]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        call: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a function or method) with a span-recording wrapper.

        ``before(args, kwargs)`` runs outside the span and its value is handed
        to ``after(counts, state, args, kwargs, result)``, which runs inside it.
        ``call(original, *args, **kwargs)`` replaces the plain call (used to
        materialise a generator inside the span).
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr)
        if hasattr(original, "span_name"):
            return  # already wrapped: a module imported the wrapper by name

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            with self.span(name) as counts:
                if call is not None:
                    result = call(original, *args, **kwargs)
                else:
                    result = original(*args, **kwargs)
                if after is not None:
                    after(counts, state, args, kwargs, result)
            return result

        wrapper.span_name = name  # type: ignore[attr-defined]
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time of every span, by id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for c in spans:
        if c["parent"] is not None:
            children.setdefault(c["parent"], []).append((c["start"], c["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (hi - lo) - covered
    return out


def named(spans: Iterable[dict[str, Any]], name: str) -> list[dict[str, Any]]:
    return [s for s in spans if s["name"] == name]


def total(spans: Iterable[dict[str, Any]], name: str) -> float:
    return sum(duration(s) for s in named(spans, name))


def total_self(spans: list[dict[str, Any]], name: str) -> float:
    own = self_times(spans)
    return sum(own[s["id"]] for s in named(spans, name))


def count_sum(spans: Iterable[dict[str, Any]], names: Iterable[str], key: str) -> float:
    wanted = set(names)
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] in wanted)


def summary(spans: list[dict[str, Any]]) -> list[tuple[str, int, float, float]]:
    """Per span name: (name, calls, total seconds, self seconds), by self time."""
    own = self_times(spans)
    rows: dict[str, list[float]] = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration(s)
        row[2] += own[s["id"]]
    return sorted(
        ((n, int(r[0]), r[1], r[2]) for n, r in rows.items()),
        key=lambda r: -r[3],
    )


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles``; one value is its own."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
