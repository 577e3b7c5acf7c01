"""The deterministic multiprocess sweep executor.

:class:`SweepExecutor` fans :class:`~repro.parallel.spec.RunSpec` sequences
out over a ``ProcessPoolExecutor`` and returns their
:class:`~repro.parallel.spec.RunPayload` results **in submission order** —
payloads are keyed by spec index and re-sorted at the end, so the merged
output of a ``jobs=N`` sweep is bit-identical to the ``jobs=1`` sweep no
matter how the pool interleaved completions.

Execution model
---------------
* **Result cache** — with a :class:`~repro.parallel.cache.ResultCache`
  attached, every spec is first looked up by its content key; only misses
  execute, and every fresh payload is persisted as it completes (per spec
  serially, per chunk under a pool), so a killed sweep resumes from its
  last completed chunk.  Cached payloads are re-keyed to their submission
  index, keeping the merge bit-identical to an uncached run.
* **Adaptive chunking** — specs are grouped into pool tasks by *estimated
  cost* (a deterministic function of task count, backend, and fault knobs —
  never wall-clock measurements, per dreamlint DL001), so a sweep of many
  small arms amortises submit/pickle overhead while big arms stay alone in
  their chunk.  The chunk cost target is re-derived from the **remaining**
  estimated work at each build, so chunks shrink toward the tail of the
  sweep and stragglers cannot pin the finish.
* **Work stealing (LPT)** — the remaining specs form one queue sorted by
  descending estimated cost; whichever worker finishes next takes the next
  chunk from the front.  Taking the largest remaining work first is exactly
  steal-from-the-longest-queue with the queue kept centrally, and it is the
  classic longest-processing-time schedule: heavy arms start early, light
  arms backfill.
* **Worker reuse** — one pool serves the whole sweep; workers amortise
  interpreter/import start-up (and their memoised master workloads) across
  chunks.
* **Bounded in-flight work** — at most ``max_inflight`` (default
  ``jobs + 1``) *chunks* are submitted at a time: every worker busy, one
  chunk queued, and nothing else materialised — a 10 000-spec sweep never
  holds 10 000 pending futures or their pickled arguments at once.
* **Graceful degradation** — ``jobs=1`` runs every spec in-process with no
  pool at all (the CI/golden path: byte-identical semantics, zero
  multiprocessing surface), and a platform that cannot start a pool at all
  falls back to the same serial path with a notice through ``on_message``.
* **Failure propagation** — a worker exception is caught per spec (chunks
  carry per-item outcomes); the executor finishes collecting every other
  outcome, then raises :class:`SweepWorkerError` carrying each failing spec
  (with its index and cause) *and* the successfully completed payloads, so
  a 100-spec sweep with one bad spec does not silently discard 99 results.
* **Progress timeout** — ``timeout`` bounds how long the executor waits
  without *any* chunk completing; on expiry it raises
  :class:`SweepTimeoutError` naming the in-flight specs.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.spec import RunPayload, RunSpec
from repro.parallel.worker import ChunkItemFailure, execute_chunk, execute_spec

#: Relative cost of one simulated task under each backend (measured orders
#: of magnitude from BENCH_perf.json, frozen here as integers so chunking
#: stays deterministic).
_BACKEND_COST = {"array": 1, "scan": 8}

#: Aim for about this many chunks per worker over the remaining work.
_CHUNKS_PER_JOB = 4

#: Hard cap on specs per chunk, so zero-cost spec floods still pipeline.
_MAX_CHUNK_SPECS = 64


def estimate_cost(spec: RunSpec) -> int:
    """Deterministic relative cost estimate for one spec.

    Scales with the dominant knobs — task count, backend step cost, fault
    machinery, event collection — using fixed integer multipliers.  The
    estimate only has to *rank* specs and split totals sensibly; it is
    derived purely from spec fields (no wall-clock feedback) so the chunk
    layout for a given spec list is a pure function of that list.
    """
    c = spec.campaign
    cost = max(1, c.tasks) * _BACKEND_COST[spec.backend]
    if c.faults_enabled:
        cost *= 3
    if spec.collect_digest or spec.collect_events:
        cost *= 2
    return cost


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: ``0`` means one per CPU, negative is an error."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class SpecFailure:
    """One spec that raised in a worker: where, what, and why."""

    index: int
    spec: RunSpec
    cause: BaseException

    def describe(self) -> str:
        """One-line account for error messages."""
        return f"spec[{self.index}] {self.spec.label()}: {type(self.cause).__name__}: {self.cause}"


class SweepWorkerError(RuntimeError):
    """A sweep finished with one or more failed specs.

    ``failures`` lists every failing spec (submission order) with its cause;
    ``completed`` carries the payloads of every spec that *did* finish, in
    submission order, so callers can report or salvage partial sweeps.
    """

    def __init__(
        self, failures: Sequence[SpecFailure], completed: Sequence[RunPayload]
    ) -> None:
        self.failures = list(failures)
        self.completed = list(completed)
        lines = "; ".join(f.describe() for f in self.failures[:3])
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} of {len(self.failures) + len(self.completed)} "
            f"sweep spec(s) failed: {lines}{more}"
        )


class SweepTimeoutError(RuntimeError):
    """No spec completed within the executor's progress timeout."""

    def __init__(self, timeout: float, inflight: Sequence[SpecFailure]) -> None:
        self.timeout = timeout
        self.inflight = list(inflight)
        labels = ", ".join(f"spec[{f.index}] {f.spec.label()}" for f in inflight[:4])
        super().__init__(
            f"no sweep progress within {timeout}s; in flight: {labels}"
            + (f" (+{len(inflight) - 4} more)" if len(inflight) > 4 else "")
        )


def _preferred_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the loaded package), else default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class SweepExecutor:
    """Run specs across a worker pool; return payloads in submission order.

    Parameters
    ----------
    jobs:
        Worker count after :func:`resolve_jobs` semantics (``0`` = one per
        CPU, ``1`` = in-process serial execution, negative = error).
    timeout:
        Progress timeout in seconds: the longest the executor will wait
        without any chunk completing before raising
        :class:`SweepTimeoutError`.  ``None`` (default) waits forever.
    max_inflight:
        Cap on submitted-but-unfinished *chunks* (default ``jobs + 1``:
        every worker busy plus one chunk queued at the pool).
    on_message:
        Optional sink for human-facing notices (serial-fallback reasons,
        cache statistics); defaults to silent.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`.  Hits skip
        execution entirely; fresh payloads are stored as they complete, so
        an interrupted sweep resumes from its last completed chunk.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
        on_message: Optional[Callable[[str], None]] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight if max_inflight is not None else self.jobs + 1
        self.cache = cache
        self._say = on_message if on_message is not None else (lambda _msg: None)

    # -- public API ------------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> list[RunPayload]:
        """Execute every spec; return payloads ordered like ``specs``.

        With a cache attached, specs whose keys validate are served from
        disk (re-keyed to their submission index) and only the misses
        execute.  Raises :class:`SweepWorkerError` after the sweep drains
        if any spec failed, and :class:`SweepTimeoutError` if the progress
        timeout expires with work still in flight.
        """
        specs = list(specs)
        if not specs:
            return []
        cache = self.cache
        results: dict[int, RunPayload] = {}
        todo: list[tuple[int, RunSpec]] = []
        stats0 = (0, 0, 0)
        if cache is not None:
            stats0 = (cache.stats.hits, cache.stats.misses, cache.stats.stored)
            for i, spec in enumerate(specs):
                hit = cache.load_at(i, spec)
                if hit is not None:
                    results[i] = hit
                else:
                    todo.append((i, spec))
        else:
            todo = list(enumerate(specs))

        failures: dict[int, SpecFailure] = {}
        if todo:
            pool = None
            if self.jobs > 1 and len(todo) > 1:
                pool = self._make_pool()
            if pool is None:
                self._run_serial_items(todo, results, failures)
            else:
                try:
                    self._run_pool_items(pool, todo, results, failures)
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)

        if cache is not None:
            s = cache.stats
            delta = (
                s.hits - stats0[0], s.misses - stats0[1], s.stored - stats0[2],
            )
            self._say(
                f"sweep cache: {delta[0]} hit(s), {delta[1]} miss(es), "
                f"{delta[2]} stored"
            )
        completed = [results[i] for i in sorted(results)]
        if failures:
            raise SweepWorkerError([failures[i] for i in sorted(failures)], completed)
        return completed

    # -- serial path -----------------------------------------------------------

    def _run_serial_items(
        self,
        todo: Sequence[tuple[int, RunSpec]],
        results: dict[int, RunPayload],
        failures: dict[int, SpecFailure],
    ) -> None:
        """In-process execution: the reference semantics every mode must match."""
        cache = self.cache
        for i, spec in todo:
            try:
                payload = execute_spec((i, spec))
            except Exception as exc:  # noqa: BLE001 — reported, never swallowed
                failures[i] = SpecFailure(index=i, spec=spec, cause=exc)
            else:
                results[i] = payload
                if cache is not None:
                    cache.store(payload)

    # -- pool path -------------------------------------------------------------

    def _make_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """Build the worker pool, or ``None`` to degrade to serial."""
        try:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_preferred_context()
            )
        except (NotImplementedError, OSError, ValueError) as exc:
            self._say(
                f"multiprocessing unavailable on this platform ({exc}); "
                "falling back to serial execution"
            )
            return None

    def _run_pool_items(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        todo: Sequence[tuple[int, RunSpec]],
        results: dict[int, RunPayload],
        failures: dict[int, SpecFailure],
    ) -> None:
        cache = self.cache
        est = {i: estimate_cost(spec) for i, spec in todo}
        # LPT order: heaviest first, submission index breaking ties, so the
        # chunk layout is a pure function of the spec list.
        queue: deque[tuple[int, RunSpec]] = deque(
            sorted(todo, key=lambda item: (-est[item[0]], item[0]))
        )
        remaining_cost = sum(est.values())
        pending: dict[
            concurrent.futures.Future, tuple[tuple[int, RunSpec], ...]
        ] = {}

        def next_chunk() -> tuple[tuple[int, RunSpec], ...]:
            # Target re-derived from the remaining work: chunks shrink as
            # the sweep drains, fine-graining the tail.
            nonlocal remaining_cost
            target = max(1, remaining_cost // (self.jobs * _CHUNKS_PER_JOB))
            chunk: list[tuple[int, RunSpec]] = []
            cost = 0
            while queue and len(chunk) < _MAX_CHUNK_SPECS:
                item = queue.popleft()  # steal the largest remaining spec
                chunk.append(item)
                cost += est[item[0]]
                if cost >= target:
                    break
            remaining_cost -= cost
            return tuple(chunk)

        def submit_next() -> bool:
            chunk = next_chunk()
            if not chunk:
                return False
            try:
                pending[pool.submit(execute_chunk, chunk)] = chunk
            except RuntimeError as exc:
                # Pool already broken: fail this chunk and everything not
                # yet submitted — nothing else can run.
                for i, spec in chunk:
                    failures[i] = SpecFailure(index=i, spec=spec, cause=exc)
                while queue:
                    i, spec = queue.popleft()
                    failures[i] = SpecFailure(index=i, spec=spec, cause=exc)
                return False
            return True

        while len(pending) < self.max_inflight and submit_next():
            pass
        while pending:
            done, _not_done = concurrent.futures.wait(
                set(pending),
                timeout=self.timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if not done:
                inflight = sorted(
                    (
                        SpecFailure(index=i, spec=spec, cause=TimeoutError())
                        for chunk in pending.values()
                        for i, spec in chunk
                    ),
                    key=lambda f: f.index,
                )
                for f in pending:
                    f.cancel()
                assert self.timeout is not None
                raise SweepTimeoutError(self.timeout, inflight)
            for future in done:
                chunk = pending.pop(future)
                try:
                    outcomes = future.result()
                except concurrent.futures.CancelledError as exc:
                    for i, spec in chunk:
                        failures[i] = SpecFailure(index=i, spec=spec, cause=exc)
                except Exception as exc:  # noqa: BLE001 — reported, never swallowed
                    # The whole chunk is lost: worker killed mid-run
                    # (BrokenProcessPool), pool torn down, or transport
                    # failure.
                    for i, spec in chunk:
                        failures[i] = SpecFailure(index=i, spec=spec, cause=exc)
                else:
                    by_index = {i: spec for i, spec in chunk}
                    for outcome in outcomes:
                        if isinstance(outcome, ChunkItemFailure):
                            failures[outcome.index] = SpecFailure(
                                index=outcome.index,
                                spec=by_index[outcome.index],
                                cause=outcome.cause,
                            )
                        else:
                            results[outcome.index] = outcome
                            if cache is not None:
                                cache.store(outcome)
            while len(pending) < self.max_inflight and submit_next():
                pass


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    timeout: Optional[float] = None,
    on_message: Optional[Callable[[str], None]] = None,
    cache: Optional[ResultCache] = None,
) -> list[RunPayload]:
    """One-shot convenience wrapper over :class:`SweepExecutor`."""
    return SweepExecutor(
        jobs=jobs, timeout=timeout, on_message=on_message, cache=cache
    ).run(specs)


__all__ = [
    "SpecFailure",
    "SweepExecutor",
    "SweepTimeoutError",
    "SweepWorkerError",
    "estimate_cost",
    "resolve_jobs",
    "run_specs",
]
