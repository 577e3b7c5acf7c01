"""Resumable, content-addressed result cache for the sweep engine.

A sweep is a pure function of its specs: every :class:`~repro.parallel.spec.RunSpec`
derives its whole workload from scalars, so the payload a worker returns is
determined by the spec alone (plus the code version).  That makes sweep
results cacheable by *content*: the cache key is a BLAKE2b digest over the
spec's canonical JSON plus a code-version salt — **never** file mtimes or
wall-clock state (dreamlint DL001's determinism contract) — and the stored
payload is validated against its own BLAKE2b digest on the way back in.

Guarantees:

* **Resumable** — re-running a crashed or edited sweep executes only the
  specs whose keys have no valid entry; everything else is served from
  disk, and the merged payloads are byte-identical to an uninterrupted
  serial run because the executor re-keys cached payloads into submission
  order exactly as it does fresh ones.
* **Never stale, never fatal** — a truncated file, a flipped byte, a salt
  (code-version) skew, or a concurrent writer's half-visible entry all
  fail validation and count as a miss: the spec silently re-executes and
  the repaired entry is rewritten.  Corruption can cost time, not
  correctness.
* **Concurrent-sweep safe** — entries are written to a temp file in the
  cache directory and published with :func:`os.replace`, so readers see
  either the complete entry or none; two sweeps sharing a directory just
  race to write identical bytes.

Entry format (one file per key, sharded by key prefix): a single JSON
header line — format version, salt, spec key, payload byte length and
payload BLAKE2b — followed by the pickled payload.  Payloads are stored
with ``index=0``; the executor re-keys on load, so one entry serves the
same spec at any position in any sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.parallel.spec import RunPayload, RunSpec

#: Code-version salt folded into every cache key.  Bump whenever the
#: payload contents or the simulation/trace semantics change so that
#: entries written by older code read as misses, never as stale hits.
CACHE_SALT = "dreamsim-sweep-cache-v1"

_FORMAT = 1


def spec_key(spec: RunSpec, salt: str = CACHE_SALT) -> str:
    """Canonical BLAKE2b digest of a spec (plus code-version salt).

    Every :class:`RunSpec` field participates — the collection switches
    change what the payload *contains*, so a payload cached without a
    digest must not serve a digest-collecting sweep — and the campaign
    dataclass is flattened to sorted canonical JSON, the same convention
    the trace digest uses.
    """
    doc = {
        "salt": salt,
        "campaign": asdict(spec.campaign),
        "backend": spec.backend,
        "collect_digest": spec.collect_digest,
        "collect_events": spec.collect_events,
        "collect_monitor": spec.collect_monitor,
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one executor run (the CLI cache-stats line)."""

    hits: int = 0
    misses: int = 0
    invalid: int = 0  # entries present but failing validation (subset of misses)
    stored: int = 0

    def line(self) -> str:
        """One-line human-readable summary."""
        extra = f", {self.invalid} invalid" if self.invalid else ""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es){extra}, "
            f"{self.stored} stored"
        )


class ResultCache:
    """On-disk spec→payload store; see the module docstring.

    Parameters
    ----------
    root:
        Cache directory (created on first use).  Safe to share between
        concurrent sweeps and across backends/jobs counts — the key, not
        the sweep, addresses the entry.
    salt:
        Code-version salt; override only in tests probing version skew.
    """

    def __init__(self, root: Union[str, Path], salt: str = CACHE_SALT) -> None:
        self.root = Path(root)
        self.salt = salt
        self.stats = CacheStats()

    def key(self, spec: RunSpec) -> str:
        """Cache key for ``spec`` under this cache's salt."""
        return spec_key(spec, self.salt)

    def path_for(self, key: str) -> Path:
        """Entry path for a key (two-character shard keeps directories flat)."""
        return self.root / key[:2] / f"{key}.payload"

    def reset_stats(self) -> CacheStats:
        """Start a fresh accounting window; returns the new stats object."""
        self.stats = CacheStats()
        return self.stats

    # -- load ----------------------------------------------------------------------

    def load(self, spec: RunSpec) -> Optional[RunPayload]:
        """Validated payload for ``spec``, or None (miss — caller re-executes).

        Any defect — missing file, short read, header mismatch, payload
        digest mismatch, unpicklable body — is a silent miss; a defective
        entry is additionally unlinked (best effort) so the re-executed
        result replaces it.
        """
        path = self.path_for(self.key(spec))
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
                header = json.loads(header_line)
                if (
                    header.get("format") != _FORMAT
                    or header.get("salt") != self.salt
                ):
                    raise ValueError("header mismatch")
                body = fh.read()
                if len(body) != header.get("length"):
                    raise ValueError("truncated payload")
                digest = hashlib.blake2b(body, digest_size=16).hexdigest()
                if digest != header.get("payload_blake2b"):
                    raise ValueError("payload digest mismatch")
                payload = pickle.loads(body)
                if not isinstance(payload, RunPayload):
                    raise ValueError("unexpected payload type")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Present but invalid: count it, drop it, re-execute.
            self.stats.misses += 1
            self.stats.invalid += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def load_at(self, index: int, spec: RunSpec) -> Optional[RunPayload]:
        """:meth:`load`, re-keyed to position ``index`` of the current sweep."""
        payload = self.load(spec)
        if payload is None:
            return None
        return replace(payload, index=index)

    # -- store ---------------------------------------------------------------------

    def store(self, payload: RunPayload) -> None:
        """Atomically persist one payload under its spec's key.

        The entry is position-independent (stored with ``index=0``) and
        published via ``os.replace`` — concurrent readers never observe a
        partial entry, and the last of two racing writers wins with
        identical bytes.
        """
        key = self.key(payload.spec)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(replace(payload, index=0), protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "format": _FORMAT,
                "salt": self.salt,
                "key": key,
                "length": len(body),
                "payload_blake2b": hashlib.blake2b(body, digest_size=16).hexdigest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".payload")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header.encode("utf-8"))
                fh.write(b"\n")
                fh.write(body)
            os.replace(tmp, path)
            self.stats.stored += 1
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


__all__ = ["CACHE_SALT", "CacheStats", "ResultCache", "spec_key"]
