"""Content-addressed result cache for sweep execution.

A figure is a grid of deterministic simulations, and most iterations of a
figure re-run points that have not changed.  This module keys every run by
a canonical hash of its complete :class:`ScenarioConfig` and persists the
resulting :class:`SimulationResult` to disk, so re-running a figure only
simulates new or changed points.

Key design:

* the key is ``sha256("v<FORMAT>:" + canonical_json(scenario))`` where the
  canonical encoding is sorted-key compact JSON of the full config
  (:func:`repro.scenarios.io.scenario_canonical_json`) — insensitive to
  dict key order, sensitive to every field of ``ScenarioConfig`` and the
  nested ``DsrConfig`` including the seed;
* ``CACHE_FORMAT_VERSION`` is folded into the hash *and* stored in each
  entry, so bumping it (new result fields, changed simulation semantics)
  orphans the whole store rather than serving stale results;
* entries that fail to load (truncated files, foreign versions, unknown
  fields after a refactor) are invalidated — deleted and recounted as
  misses, never returned.

The store layout is ``<root>/<key[:2]>/<key>.json`` (git-object style
fan-out) and writes go through a temp file + ``os.replace`` so a crashed
worker can never leave a half-written entry that later loads.

The store is garbage-collected rather than unbounded: :meth:`ResultCache.prune`
evicts least-recently-used entries past a byte budget and/or an age limit.
``get()`` refreshes an entry's mtime *before* reading it, and ``prune()``
re-checks each candidate's mtime immediately before unlinking, so an entry
that is being read concurrently is never LRU-evicted mid-fetch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.devtools.lockdep import OrderedLock
from repro.metrics.collector import RESULT_FIELDS, SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_canonical_json

PathLike = Union[str, Path]

#: Bump when the result record or simulation semantics change in a way that
#: makes previously cached results wrong to reuse.
CACHE_FORMAT_VERSION = 1

#: A temp file must be at least this old before :meth:`ResultCache.prune`
#: sweeps it: a live writer holds its temp file for milliseconds, so only
#: crashed-writer leftovers ever reach this age.
TMP_SWEEP_AGE_S = 300.0


def scenario_hash(config: Union[ScenarioConfig, Dict[str, Any]]) -> str:
    """Content hash identifying one simulation run (config + format version).

    Accepts either a :class:`ScenarioConfig` or its
    :func:`~repro.scenarios.io.scenario_to_dict` payload; both produce the
    same key.
    """
    canonical = scenario_canonical_json(config)
    material = f"v{CACHE_FORMAT_VERSION}:{canonical}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """A plain-JSON-types dict capturing the full result record.

    The dict and its ``"drop_reasons"`` dict are fresh on every call.
    """
    record = {name: getattr(result, name) for name in RESULT_FIELDS}
    record["drop_reasons"] = dict(result.drop_reasons)
    return record


def result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_payload`: one step for a payload whose
    key set is the record's, the dataclass constructor's ``TypeError`` for
    any other — exactly what invalidation wants
    (:meth:`SimulationResult.from_payload`).

    The result does not alias ``payload``: ``drop_reasons`` is copied.
    """
    return SimulationResult.from_payload(payload)


def make_entry(key: str, result: SimulationResult) -> Dict[str, Any]:
    """The on-disk cache document for one result."""
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "scenario_hash": key,
        "result": result_to_payload(result),
    }


def _entry_result(key: str, entry: Any) -> SimulationResult:
    """Check a cache document against the current format and rebuild the
    result it carries — validating *is* rebuilding, so a reader does both
    in this one call.

    Raises :class:`ValueError` on anything a conforming store must not
    serve: wrong format version, a key/hash mismatch (content addressing
    is the integrity model), or a result payload that no longer rebuilds.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"cache entry for {key[:12]}… is not an object")
    if entry.get("format_version") != CACHE_FORMAT_VERSION:
        raise ValueError(
            f"cache entry format version {entry.get('format_version')!r} "
            f"!= {CACHE_FORMAT_VERSION}"
        )
    if entry.get("scenario_hash") != key:
        raise ValueError(
            f"cache entry hash {str(entry.get('scenario_hash'))[:12]}… "
            f"does not match key {key[:12]}…"
        )
    try:
        return result_from_payload(entry.get("result") or {})
    except Exception as exc:
        raise ValueError(f"cache entry result does not rebuild: {exc}") from exc


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one :class:`ResultCache`.

    The counters are bumped from every thread that touches the cache
    (pool workers, HTTP handlers, the shard board), so increments go
    through the ``record_*`` methods, serialised by a dedicated leaf
    lock; plain attribute reads stay cheap for tests and reporting.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0

    def __post_init__(self) -> None:
        # Rank 50: a leaf in practice — held only for the increment.
        self._lock = OrderedLock("cache.stats", rank=50, reentrant=False)

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_store(self) -> None:
        with self._lock:
            self.stores += 1

    def record_invalidated(self) -> None:
        with self._lock:
            self.invalidated += 1

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dataclasses.asdict(self)


#: One ``os.read`` asks for this much; an entry is ~700 bytes, so a hit
#: reads it in one call and sees EOF on the next.
_READ_CHUNK = 1 << 16

#: Distinguishes concurrent writers within one process; combined with the
#: PID it makes every in-flight temp file unique across the whole host.
_tmp_seq = itertools.count()


class ResultCache:
    """On-disk content-addressed store of :class:`SimulationResult` records."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._prefix = os.path.join(self.root, "")  # ends in a separator

    def _entry_path(self, key: str) -> str:
        # A string, not a Path: the hot read and write paths only hand it
        # to os calls, and building a Path (or joining) per key costs more
        # than the concatenation.
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def _path(self, key: str) -> Path:
        return Path(self._entry_path(key))

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or ``None`` (counted as a miss).

        Unreadable or foreign-version entries are deleted and counted under
        ``stats.invalidated`` in addition to the miss.  One open, one parse,
        one validation that is also the rebuild.

        The mtime is refreshed through the open descriptor *before* the
        read, so a concurrent :meth:`prune` — which re-checks mtimes right
        before unlinking — never evicts an entry that is mid-fetch, and an
        entry unlinked after the open still reads whole.  A store that
        refuses the refresh (read-only) still serves the hit.
        """
        path = self._entry_path(key)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            self.stats.record_miss()
            return None
        except OSError:
            self._invalidate(path)
            return None
        try:
            try:
                os.utime(fd)
            except OSError:
                pass  # a read-only store: the hit stands, unrefreshed
            chunks: List[bytes] = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
            result = _entry_result(key, json.loads(b"".join(chunks)))
        except Exception:
            self._invalidate(path)
            return None
        finally:
            os.close(fd)
        self.stats.record_hit()
        return result

    def _invalidate(self, path: str) -> None:
        """Delete an entry that failed to load; counted as a miss too."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        self.stats.record_invalidated()
        self.stats.record_miss()

    def put(self, key: str, result: SimulationResult) -> Path:
        """Persist ``result`` under ``key`` (atomic: temp file + rename)."""
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = (
            f"{path.removesuffix('.json')}"
            f".tmp.{os.getpid()}.{threading.get_ident()}.{next(_tmp_seq)}"
        )
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(make_entry(key, result), sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            # A full disk must not leave the temp file for prune to find
            # minutes later.
            try:
                os.unlink(tmp)
            except OSError:
                pass  # never created, or already gone
            raise
        self.stats.record_store()
        return Path(path)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneReport:
        """Evict entries until the store fits ``max_bytes`` and nothing is
        older than ``max_age_s``.

        Age and recency are measured from each entry's mtime, which
        :meth:`get` refreshes on every hit — so the size budget evicts
        least-recently-*used* entries first, and the age limit drops entries
        nobody has read for ``max_age_s`` seconds.  ``now`` defaults to the
        current wall clock; tests pin it for determinism.  Stale temp files
        from crashed writers are removed on every call.
        """
        if now is None:
            now = time.time()
        for tmp in self.root.glob("*/*.tmp.*"):
            # Sweep only *stale* temp files: a concurrent put() is holding
            # its temp file right now, and unlinking it between write and
            # rename would crash that writer.
            try:
                if now - tmp.stat().st_mtime < TMP_SWEEP_AGE_S:
                    continue
            except OSError:
                continue  # renamed or removed by its writer already
            tmp.unlink(missing_ok=True)
        entries: List[Tuple[float, int, Path]] = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted by a concurrent writer/pruner
            entries.append((stat.st_mtime, stat.st_size, path))
        report = PruneReport(scanned=len(entries))
        kept_bytes = sum(size for _, size, _ in entries)

        def evict(mtime: float, size: int, path: Path, why: str) -> None:
            nonlocal kept_bytes
            # Re-check right before unlinking: get() refreshes an entry's
            # mtime *before* reading it, so an mtime newer than the scan
            # means a reader claimed the entry after we judged it LRU —
            # evicting now would yank a result out from under a fetch.
            if not self._unchanged_since(path, mtime):
                report.spared += 1
                return
            path.unlink(missing_ok=True)
            kept_bytes -= size
            report.removed += 1
            report.removed_bytes += size
            if why == "age":
                report.removed_by_age += 1
            else:
                report.removed_by_size += 1

        survivors: List[Tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                evict(mtime, size, path, "age")
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None and kept_bytes > max_bytes:
            survivors.sort()  # oldest mtime first = least recently used
            for mtime, size, path in survivors:
                if kept_bytes <= max_bytes:
                    break
                evict(mtime, size, path, "size")
        report.kept = report.scanned - report.removed
        report.kept_bytes = kept_bytes
        return report

    @staticmethod
    def _unchanged_since(path: Path, mtime: float) -> bool:
        """True when ``path`` still carries the mtime a prune scan saw —
        i.e. no concurrent :meth:`get` refreshed it in the meantime."""
        try:
            return path.stat().st_mtime == mtime
        except OSError:
            return False  # vanished underneath us; nothing left to evict


@dataclass
class PruneReport:
    """What one :meth:`ResultCache.prune` pass scanned, evicted and kept."""

    scanned: int = 0
    removed: int = 0
    removed_bytes: int = 0
    removed_by_age: int = 0
    removed_by_size: int = 0
    kept: int = 0
    kept_bytes: int = 0
    #: Eviction candidates spared because a concurrent ``get()`` refreshed
    #: their mtime between the scan and the unlink (or they vanished).
    spared: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        return (
            f"pruned {self.removed}/{self.scanned} entries "
            f"({self.removed_bytes} B; {self.removed_by_age} by age, "
            f"{self.removed_by_size} by size), kept {self.kept} "
            f"({self.kept_bytes} B)"
        )


_PRUNE_SIZE_UNITS: Dict[str, int] = {
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
}

_PRUNE_AGE_UNITS: Dict[str, float] = {
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 604800.0,
}

_PRUNE_PART = re.compile(r"^(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[a-z]+)$")


def parse_prune_spec(spec: str) -> Tuple[Optional[int], Optional[float]]:
    """Parse a ``--cache-prune`` spec into ``(max_bytes, max_age_s)``.

    The spec is comma-separated size and/or age bounds: ``"500MB"``,
    ``"7d"``, ``"1GiB,30d"``.  Size units: B/KB/MB/GB (decimal) and
    KiB/MiB/GiB (binary); age units: s/m/h/d/w.  At least one bound is
    required; each kind may appear at most once.
    """
    max_bytes: Optional[int] = None
    max_age_s: Optional[float] = None
    for raw in spec.split(","):
        part = raw.strip().lower()
        if not part:
            continue
        match = _PRUNE_PART.match(part)
        if match is None:
            raise ValueError(
                f"bad prune bound {raw!r}: expected <number><unit> like 500MB or 7d"
            )
        number = float(match.group("number"))
        unit = match.group("unit")
        if unit in _PRUNE_SIZE_UNITS:
            if max_bytes is not None:
                raise ValueError(f"duplicate size bound in prune spec {spec!r}")
            max_bytes = int(number * _PRUNE_SIZE_UNITS[unit])
        elif unit in _PRUNE_AGE_UNITS:
            if max_age_s is not None:
                raise ValueError(f"duplicate age bound in prune spec {spec!r}")
            max_age_s = number * _PRUNE_AGE_UNITS[unit]
        else:
            raise ValueError(
                f"bad prune unit {unit!r} in {raw!r}: size units are "
                "B/KB/MB/GB/KiB/MiB/GiB, age units are s/m/h/d/w"
            )
    if max_bytes is None and max_age_s is None:
        raise ValueError(f"empty prune spec {spec!r}: give a size and/or age bound")
    return max_bytes, max_age_s
