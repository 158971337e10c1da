"""Content-addressed result cache: memory, disk, and remote tiers.

Every payload is stored under its job's content address
(:attr:`repro.engine.jobs.EvalJob.job_id`), which hashes the full job
key plus a cache-format version.  A hit therefore *is* the result —
there is no invalidation logic, only keys that were never written.

The memory tier makes any evaluation compute at most once per process;
the disk tier (``cache_dir``) extends that across CLI invocations.

The optional **remote tier** (``remote``, a :class:`repro.remote.
client.RemoteCacheClient` or anything duck-typing its
``get``/``put``/``manifest``) extends the namespace across *machines*:
a lookup that misses memory and disk fetches the job's canonical
pickle bytes from a ``repro cache-server``, verifies their sha256, and
back-fills both local tiers; stores publish the same bytes
*write-behind* on a daemon thread, so ``put`` latency never waits on
the network (:meth:`ResultCache.flush_remote` drains the queue).  A
failed verification degrades to a miss — corrupt remote bytes are
never unpickled.  :meth:`ResultCache.prefetch` batches one
``POST /cache/manifest`` existence check for a whole schedule so
known-absent jobs skip the per-job round-trip entirely.

Both the disk tier and ``repro cache-server`` store objects through one
:class:`ObjectStore` (one ``{job_id}.pkl`` file per object), and every
payload becomes bytes through one codec (:func:`encode_payload` /
:func:`decode_payload`, with :func:`payload_digest` as its checksum),
so a ``--cache-dir`` *is* a valid cache-server store.  This module is
the only one that imports :mod:`pickle`.

The store can be LRU size-capped (``max_disk_bytes``, the CLI's
``--cache-max-mb``): every hit refreshes the entry's mtime as a
``last_used`` stamp, and writes that push the store over the cap prune
least-recently-used entries until it fits again (down to
:attr:`ObjectStore.PRUNE_HEADROOM` of the cap, riding on an O(1)
running byte total).  The memory tier is never pruned.  A concurrent
pruner (another process sharing the directory) may delete an entry
mid-hit — between the read and the ``last_used`` touch; the store then
reports the entry absent rather than resurrecting an evicted entry.

:class:`CacheStats` counts every lookup per job *kind* as well as in
total (``hits_by_kind`` / ``misses_by_kind``), so sharded traffic is
separable — e.g. a grown ``--samples`` re-run reports its prefix-reuse
rate as the ``eval-shard`` hit fraction, which the totals alone can't
distinguish from ``sim``-shard or whole-cell lookups.

All public operations take an internal lock, so one cache may back
several engine threads at once (the async serving layer runs
concurrent batches against a single :class:`ResultCache`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue
import tempfile
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, Self

from repro.engine.jobs import EvalJob

MISS = object()
"""Sentinel returned by :meth:`ResultCache.get` on a miss (payloads may
legitimately be falsy)."""


def encode_payload(payload: Any) -> bytes:
    """A payload's canonical bytes: what every tier stores and ships."""
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload` (callers verify digests first)."""
    return pickle.loads(data)


def payload_digest(data: bytes) -> str:
    """The sha256 hex digest carried alongside every stored object."""
    return hashlib.sha256(data).hexdigest()


class ObjectStore:
    """Directory-backed content-addressed object storage.

    One ``{job_id}.pkl`` file per object, written atomically (temp file
    + rename) so a crashed writer never leaves a truncated entry, with
    an optional LRU size cap (``max_bytes``) kept on a running byte
    total.  Thread-safe: one lock guards the running total.
    """

    PRUNE_HEADROOM = 0.9
    """Prune down to this fraction of the cap, so a saturated store
    absorbs a batch of writes before the next directory scan."""

    def __init__(
        self, root: str | os.PathLike, max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._usage: int | None = None  # lazy running total
        self.evictions = 0

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.pkl"

    def get(self, job_id: str) -> bytes | None:
        """The object's bytes (refreshing its ``last_used`` stamp), or
        ``None`` when absent."""
        path = self._path(job_id)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            os.utime(path)  # refresh the last_used stamp
        except FileNotFoundError:
            # A concurrent pruner (another process, or a sibling store
            # on the same directory) deleted the entry between the
            # read and the touch.  Honor the eviction instead of
            # serving a deliberately dropped entry, and rescan lazily:
            # the running total no longer matches the directory.
            with self._lock:
                self._usage = None
            return None
        except OSError:
            pass
        return data

    def head(self, job_id: str) -> int | None:
        """The object's size, or ``None`` when absent."""
        try:
            return self._path(job_id).stat().st_size
        except OSError:
            return None

    def put(self, job_id: str, data: bytes) -> int:
        """Atomically store an object; returns the entries the write
        evicted to stay under the cap."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        old_size = self.head(job_id) or 0
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(job_id))
        except BaseException:
            os.unlink(tmp)
            raise
        with self._lock:
            if self._usage is not None:
                self._usage += len(data) - old_size
        return self.prune()

    def discard(self, job_id: str) -> None:
        """Drop one object (e.g. an unreadable entry)."""
        size = self.head(job_id)
        self._path(job_id).unlink(missing_ok=True)
        with self._lock:
            if self._usage is not None and size is not None:
                self._usage = max(0, self._usage - size)

    def present(self, job_ids: Iterable[str]) -> list[str]:
        return [job_id for job_id in job_ids
                if self.head(job_id) is not None]

    def _entries(self) -> list[tuple[Path, float, int]]:
        """Objects as ``(path, last_used_mtime, size)`` tuples."""
        entries = []
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def usage_bytes(self) -> int:
        """Total size of the stored objects (running total)."""
        with self._lock:
            if self._usage is None:
                if not self.root.is_dir():
                    return 0
                self._usage = sum(size for _, _, size in self._entries())
            return self._usage

    def object_count(self) -> int:
        return len(self._entries()) if self.root.is_dir() else 0

    def prune(self) -> int:
        """Evict LRU objects until the store fits ``max_bytes``.

        Objects are ranked by mtime, the ``last_used`` stamp every hit
        refreshes.  The under-cap check rides on the running total, so
        writes are O(1) until the cap is hit; only an actual prune
        scans the directory, and it evicts down to
        :attr:`PRUNE_HEADROOM` of the cap to keep scans rare at
        saturation.  Returns the number of objects evicted.
        """
        if self.max_bytes is None or not self.root.is_dir():
            return 0
        if self.usage_bytes() <= self.max_bytes:
            return 0
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            target = int(self.max_bytes * self.PRUNE_HEADROOM)
            evicted = 0
            for path, _, size in sorted(entries, key=lambda e: e[1]):
                if total <= target:
                    break
                path.unlink(missing_ok=True)
                total -= size
                evicted += 1
            self._usage = total
            self.evictions += evicted
            return evicted


class Counters:
    """``as_dict`` / ``snapshot`` / ``delta`` for a dataclass of counters.

    Every field is a cumulative total (``int``/``float``) or a
    ``dict[str, int]`` of totals per job kind, so a new counter is
    declared once, as a field, and all three follow.
    """

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    def snapshot(self) -> Self:
        """An independent copy (pair with :meth:`delta` to scope the
        cumulative counters to one run)."""
        return replace(self, **{
            f.name: dict(value)
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), dict)
        })

    def delta(self, earlier: Self) -> Self:
        """Counters accumulated since an earlier snapshot; per-kind
        tallies keep only the kinds that changed."""
        changes: dict[str, Any] = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(earlier, f.name)
            if isinstance(now, dict):
                now = {
                    kind: count - then.get(kind, 0)
                    for kind, count in now.items()
                    if count - then.get(kind, 0)
                }
            else:
                now -= then
            changes[f.name] = now
        return replace(self, **changes)


@dataclass
class CacheStats(Counters):
    """Hit/miss counters, cumulative over the cache's lifetime.

    Besides the totals, lookups are counted per job *kind*
    (``hits_by_kind`` / ``misses_by_kind``): a sharded-eval re-run with
    a larger ``--samples`` reports its prefix-reuse rate as the
    ``eval-shard`` hit fraction, which the totals alone can't separate
    from sim-shard or whole-cell traffic.
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    stores: int = 0
    remote_stores: int = 0
    remote_errors: int = 0
    remote_verify_failures: int = 0
    disk_evictions: int = 0
    hits_by_kind: dict[str, int] = field(default_factory=dict)
    misses_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def _note(self, kind: str, hit: bool) -> None:
        by_kind = self.hits_by_kind if hit else self.misses_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def tiers(self) -> dict[str, int]:
        """Hits by serving tier, in lookup order."""
        return {
            "memory": self.memory_hits,
            "disk": self.disk_hits,
            "remote": self.remote_hits,
        }

    def as_dict(self) -> dict[str, Any]:
        counters = super().as_dict()
        by_kind = {
            name: counters.pop(name)
            for name in ("hits_by_kind", "misses_by_kind")
        }
        return {**counters, "hit_rate": self.hit_rate, **by_kind}


class ResultCache:
    """Tiered (memory → disk → remote) content-addressed result cache.

    Args:
        cache_dir: Directory for the disk tier, held as :attr:`disk`
            (an :class:`ObjectStore`); ``None`` keeps the cache
            memory-only.  Created on first write.
        enabled: When ``False`` every lookup misses and nothing is
            stored (the CLI's ``--no-cache``).
        max_disk_bytes: Size cap for the disk tier (its
            :class:`ObjectStore`'s ``max_bytes``).  Writes that push
            the tier over the cap evict least-recently-*used* entries
            (disk hits refresh an entry's mtime) until it fits again;
            ``None`` leaves the tier unbounded.
        remote: Optional remote tier client (a :class:`repro.remote.
            client.RemoteCacheClient`, or anything with its
            ``get``/``put``/``manifest`` surface).  Lookups that miss
            both local tiers fetch from it (sha256-verified, then
            back-filled locally); stores publish to it asynchronously
            (write-behind) unless ``put(..., publish=False)``.
    """

    def __init__(
        self, cache_dir: str | os.PathLike | None = None,
        enabled: bool = True,
        max_disk_bytes: int | None = None,
        remote: Any | None = None,
    ) -> None:
        self.enabled = enabled
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        self.disk = (
            ObjectStore(cache_dir, max_bytes=max_disk_bytes)
            if cache_dir is not None else None
        )
        self.remote = remote
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}
        self._lock = threading.RLock()
        # Remote-tier state: manifest knowledge (True = present, False
        # = known absent → skip the GET) and the write-behind queue of
        # (job_id, canonical_bytes) publishes, drained by a lazily
        # started daemon thread.
        self._remote_known: dict[str, bool] = {}
        self._publish_queue: queue.Queue | None = None
        self._publish_thread: threading.Thread | None = None

    @property
    def max_disk_bytes(self) -> int | None:
        """The disk tier's size cap (``None`` when uncapped or absent)."""
        return self.disk.max_bytes if self.disk is not None else None

    @max_disk_bytes.setter
    def max_disk_bytes(self, value: int | None) -> None:
        if self.disk is not None:
            self.disk.max_bytes = value

    def get(self, job: EvalJob) -> Any:
        """Return the cached payload for ``job`` or :data:`MISS`."""
        return self.lookup(job)[0]

    def lookup(self, job: EvalJob) -> tuple[Any, str | None]:
        """Like :meth:`get`, plus the serving tier.

        Returns ``(payload, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"``, ``"remote"``, or ``None`` on a miss.
        """
        with self._lock:
            return self._lookup(job)

    def _lookup(self, job: EvalJob) -> tuple[Any, str | None]:
        if not self.enabled:
            self.stats._note(job.kind, hit=False)
            return MISS, None
        payload = self._memory.get(job.job_id, MISS)
        if payload is not MISS:
            self.stats._note(job.kind, hit=True)
            self.stats.memory_hits += 1
            return payload, "memory"
        data = self.disk.get(job.job_id) if self.disk is not None else None
        if data is not None:
            try:
                payload = decode_payload(data)
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError):
                # Unreadable entry: drop it and recompute.
                self.disk.discard(job.job_id)
            else:
                self._memory[job.job_id] = payload
                self.stats._note(job.kind, hit=True)
                self.stats.disk_hits += 1
                return payload, "disk"
        payload = self._remote_lookup(job)
        if payload is not MISS:
            self.stats._note(job.kind, hit=True)
            self.stats.remote_hits += 1
            return payload, "remote"
        self.stats._note(job.kind, hit=False)
        return MISS, None

    def _remote_lookup(self, job: EvalJob) -> Any:
        """Fetch from the remote tier and back-fill the local ones.

        Corrupt bytes (failed sha256 verification or an unloadable
        pickle) degrade to a miss; a miss or transport failure marks
        the id known-absent so repeat lookups skip the round-trip
        (:meth:`prefetch` pre-marks whole schedules in one request).
        """
        if self.remote is None:
            return MISS
        if self._remote_known.get(job.job_id) is False:
            return MISS
        try:
            data = self.remote.get(job.job_id)
        except Exception as exc:
            from repro.remote.client import RemoteCacheVerificationError

            if isinstance(exc, RemoteCacheVerificationError):
                self.stats.remote_verify_failures += 1
            else:
                self.stats.remote_errors += 1
            data = None
        if data is None:
            self._remote_known[job.job_id] = False
            return MISS
        try:
            payload = decode_payload(data)
        except Exception:
            self.stats.remote_errors += 1
            self._remote_known[job.job_id] = False
            return MISS
        self._remote_known.pop(job.job_id, None)
        self._memory[job.job_id] = payload
        if self.disk is not None:
            # Back-fill the disk tier with the exact received bytes so
            # all three tiers hold identical canonical entries.
            self.stats.disk_evictions += self.disk.put(job.job_id, data)
        return payload

    def put(
        self, job: EvalJob, payload: Any, publish: bool = True
    ) -> None:
        """Store a payload in every tier.

        The remote publish is *write-behind*: the canonical bytes are
        queued and shipped by a daemon thread, so the caller never
        waits on the network (:meth:`flush_remote` drains the queue).
        ``publish=False`` keeps a store local — used for payloads that
        already live remotely (remote-tier hits, fleet-executed jobs
        whose owner published them).
        """
        with self._lock:
            self._put(job, payload, publish)

    def _put(self, job: EvalJob, payload: Any, publish: bool) -> None:
        if not self.enabled:
            return
        self._memory[job.job_id] = payload
        self.stats.stores += 1
        data: bytes | None = None
        if self.disk is not None or (publish and self.remote is not None):
            data = encode_payload(payload)
        if self.disk is not None:
            self.stats.disk_evictions += self.disk.put(job.job_id, data)
        if publish and self.remote is not None:
            self._remote_known.pop(job.job_id, None)
            self._enqueue_publish(job.job_id, data)

    # -- remote tier --------------------------------------------------

    def _enqueue_publish(self, job_id: str, data: bytes) -> None:
        if self._publish_queue is None:
            self._publish_queue = queue.Queue()
            self._publish_thread = threading.Thread(
                target=self._publish_worker,
                name="repro-cache-publish", daemon=True,
            )
            self._publish_thread.start()
        self._publish_queue.put((job_id, data))

    def _publish_worker(self) -> None:
        assert self._publish_queue is not None
        while True:
            job_id, data = self._publish_queue.get()
            try:
                try:
                    ok = bool(self.remote.put(job_id, data))
                except Exception:
                    ok = False
                with self._lock:
                    if ok:
                        self.stats.remote_stores += 1
                    else:
                        self.stats.remote_errors += 1
            finally:
                self._publish_queue.task_done()

    def flush_remote(self) -> None:
        """Block until every queued write-behind publish has been
        attempted (idempotent; a no-op without a remote tier)."""
        if self._publish_queue is not None:
            self._publish_queue.join()

    def prefetch(self, jobs: Iterable[EvalJob]) -> int:
        """Resolve remote existence for a schedule in one round-trip.

        Jobs already in a local tier are skipped; the rest go into one
        batched ``POST /cache/manifest`` whose answer pre-marks each id
        present or absent, so the per-job lookups either fetch or skip
        the network entirely.  Returns the number of ids marked
        present.  Quietly a no-op when the remote tier is absent,
        disabled, or unreachable (per-job lookups then probe as
        usual).
        """
        if self.remote is None or not self.enabled:
            return 0
        wanted: dict[str, None] = {}
        with self._lock:
            for job in jobs:
                if job.job_id in self._memory:
                    continue
                if job.job_id in self._remote_known:
                    continue
                if (
                    self.disk is not None
                    and self.disk.head(job.job_id) is not None
                ):
                    continue
                wanted.setdefault(job.job_id, None)
        if not wanted:
            return 0
        try:
            present = self.remote.manifest(list(wanted))
        except Exception:
            present = None
        if present is None:
            return 0
        with self._lock:
            for job_id in wanted:
                self._remote_known[job_id] = job_id in present
        return len(present & set(wanted))

    def disk_usage_bytes(self) -> int:
        """Total size of the disk tier's entries (running total)."""
        return self.disk.usage_bytes() if self.disk is not None else 0

    def prune_disk(self) -> int:
        """Evict LRU disk entries until the tier fits ``max_disk_bytes``
        (see :meth:`ObjectStore.prune`).  The memory tier is untouched
        — an evicted entry already loaded this session stays hot.
        Returns the number of entries evicted."""
        if self.disk is None:
            return 0
        with self._lock:
            evicted = self.disk.prune()
            self.stats.disk_evictions += evicted
        return evicted

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)
