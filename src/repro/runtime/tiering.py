"""Tiered content-addressed caching: memory LRU → directory → object store.

The library's dedupe story grew bottom-up: :class:`~repro.runtime.cache.ResultCache`
dedupes one host, the distributed ``DirectoryStore`` dedupes one fleet
sharing a filesystem.  This module adds the planet-scale tier — a
*shared remote store with local hot tiers* — so fleets of workers and
serving front-ends on different machines dedupe each other's warm
configurations too::

    get:  memory LRU ──miss──▶ local directory ──miss──▶ object store
            ▲  ▲ promote ◀──────── hit ◀──────────────────── hit
    put:  memory LRU + local directory (synchronous)
          object store (write-behind: background flusher, bounded
          queue, retry with exponential backoff + jitter, fail-open)

Every tier speaks the same three-method :class:`CacheStore` interface
and addresses bytes with the same SHA-256 content key
(:func:`~repro.runtime.cache.content_key`), so a value computed
anywhere is a hit everywhere — and the tiers compose freely.

The degradation contract is the load-bearing guarantee: **a store that
cannot be read or written degrades caching, never correctness**.  A
dead object store turns remote reads into misses (counted as errors)
and remote writes into bounded retries that eventually drop (counted
as drops); the computation proceeds locally and the merged result is
byte-identical to a run with a healthy store.  CI kills the store
mid-run on every PR to hold the line (``examples/tiered_store_smoke.py``).

Semantics, TTL rules and store-URL configuration are documented in
``docs/caching.md``.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.obs.flight import FlightRecorder, get_flight_recorder
from repro.obs.metrics import Instrumented, MetricField, MetricsRegistry
from repro.runtime.cache import CACHE_VERSION, _canonical, content_key

logger = logging.getLogger(__name__)

__all__ = [
    "CacheLike",
    "CacheStore",
    "MemoryLRUStore",
    "TierStats",
    "TieredStore",
    "make_tiered_store",
    "value_bytes",
]

#: Default bounds of the in-process hot tier: small enough to be an
#: afterthought next to a worker's sample buffers, large enough to hold
#: every shard tally of a paper-scale run.
DEFAULT_LRU_ENTRIES = 1024
DEFAULT_LRU_BYTES = 64 << 20


class CacheLike(Protocol):
    """Structural type of anything a sweep can cache into.

    Both :class:`~repro.runtime.cache.ResultCache` and every
    :class:`CacheStore` satisfy it; callers that only ``get``/``put``
    (:func:`~repro.distributed.jobs.run_jobs`, the serving batcher)
    accept either.
    """

    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]: ...

    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None: ...


def value_bytes(value: Any) -> int:
    """Canonical-JSON size of a cached value (the tier byte accounting).

    Deliberately the size of the *value*, not of any backend's on-disk
    document: every tier counts the same bytes for the same value, so
    byte counters compare across tiers.
    """
    return len(
        json.dumps(
            value, sort_keys=True, separators=(",", ":"), default=_canonical
        ).encode()
    )


class TierStats(Instrumented):
    """Per-tier counters: hits/misses, bytes, latency, failures.

    ``errors`` counts backend failures (unreachable store, failed
    write attempt) — *not* misses, which are a normal outcome.
    ``retries`` counts in-band second attempts after a transient
    failure (the remote tier's read retry); each failed attempt still
    lands in ``errors``, so ``errors - retries`` bounds the reads that
    actually degraded.
    ``expirations`` counts TTL-expired reads, ``evictions`` LRU
    displacements; both are zero for tiers without the mechanism.
    Latency is accumulated seconds, so ``get_seconds / (hits + misses)``
    is the mean read latency of the tier.

    Counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
    (private by default; CLI entry points rebind them into the
    process registry via :meth:`~repro.obs.metrics.Instrumented.
    bind_metrics` so ``/metrics`` exposes every tier).
    """

    hits = MetricField("repro_cache_hits_total")
    misses = MetricField("repro_cache_misses_total")
    puts = MetricField("repro_cache_puts_total")
    bytes_read = MetricField("repro_cache_bytes_read_total")
    bytes_written = MetricField("repro_cache_bytes_written_total")
    errors = MetricField("repro_cache_errors_total")
    retries = MetricField("repro_cache_retries_total")
    evictions = MetricField("repro_cache_evictions_total")
    expirations = MetricField("repro_cache_expirations_total")
    get_seconds = MetricField("repro_cache_get_seconds_total")
    put_seconds = MetricField("repro_cache_put_seconds_total")

    _FIELDS = (
        "hits", "misses", "puts", "bytes_read", "bytes_written",
        "errors", "retries", "evictions", "expirations", "get_seconds",
        "put_seconds",
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._obs_init(registry, labels)
        self.get_seconds = 0.0
        self.put_seconds = 0.0

    def record_get(self, value: Optional[Any], seconds: float) -> None:
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.bytes_read += value_bytes(value)
        self.get_seconds += seconds

    def record_put(self, value: Any, seconds: float) -> None:
        self.puts += 1
        self.bytes_written += value_bytes(value)
        self.put_seconds += seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (latency rounded to microseconds)."""
        out: Dict[str, Any] = {name: getattr(self, name) for name in self._FIELDS}
        out["get_seconds"] = round(out["get_seconds"], 6)
        out["put_seconds"] = round(out["put_seconds"], 6)
        return out


class CacheStore(ABC):
    """Content-addressed result store shared across processes and hosts.

    Contract (inherited from ``docs/runtime.md``'s cache rules): the
    payload must contain everything that determines the stored value,
    writes must be atomic (readers never observe a torn document), and
    concurrent writers of one address must be safe because they all
    write identical bytes.  ``get`` returns ``None`` on any kind of
    miss — absence, corruption, backend unavailability — never raises
    for a recoverable condition; a store that cannot be *written*
    degrades caching, not correctness, so callers treat ``put``
    failures as non-fatal.

    Every concrete store maintains a :class:`TierStats` (``self.tier``)
    and reports it through :meth:`stats_payload` — the object the
    ``stats`` probes of serve and dispatch embed.
    """

    def __init__(self) -> None:
        self.tier = TierStats()

    @abstractmethod
    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        """The stored value addressed by ``payload``, or ``None``."""

    @abstractmethod
    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        """Atomically store ``value`` under the address of ``payload``."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable location of the store (for logs and stats)."""

    def stats_payload(self) -> Dict[str, Any]:
        """JSON-able counters for the ``stats`` protocol probes."""
        if not hasattr(self, "tier"):  # subclass skipped __init__
            self.tier = TierStats()
        return {"store": self.describe(), **self.tier.to_dict()}


class MemoryLRUStore(CacheStore):
    """The in-process hot tier: a bounded, thread-safe LRU.

    Bounds are enforced on both axes — entry count and total value
    bytes (:func:`value_bytes`) — evicting least-recently-used entries
    until both hold.  A single value larger than ``max_bytes`` is not
    stored at all (it would evict the whole tier for one entry).

    ``ttl`` (seconds) expires entries that have lived their full TTL
    (age ``>= ttl``), matching the directory tier's rule; ``ttl=0``
    treats every entry as already expired.  Ages here come from
    :func:`time.monotonic` — immune to wall-clock steps — whereas the
    file tiers age entries by wall-clock mtime (see
    ``docs/caching.md``), so the two tiers can disagree across a clock
    adjustment; both clamp ages to be non-negative.

    Values are stored by reference and returned by reference: callers
    must treat cached values as immutable, which every consumer of the
    content-addressed caches already does (the key *is* the content).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_LRU_ENTRIES,
        max_bytes: int = DEFAULT_LRU_BYTES,
        ttl: Optional[float] = None,
        version: int = CACHE_VERSION,
    ):
        super().__init__()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.ttl = None if ttl is None else float(ttl)
        self.version = int(version)
        # key -> (value, value_bytes, stored_at); insertion order is
        # recency order (move_to_end on every hit).
        self._entries: "OrderedDict[str, Tuple[Any, int, float]]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def _key(self, namespace: str, payload: Dict[str, Any]) -> str:
        return content_key(namespace, payload, self.version)

    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        start = time.perf_counter()
        key = self._key(namespace, payload)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                value = None
            else:
                value, nbytes, stored_at = entry
                if self.ttl is not None and time.monotonic() - stored_at >= self.ttl:
                    del self._entries[key]
                    self._total_bytes -= nbytes
                    self.tier.expirations += 1
                    value = None
                else:
                    self._entries.move_to_end(key)
        self.tier.record_get(value, time.perf_counter() - start)
        return value

    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        start = time.perf_counter()
        key = self._key(namespace, payload)
        nbytes = value_bytes(value)
        if nbytes > self.max_bytes:
            # Oversized for the whole tier: admitting it would evict
            # everything else for one entry nobody can keep hot.
            self.tier.record_put(value, time.perf_counter() - start)
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_bytes -= old[1]
            self._entries[key] = (value, nbytes, time.monotonic())
            self._total_bytes += nbytes
            while (
                len(self._entries) > self.max_entries
                or self._total_bytes > self.max_bytes
            ):
                _, (_, evicted_bytes, _) = self._entries.popitem(last=False)
                self._total_bytes -= evicted_bytes
                self.tier.evictions += 1
        self.tier.record_put(value, time.perf_counter() - start)

    def describe(self) -> str:
        ttl = "" if self.ttl is None else f",ttl={self.ttl:g}s"
        return f"memory:lru(entries<={self.max_entries},bytes<={self.max_bytes}{ttl})"

    # ------------------------------------------------------------------
    # Pickling (spawned sweep workers receive a fresh, empty hot tier
    # over the same shared slower tiers).
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "ttl": self.ttl,
            "version": self.version,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]
            max_entries=state["max_entries"],
            max_bytes=state["max_bytes"],
            ttl=state["ttl"],
            version=state["version"],
        )


#: Sentinel that stops the write-behind flusher thread.
_STOP = object()


class TieredStore(CacheStore, Instrumented):
    """Read-through / write-behind composition of up to three tiers.

    Parameters
    ----------
    memory / local / remote:
        The tiers, fastest first; any may be ``None``.  ``memory`` is
        typically a :class:`MemoryLRUStore`, ``local`` a
        :class:`~repro.distributed.store.DirectoryStore`, ``remote`` an
        :class:`~repro.distributed.objectstore.ObjectStore` — but any
        :class:`CacheStore` fits any slot.
    flush_queue:
        Bound on queued write-behind items; a put arriving with the
        queue full is dropped (counted), never blocks the caller.
    flush_retries:
        Remote write attempts per item beyond the first.
    flush_backoff / flush_backoff_cap:
        Exponential-backoff base and ceiling (seconds) between retries;
        each delay is jittered by up to +25% so a fleet retrying a
        recovered store does not thundering-herd it.

    Reads check ``memory → local → remote`` and *promote* a hit into
    every faster tier.  Writes land on ``memory`` and ``local``
    synchronously; the ``remote`` write happens behind the caller's
    back on the flusher thread — a slow or dead object store never
    stalls a computation (fail-open), it only shows up in
    :meth:`stats` as retries, errors and drops.  Every dropped
    write-behind entry additionally emits a WARNING log and a
    flight-recorder ``write_behind_drop`` event carrying the dropped
    content address, so silent cache erosion is observable.
    """

    queued = MetricField("repro_cache_write_behind_queued_total")
    flushed = MetricField("repro_cache_write_behind_flushed_total")
    retried = MetricField("repro_cache_write_behind_retried_total")
    dropped = MetricField("repro_cache_write_behind_dropped_total")

    def __init__(
        self,
        memory: Optional[CacheStore] = None,
        local: Optional[CacheStore] = None,
        remote: Optional[CacheStore] = None,
        flush_queue: int = 256,
        flush_retries: int = 4,
        flush_backoff: float = 0.05,
        flush_backoff_cap: float = 2.0,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
    ):
        super().__init__()
        self._obs_init(metrics)
        self._flight = flight
        if memory is None and local is None and remote is None:
            raise ValueError("a TieredStore needs at least one tier")
        if flush_queue < 1:
            raise ValueError(f"flush_queue must be >= 1, got {flush_queue}")
        if flush_retries < 0:
            raise ValueError(f"flush_retries must be >= 0, got {flush_retries}")
        if flush_backoff <= 0 or flush_backoff_cap < flush_backoff:
            raise ValueError(
                f"need 0 < flush_backoff <= flush_backoff_cap, got "
                f"{flush_backoff}/{flush_backoff_cap}"
            )
        self.memory = memory
        self.local = local
        self.remote = remote
        self.flush_queue = int(flush_queue)
        self.flush_retries = int(flush_retries)
        self.flush_backoff = float(flush_backoff)
        self.flush_backoff_cap = float(flush_backoff_cap)
        # Write-behind counters (the "write_behind" stats block) —
        # registry-backed via the MetricField descriptors above.
        self.queued = 0
        self.flushed = 0
        self.retried = 0
        self.dropped = 0
        self._init_runtime()

    def _recorder(self) -> FlightRecorder:
        flight = self.__dict__.get("_flight")
        return flight if flight is not None else get_flight_recorder()

    def _record_drop(self, namespace: str, payload: Dict[str, Any], reason: str) -> None:
        """A write-behind entry is lost: make it loud and structured."""
        version = getattr(self.remote, "version", CACHE_VERSION)
        address = content_key(namespace, payload, version)
        logger.warning(
            "write-behind drop (%s): %s/%s will not reach %s",
            reason,
            namespace,
            address,
            "remote" if self.remote is None else self.remote.describe(),
        )
        self._recorder().record(
            "write_behind_drop",
            namespace=namespace,
            address=address,
            reason=reason,
        )

    def _init_runtime(self) -> None:
        """(Re)build the unpicklable machinery: lock, queue, thread."""
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: "List[Any]" = []
        self._pending = 0  # queued + currently flushing
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._rng = random.Random()

    # ------------------------------------------------------------------
    # Tier access
    # ------------------------------------------------------------------
    def _tiers(self) -> List[Tuple[str, CacheStore]]:
        return [
            (name, tier)
            for name, tier in (
                ("memory", self.memory),
                ("local", self.local),
                ("remote", self.remote),
            )
            if tier is not None
        ]

    def tier_stores(self) -> List[Tuple[str, CacheStore]]:
        """Public (name, store) view of the tiers, for metrics binding."""
        return self._tiers()

    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        tiers = self._tiers()
        for i, (name, tier) in enumerate(tiers):
            try:
                value = tier.get(namespace, payload)
            except Exception:
                # A tier that *raises* is an unavailable backend; the
                # backend counted the error, the composite degrades to
                # the next tier.
                self._recorder().record("tier_error", tier=name, op="get")
                value = None
            if value is not None:
                # Read-through promotion: a hit warms every faster
                # tier, so the next read stops sooner.
                for _, faster in tiers[:i]:
                    try:
                        faster.put(namespace, payload, value)
                    except Exception:  # pragma: no cover - defensive
                        pass
                return value
        return None

    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        for name, tier in self._tiers():
            if name == "remote":
                self._enqueue(namespace, payload, value)
                continue
            try:
                tier.put(namespace, payload, value)
            except Exception:
                # Synchronous tiers normally swallow their own I/O
                # failures; a raising tier still must not fail the put.
                tier.tier.errors += 1
                self._recorder().record("tier_error", tier=name, op="put")

    def describe(self) -> str:
        chain = " -> ".join(tier.describe() for _, tier in self._tiers())
        return f"tiered:[{chain}]"

    # ------------------------------------------------------------------
    # Write-behind flusher
    # ------------------------------------------------------------------
    def _enqueue(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        with self._cond:
            if len(self._queue) >= self.flush_queue:
                # Fail-open under backlog: dropping a write costs a
                # future recompute somewhere, never this run.
                self.dropped += 1
                overflowed = True
            else:
                overflowed = False
                self._queue.append((namespace, payload, value))
                self._pending += 1
                self.queued += 1
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._flusher, name="repro-store-flush", daemon=True
                    )
                    self._thread.start()
                self._cond.notify_all()
        if overflowed:
            # Logged outside the queue lock: a slow log handler must
            # not stall the put path it is reporting on.
            self._record_drop(namespace, payload, "queue_full")

    def _next_item(self) -> Any:
        with self._cond:
            while not self._queue and not self._stop.is_set():
                self._cond.wait(timeout=0.5)
            if self._queue:
                return self._queue.pop(0)
            return _STOP

    def _flusher(self) -> None:
        while True:
            item = self._next_item()
            if item is _STOP:
                return
            namespace, payload, value = item
            assert self.remote is not None
            delivered = False
            for attempt in range(self.flush_retries + 1):
                if attempt > 0:
                    self.retried += 1
                    delay = min(
                        self.flush_backoff_cap,
                        self.flush_backoff * (2 ** (attempt - 1)),
                    )
                    # Jitter decorrelates a fleet hammering a store
                    # that just came back.
                    if self._stop.wait(delay * (1.0 + 0.25 * self._rng.random())):
                        break
                try:
                    self.remote.put(namespace, payload, value)
                    delivered = True
                    break
                except Exception:
                    # The backend counted the error; retry or drop.
                    continue
            with self._cond:
                if delivered:
                    self.flushed += 1
                else:
                    self.dropped += 1
                self._pending -= 1
                self._cond.notify_all()
            if not delivered:
                self._record_drop(namespace, payload, "retries_exhausted")

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait until the write-behind queue is drained.

        Returns ``False`` on timeout (items still queued or retrying —
        e.g. against a dead remote); the store stays usable either way.
        """
        with self._cond:
            return self._cond.wait_for(lambda: self._pending == 0, timeout=timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Drain best-effort, stop the flusher thread (idempotent)."""
        self.flush(timeout=timeout)
        self._stop.set()
        with self._cond:
            # Whatever survives the drain window is dropped, counted.
            residue = list(self._queue)
            self.dropped += len(self._queue)
            self._pending -= len(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for namespace, payload, _ in residue:
            self._record_drop(namespace, payload, "closed_with_backlog")
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout)
        self._stop = threading.Event()

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Nested per-tier counters plus the write-behind block."""
        with self._cond:
            write_behind = {
                "queued": self.queued,
                "flushed": self.flushed,
                "retried": self.retried,
                "dropped": self.dropped,
                "queue_depth": self._pending,
            }
        return {
            "tiers": {
                name: tier.stats_payload() for name, tier in self._tiers()
            },
            "write_behind": write_behind,
        }

    def stats_payload(self) -> Dict[str, Any]:
        return {"store": self.describe(), **self.stats()}

    # ------------------------------------------------------------------
    # Pickling (for spawn-based sweep workers): configuration travels,
    # queue/thread/hot entries do not — the child rebuilds an empty
    # queue and its memory tier unpickles empty.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in ("_lock", "_cond", "_queue", "_pending", "_stop",
                     "_thread", "_rng", "_flight"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        # An injected flight recorder stays with its process; the
        # unpickled copy reports to the process-default recorder.
        self._flight = None
        self._init_runtime()


def make_tiered_store(
    cache_dir: Optional[str] = None,
    store_url: Optional[str] = None,
    lru_entries: Optional[int] = DEFAULT_LRU_ENTRIES,
    lru_bytes: int = DEFAULT_LRU_BYTES,
    ttl: Optional[float] = None,
    **flusher: Any,
) -> TieredStore:
    """The standard composition behind ``--store-url``/``--lru-entries``.

    ``memory LRU → DirectoryStore(cache_dir) → ObjectStore(store_url)``,
    with the remote tier omitted when ``store_url`` is ``None`` and the
    memory tier omitted when ``lru_entries`` is 0 or ``None``.  ``ttl``
    applies to both local tiers (the remote store is shared state; only
    :meth:`~repro.runtime.cache.ResultCache.compact` deletes).  Extra
    keyword arguments reach the :class:`TieredStore` flusher knobs.
    """
    # Imported lazily: repro.distributed imports this module for the
    # CacheStore interface, so the reverse import must not be circular.
    from repro.distributed.store import DirectoryStore

    memory = None
    if lru_entries:
        memory = MemoryLRUStore(
            max_entries=lru_entries, max_bytes=lru_bytes, ttl=ttl
        )
    local = DirectoryStore(cache_dir, ttl=ttl)
    remote = None
    if store_url:
        from repro.distributed.objectstore import ObjectStore

        remote = ObjectStore(store_url)
    return TieredStore(memory=memory, local=local, remote=remote, **flusher)
