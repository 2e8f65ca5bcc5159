"""Shared cache stores for distributed shard results.

The dispatcher and its workers communicate results twice: inline over
the wire (so a run completes without waiting on storage propagation)
and through a *shared cache store* keyed by the same content addresses
a local :func:`~repro.distributed.jobs.run_jobs` run uses.  The store
is what makes the system idempotent and resumable:

* a shard recomputed anywhere — retry after a worker death, a
  speculative duplicate, a rerun next week — lands on the same address
  with the same bytes, so double computation is wasted work, never a
  conflict;
* a worker (or the dispatcher itself) that finds the address populated
  skips the computation entirely, which is why two workers sharing one
  store never recompute each other's shards — and why a *distributed*
  run can resume from a *single-host* run's cache, and vice versa.

:class:`~repro.runtime.tiering.CacheStore` (re-exported here for
backwards compatibility) is the minimal interface: content-addressed
``get``/``put`` with atomic, last-writer-wins ``put`` semantics where
every writer of one address produces identical bytes.
:class:`DirectoryStore` is the filesystem backend — a plain directory
(sharable over NFS, or rsync'd between hosts between runs) delegating
to :class:`~repro.runtime.cache.ResultCache`.  The object-store backend
(:class:`~repro.distributed.objectstore.ObjectStore`) and the composite
:class:`~repro.runtime.tiering.TieredStore` slot in behind the same
three methods; ``docs/caching.md`` maps the tiers.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from repro.runtime.cache import ResultCache
from repro.runtime.tiering import CacheStore, TierStats

__all__ = ["CacheStore", "DirectoryStore", "TierStats"]


class DirectoryStore(CacheStore):
    """The filesystem backend: one shared cache directory.

    Wraps :class:`~repro.runtime.cache.ResultCache`, so the store is
    byte-compatible with every single-host cache the library writes —
    the same directory serves local sharded runs and distributed fleets
    interchangeably.

    Parameters
    ----------
    cache_dir:
        Directory to store results under; ``None`` falls back to
        :func:`~repro.runtime.cache.default_cache_dir` (the
        ``REPRO_CACHE_DIR`` environment variable, then
        ``./.repro_cache``).
    ttl:
        Optional freshness bound in seconds: entries that have lived
        their full TTL (file age ``>= ttl``) read as misses, and
        ``ttl=0`` treats every entry as already expired.  File age is
        **wall-clock** time (``time.time() - mtime``) — unlike the
        memory tier's monotonic clock — so a backward clock step can
        make files look younger than they are; ages are clamped to be
        non-negative so a future mtime reads as age 0, never as a
        negative age (see ``docs/caching.md``).  Expired files stay on
        disk until ``repro-sram cache compact`` reaps them.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 ttl: Optional[float] = None):
        super().__init__()
        if ttl is not None and ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.cache = ResultCache(cache_dir=cache_dir)
        self.ttl = None if ttl is None else float(ttl)

    def get(self, namespace: str, payload: Dict[str, Any]) -> Optional[Any]:
        start = time.perf_counter()
        value = self.cache.get(namespace, payload, ttl=self.ttl)
        if value is None and self.ttl is not None:
            try:
                # Clamp like ResultCache.get: a backward wall-clock step
                # must read as age 0, not a negative age.
                age = max(0.0, time.time() - os.path.getmtime(
                    self.cache.path(namespace, payload)
                ))
                if age >= self.ttl:
                    self.tier.expirations += 1
            except OSError:
                pass  # plain absence, not an expiry
        self.tier.record_get(value, time.perf_counter() - start)
        return value

    def put(self, namespace: str, payload: Dict[str, Any], value: Any) -> None:
        start = time.perf_counter()
        try:
            self.cache.put(namespace, payload, value)
        except OSError:
            # A full disk or revoked mount degrades the cache, never the
            # run: the value still travels inline over the wire.
            self.tier.errors += 1
        self.tier.record_put(value, time.perf_counter() - start)

    def describe(self) -> str:
        return f"directory:{self.cache.cache_dir}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectoryStore({self.cache.cache_dir!r})"
