"""Shared sweep runtime: parallel execution and result caching.

Every headline artifact of the paper (Fig. 5 failure-vs-VDD curves, the
Fig. 8 hybrid study, the Fig. 9 sensitivity ranking) is an
embarrassingly-parallel sweep over independent points.  This subpackage
provides the two pieces of infrastructure those sweeps share:

* :class:`~repro.runtime.executor.SweepExecutor` — fans sweep points
  across a ``spawn``-based process pool while guaranteeing results are
  bit-identical to a serial run regardless of worker count or
  completion order (every point carries its own derived seed).
* :class:`~repro.runtime.cache.ResultCache` — a content-addressed JSON
  store (key = SHA-256 of everything that affects the numbers, plus a
  schema version) with atomic writes, so concurrent sweeps can share a
  cache directory and a version bump invalidates stale results.
* :class:`~repro.runtime.sharding.ShardPlan` — deterministic
  block-granular sharding of one Monte-Carlo population; each shard is
  one job of :mod:`repro.distributed.jobs` with its own cache entry,
  and an exact (grouping independent) tally merge means paper-scale
  populations stream with bounded memory and re-sharding never changes
  a bit of the result.
* :class:`~repro.runtime.singleflight.SingleFlight` — keyed in-flight
  futures for async request coalescing: the cache deduplicates
  *completed* work, SingleFlight deduplicates work still in flight
  (the batch-serving front-end in :mod:`repro.serving` uses both).
* :class:`~repro.runtime.tiering.TieredStore` /
  :class:`~repro.runtime.tiering.MemoryLRUStore` — the tiered cache
  (memory LRU → directory → remote object store) with read-through
  promotion and fail-open write-behind, so fleets on different
  machines dedupe each other's warm configurations; see
  ``docs/caching.md``.

The SRAM characterization, the circuit-to-system studies, the CLI
(``--jobs`` / ``--no-cache`` / ``--shards`` on every subcommand) and the
benchmark harness are all built on these primitives.  The contracts
(determinism, cache-key versioning, atomicity) are documented in
``docs/runtime.md``.
"""

from repro.runtime.cache import (
    CACHE_VERSION,
    CacheStats,
    CompactionResult,
    ResultCache,
    content_key,
    default_cache_dir,
)
from repro.runtime.executor import SweepExecutor, resolve_jobs
from repro.runtime.sharding import (
    DEFAULT_BLOCK_SAMPLES,
    Shard,
    ShardPlan,
)
from repro.runtime.singleflight import SingleFlight
from repro.runtime.tiering import (
    CacheLike,
    CacheStore,
    MemoryLRUStore,
    TieredStore,
    TierStats,
    make_tiered_store,
)

__all__ = [
    "CACHE_VERSION",
    "CacheLike",
    "CacheStats",
    "CacheStore",
    "CompactionResult",
    "DEFAULT_BLOCK_SAMPLES",
    "MemoryLRUStore",
    "ResultCache",
    "Shard",
    "ShardPlan",
    "SingleFlight",
    "SweepExecutor",
    "TierStats",
    "TieredStore",
    "content_key",
    "default_cache_dir",
    "make_tiered_store",
    "resolve_jobs",
]
