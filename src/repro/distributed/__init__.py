"""Distributed shard dispatcher: multi-machine Monte-Carlo execution.

Every Monte-Carlo and importance-sampling sweep of the library is a
list of serializable :class:`~repro.distributed.jobs.ShardJob`
descriptors over the sharding layer (:mod:`repro.runtime.sharding`).
:func:`~repro.distributed.jobs.run_jobs` runs a list in one process
and its worker pool; a
:class:`~repro.distributed.dispatcher.ShardDispatcher` farms the same
list to a fleet of :class:`~repro.distributed.worker.Worker` processes
over the library's JSON-lines TCP protocol.  Both fold the results with
the same exact (grouping-independent) merge — so a distributed run is
**bit-identical** to a monolithic one for any worker count, any retry
history and any cache state.

The pieces:

* :mod:`~repro.distributed.store` — the shared
  :class:`~repro.distributed.store.CacheStore` (a
  :class:`~repro.distributed.store.DirectoryStore` over the
  content-addressed result cache) that makes recomputation idempotent
  and lets local and distributed runs resume from each other's work;
* :mod:`~repro.distributed.objectstore` — the remote tier: an
  :class:`~repro.distributed.objectstore.ObjectStore` speaking a
  minimal S3-style HTTP protocol, plus the in-process
  :class:`~repro.distributed.objectstore.FakeObjectStoreServer` the
  tests and the CI degradation drill run against (compose the tiers
  with :func:`~repro.runtime.tiering.make_tiered_store`;
  ``docs/caching.md`` has the map);
* :mod:`~repro.distributed.jobs` — wire-format shard jobs, the
  worker-side execution registry and the local runner
  :func:`~repro.distributed.jobs.run_jobs`.  Four kinds ship built in — the whole
  circuit → memory system → NN pipeline of the paper: ``margin_tally``
  (Monte-Carlo failure margins), ``is_shard`` (importance-sampled
  points), ``fault_block`` (batched fault trials) and ``nn_fault_eval``
  (NN accuracy under faults);
* :mod:`~repro.distributed.protocol` — the message vocabulary
  (register / ready / assign / result / heartbeat / stats);
* :mod:`~repro.distributed.dispatcher` /
  :mod:`~repro.distributed.worker` — the two processes, with
  heartbeat-based liveness, retry/reassignment of shards from dead
  workers, per-client priority queues with fair dequeue, speculative
  re-execution of stragglers (first bit-identical answer wins), and
  streaming merges;
* :mod:`~repro.distributed.dag` — cross-kind dependencies: a
  :class:`~repro.distributed.dag.DagRun` of named job/reduce nodes over
  one dispatcher, and :func:`~repro.distributed.dag.paper_pipeline_dag`
  (margin shards → rate tables → NN fault points as one DAG);
* :mod:`~repro.distributed.autoscale` — the
  :class:`~repro.distributed.autoscale.AutoscaleController` that polls
  the ``stats`` probe and reconciles a local worker-subprocess pool
  (spawn on backlog/latency, drain via ``--max-jobs``, crash restarts
  with backoff).

Deployment topology, failure semantics and the cache-store contract
are documented in ``docs/distributed.md``; the CLI front-ends are
``repro-sram dispatch``, ``repro-sram worker`` and ``repro-sram
autoscale``.
"""

from repro.distributed.autoscale import (
    AutoscaleController,
    AutoscalePolicy,
    ScaleEvent,
    desired_workers,
)
from repro.distributed.dag import (
    DagNode,
    DagRun,
    job_node,
    paper_pipeline_dag,
    reduce_node,
)
from repro.distributed.dispatcher import (
    DispatchError,
    DispatcherStats,
    ShardDispatcher,
)
from repro.distributed.journal import (
    JournalReplay,
    JournaledJob,
    RunJournal,
    job_address,
)
from repro.distributed.jobs import (
    ShardJob,
    analyzer_from_spec,
    benchmark_model_spec,
    concat_blocks,
    execute_job,
    fault_block_jobs,
    is_shard_jobs,
    margin_tally_jobs,
    model_from_spec,
    nn_fault_eval_jobs,
    register_job_kind,
    registered_job_kinds,
    run_jobs,
    sampler_from_spec,
    shard_payload,
)
from repro.distributed.objectstore import (
    FakeObjectStoreServer,
    ObjectStore,
    ObjectStoreError,
    serve_object_store,
)
from repro.distributed.protocol import PROTOCOL_VERSION, ProtocolError
from repro.distributed.store import CacheStore, DirectoryStore
from repro.distributed.worker import Worker, run_worker

__all__ = [
    "AutoscaleController",
    "AutoscalePolicy",
    "CacheStore",
    "DagNode",
    "DagRun",
    "DirectoryStore",
    "DispatchError",
    "DispatcherStats",
    "FakeObjectStoreServer",
    "JournalReplay",
    "JournaledJob",
    "ObjectStore",
    "ObjectStoreError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RunJournal",
    "ScaleEvent",
    "ShardDispatcher",
    "ShardJob",
    "Worker",
    "analyzer_from_spec",
    "benchmark_model_spec",
    "concat_blocks",
    "desired_workers",
    "execute_job",
    "fault_block_jobs",
    "is_shard_jobs",
    "job_address",
    "job_node",
    "margin_tally_jobs",
    "model_from_spec",
    "nn_fault_eval_jobs",
    "paper_pipeline_dag",
    "reduce_node",
    "register_job_kind",
    "registered_job_kinds",
    "run_jobs",
    "run_worker",
    "sampler_from_spec",
    "serve_object_store",
    "shard_payload",
]
