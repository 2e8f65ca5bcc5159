"""Order-preserving parallel map over independent sweep points.

The executor's contract is *bit-identical determinism*: given a function
whose output depends only on its argument (all the library's sweep
workers derive their RNG stream from the point itself, never from
shared state), ``SweepExecutor.map`` returns exactly the same list for
any worker count, including the serial fast path.  Parallelism can
therefore be turned on and off freely — CI runs ``--jobs 1``, a laptop
``--jobs 4`` — without perturbing a single published number.

Workers use the ``spawn`` start method: it is the only method available
on every supported platform, and it guarantees children never inherit a
forked copy of the parent's (possibly already-consumed) RNG state or
open file handles to the result cache.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when a caller passes ``jobs=None``.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to 1 (serial — the safe default for tests and small sweeps);
    ``0`` or any negative value means "all available cores".
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> List[R]:
    """Worker entry point: apply ``fn`` to one chunk of sweep points."""
    return [fn(item) for item in chunk]


def _partition(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-equal
    chunks (order preserved, no empty chunks)."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


class SweepExecutor:
    """Fan independent sweep points across a ``spawn`` worker pool.

    Parameters
    ----------
    jobs:
        Worker count; see :func:`resolve_jobs` for ``None``/``0``
        semantics.  ``jobs=1`` runs serially in-process (no pool, no
        pickling) and is the reference behaviour every parallel run must
        reproduce bit-for-bit.
    chunks_per_worker:
        How many chunks each worker receives on average.  Values above 1
        trade a little extra pickling for better load balancing when
        point costs are uneven (e.g. low-VDD Monte-Carlo points resolve
        more failures and run marginally longer).
    """

    def __init__(self, jobs: Optional[int] = None, chunks_per_worker: int = 1):
        if chunks_per_worker < 1:
            raise ValueError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        self.jobs = resolve_jobs(jobs)
        self.chunks_per_worker = int(chunks_per_worker)

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving input order.

        ``fn`` must be picklable (a module-level function or a
        :func:`functools.partial` of one) and must derive any randomness
        from its argument alone; under those conditions the result is
        independent of worker count and completion order.
        """
        points = list(items)
        if self.jobs == 1 or len(points) <= 1:
            return [fn(item) for item in points]

        chunks = _partition(points, self.jobs * self.chunks_per_worker)
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)), mp_context=ctx
        ) as pool:
            futures: List[Future] = [
                pool.submit(_run_chunk, fn, chunk) for chunk in chunks
            ]
            # Collect in submission order: completion order is irrelevant
            # to the output, which is what makes the run reproducible.
            results: List[R] = []
            for future in futures:
                results.extend(future.result())
        return results

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepExecutor(jobs={self.jobs})"
