"""Deterministic block/shard decomposition of a Monte-Carlo population.

A Monte-Carlo population is often too large for one process (paper-scale
64k-cell arrays, larger-than-memory sample counts) and too expensive to
recompute when only part of it changed.  This module splits a population
into *shards*; each shard becomes one ``margin_tally`` job
(:func:`repro.distributed.jobs.margin_tally_jobs`) that runs on the local
worker pool or a fleet and is cached under its own store address — while
keeping the library's headline guarantee: the merged result is
**bit-identical for every shard count**, including the single-shard
(monolithic) run.

The guarantee rests on two design rules:

1. **Block-granular streams.**  The population is defined as a sequence
   of fixed-size *blocks* (:data:`DEFAULT_BLOCK_SAMPLES` samples each;
   the final block may be partial).  Block ``j`` draws its samples from
   a child seed derived only from ``(base seed, j)`` — never from the
   shard layout — so the set of sampled values is a property of the
   population, not of how it was partitioned.  A shard is a contiguous
   run of whole blocks; any shard count therefore sees exactly the same
   blocks, just grouped differently.

2. **Exact merging.**  Shard workers return *tallies* — integer failure
   counts (binomial tallies, merged by exact integer addition) plus
   per-block floating-point moment sums.  The reducer combines the
   per-block float sums with :func:`math.fsum`, which is correctly
   rounded for a given multiset of inputs, so the merged moments do not
   depend on how blocks were grouped into shards either.

Anything reduced this way (see
:class:`repro.sram.montecarlo.MarginTally`) is associative by
construction, which is what makes the sharded run safe to distribute
across processes — and, because each shard addresses its own cache
entry, safe to resume after interruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import derive_seed

__all__ = [
    "DEFAULT_BLOCK_SAMPLES",
    "Shard",
    "ShardPlan",
]

#: Samples per block — the granularity of shard boundaries and the unit
#: of peak working memory on the streaming path.  Part of the statistical
#: definition of a population: changing it changes which child seed each
#: sample comes from, so it is folded into every cache payload.  The
#: default is deliberately *above* the library's standard 20k-sample
#: characterizations: those stay single-block, and a single-block
#: population draws from the base seed itself (see :meth:`ShardPlan.block_seed`),
#: reproducing the pre-sharding monolithic streams bit-for-bit.  Sharded
#: paper-scale runs choose a smaller ``block_samples`` explicitly.
DEFAULT_BLOCK_SAMPLES = 32768

#: Seed-derivation tag that keeps block streams disjoint from every other
#: ``derive_seed`` use in the library (voltage points, fault trials, …).
_BLOCK_STREAM_TAG = 0x5A4D


@dataclass(frozen=True)
class Shard:
    """A contiguous run of whole blocks of one Monte-Carlo population.

    ``blocks`` holds ``(global block index, samples in block)`` pairs;
    the pairs are what a worker needs to regenerate the shard's sample
    streams without seeing the rest of the plan.
    """

    index: int
    blocks: Tuple[Tuple[int, int], ...]

    @property
    def start_block(self) -> int:
        return self.blocks[0][0]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_samples(self) -> int:
        return sum(n for _, n in self.blocks)

    def descriptor(self) -> Dict[str, int]:
        """The part of a cache key that identifies this shard's streams.

        Deliberately independent of the plan's shard *count*: two plans
        that happen to cut the same block range into a shard share the
        cache entry.
        """
        return {
            "start_block": self.start_block,
            "n_blocks": self.n_blocks,
            "n_samples": self.n_samples,
        }

    @classmethod
    def from_descriptor(
        cls,
        descriptor: Dict[str, Any],
        block_samples: int,
        index: int = 0,
    ) -> "Shard":
        """Rebuild a shard from its :meth:`descriptor` and block geometry.

        This is the wire-format inverse used by the distributed
        dispatcher: a descriptor plus ``block_samples`` fully determines
        the shard's block list, because within one shard only the final
        block may be partial (shards are contiguous block runs, and the
        only partial block of a population is its last).  ``index`` is
        presentation metadata (merge ordering); it never enters cache
        keys, matching :meth:`descriptor`'s omission of it.

        Raises :class:`~repro.errors.ConfigurationError` on a descriptor
        that no shard of a ``block_samples``-block population could have
        produced.
        """
        if block_samples < 1:
            raise ConfigurationError(
                f"block_samples must be positive, got {block_samples}"
            )
        values: Dict[str, int] = {}
        for name in ("start_block", "n_blocks", "n_samples"):
            value = descriptor.get(name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"shard descriptor field {name!r} must be an integer, "
                    f"got {value!r}"
                )
            values[name] = value
        start_block, n_blocks, n_samples = (
            values["start_block"], values["n_blocks"], values["n_samples"]
        )
        if start_block < 0:
            raise ConfigurationError(
                f"shard start_block must be >= 0, got {start_block}"
            )
        if n_blocks < 1:
            raise ConfigurationError(f"shard n_blocks must be >= 1, got {n_blocks}")
        last = n_samples - (n_blocks - 1) * block_samples
        if not 1 <= last <= block_samples:
            raise ConfigurationError(
                f"shard descriptor is inconsistent: {n_samples} samples do "
                f"not fill {n_blocks} block(s) of {block_samples}"
            )
        blocks = tuple(
            (start_block + i, block_samples if i < n_blocks - 1 else last)
            for i in range(n_blocks)
        )
        return cls(index=int(index), blocks=blocks)


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic decomposition of ``n_samples`` into block-aligned shards.

    Build one with :meth:`plan`, which resolves a requested shard count
    and an optional per-shard sample ceiling against the block
    structure.  For a fixed ``(n_samples, block_samples)`` the blocks —
    and therefore the sampled values — are identical for every shard
    count; only the grouping differs.
    """

    n_samples: int
    block_samples: int
    n_shards: int

    @classmethod
    def plan(
        cls,
        n_samples: int,
        block_samples: int = DEFAULT_BLOCK_SAMPLES,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
    ) -> "ShardPlan":
        """Resolve a shard layout for a population of ``n_samples``.

        Parameters
        ----------
        shards:
            Requested shard count (``None`` means 1).  Clamped to the
            number of blocks — shards are never empty.
        max_shard_samples:
            Upper bound on any shard's sample count; raises the shard
            count as needed.  Because shards are whole blocks, the
            effective bound is ``max(block_samples, max_shard_samples)``
            rounded down to a whole number of blocks.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
        if block_samples < 1:
            raise ConfigurationError(f"block_samples must be positive, got {block_samples}")
        n_blocks = math.ceil(n_samples / block_samples)
        requested = 1 if shards is None else int(shards)
        if requested < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if max_shard_samples is not None:
            if max_shard_samples < 1:
                raise ConfigurationError(
                    f"max_shard_samples must be positive, got {max_shard_samples}"
                )
            blocks_per_shard = max(1, max_shard_samples // block_samples)
            requested = max(requested, math.ceil(n_blocks / blocks_per_shard))
        return cls(
            n_samples=int(n_samples),
            block_samples=int(block_samples),
            n_shards=min(n_blocks, requested),
        )

    # ------------------------------------------------------------------
    # Block structure
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return math.ceil(self.n_samples / self.block_samples)

    def block_size(self, block_index: int) -> int:
        """Samples in block ``block_index`` (the final block may be partial)."""
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(f"block {block_index} out of range [0, {self.n_blocks})")
        start = block_index * self.block_samples
        return min(self.block_samples, self.n_samples - start)

    @staticmethod
    def block_seed(base_seed: int, block_index: int) -> int:
        """Child seed of one block, derived from the base seed alone.

        Shard layout never enters the derivation — that is what makes
        re-sharding a pure regrouping of identical sample streams.
        Block 0 *is* the base stream: a population that fits one block
        draws exactly the samples a pre-sharding monolithic run drew,
        so growing ``n_samples`` past a block boundary extends the
        population instead of reshuffling it.
        """
        if block_index == 0:
            return int(base_seed)
        return derive_seed(base_seed, _BLOCK_STREAM_TAG, block_index)

    # ------------------------------------------------------------------
    # Shard layout
    # ------------------------------------------------------------------
    def shards(self) -> Tuple[Shard, ...]:
        """The plan's shards: contiguous, near-equal runs of blocks."""
        base, extra = divmod(self.n_blocks, self.n_shards)
        out: List[Shard] = []
        start = 0
        for i in range(self.n_shards):
            count = base + (1 if i < extra else 0)
            blocks = tuple(
                (j, self.block_size(j)) for j in range(start, start + count)
            )
            out.append(Shard(index=i, blocks=blocks))
            start += count
        return tuple(out)

    def max_samples_per_shard(self) -> int:
        """Largest shard size of this plan — the working-set bound."""
        return max(s.n_samples for s in self.shards())
