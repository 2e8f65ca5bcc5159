"""Tests of the parallel sweep executor."""

import operator
from functools import partial

import pytest

from repro.runtime import SweepExecutor, resolve_jobs
from repro.runtime.executor import _partition


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_means_all_cores(self):
        assert resolve_jobs(-1) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestPartition:
    def test_preserves_order_and_items(self):
        chunks = _partition(list(range(10)), 3)
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_near_equal_sizes(self):
        sizes = [len(c) for c in _partition(list(range(10)), 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_items(self):
        chunks = _partition([1, 2], 8)
        assert len(chunks) == 2
        assert all(chunks)

    def test_single_chunk(self):
        assert _partition([1, 2, 3], 1) == [[1, 2, 3]]


class TestSweepExecutorSerial:
    def test_map_preserves_order(self):
        out = SweepExecutor(jobs=1).map(partial(operator.mul, 3), range(6))
        assert out == [0, 3, 6, 9, 12, 15]

    def test_map_empty(self):
        assert SweepExecutor(jobs=1).map(abs, []) == []

    def test_rejects_bad_chunks_per_worker(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=1, chunks_per_worker=0)


class TestSweepExecutorParallel:
    """The pool path must reproduce the serial path exactly."""

    def test_parallel_matches_serial(self):
        fn = partial(operator.mul, 7)
        items = list(range(11))
        serial = SweepExecutor(jobs=1).map(fn, items)
        parallel = SweepExecutor(jobs=2).map(fn, items)
        assert parallel == serial

    def test_more_workers_than_items(self):
        fn = partial(operator.add, 1)
        assert SweepExecutor(jobs=8).map(fn, [1, 2]) == [2, 3]

    def test_load_balanced_chunking_matches(self):
        fn = partial(operator.mul, 2)
        items = list(range(9))
        balanced = SweepExecutor(jobs=2, chunks_per_worker=3).map(fn, items)
        assert balanced == [2 * x for x in items]
