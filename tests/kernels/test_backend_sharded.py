"""Backend round-trips through the sharded Monte-Carlo path.

Shard tallies are content-addressed by the population definition, and
canonical (bit-identical) backends deliberately contribute nothing to
that address: a fused run must *reuse* the shards a reference run
cached, and vice versa — across local runs, ``--jobs`` pools and
distributed fleets alike.  A backend with intentionally different
numerics (nonzero ``rev``) must instead get its own cache identity.
"""

import os
from dataclasses import replace

import pytest

import repro.distributed.jobs as jobs_module
from repro.devices import ptm22
from repro.kernels import (
    ENV_VAR,
    FusedKernel,
    MarginKernel,
    ReferenceKernel,
    payload_fields,
    register_backend,
)
from repro.runtime import ResultCache
from repro.sram.bitcell import make_cell
from repro.sram.failures import FailureType
from repro.sram.importance_sampling import ImportanceSampler
from repro.sram.montecarlo import MonteCarloAnalyzer


@pytest.fixture
def analyzer():
    return MonteCarloAnalyzer(
        cell=make_cell("6t", ptm22()), n_samples=512, block_samples=128, seed=7
    )


def _counting_tally(monkeypatch):
    calls = []
    original = jobs_module.tally_shard

    def counting(analyzer, vdd, shard):
        calls.append(shard.index)
        return original(analyzer, vdd, shard)

    monkeypatch.setattr(jobs_module, "tally_shard", counting)
    return calls


def test_shard_bit_identity_is_backend_independent(analyzer, tmp_path, monkeypatch):
    cache = ResultCache(cache_dir=str(tmp_path))
    calls = _counting_tally(monkeypatch)

    reference = replace(analyzer, backend="reference")
    rates_ref = reference.analyze_sharded(0.7, shards=4, cache=cache)
    computed_by_reference = len(calls)
    assert computed_by_reference == 4

    fused = replace(analyzer, backend="fused")
    rates_fused = fused.analyze_sharded(0.7, shards=4, cache=cache)
    # Identical cache addresses: the fused run computes nothing.
    assert len(calls) == computed_by_reference
    assert rates_fused.to_dict() == rates_ref.to_dict()

    # And cold (separate store), the fused shards still merge to the
    # same bits — the sharded/monolithic guarantee is backend-free.
    cold = ResultCache(cache_dir=str(tmp_path / "cold"))
    rates_cold = fused.analyze_sharded(0.7, shards=4, cache=cold)
    assert rates_cold.to_dict() == rates_ref.to_dict()
    assert rates_ref.to_dict() == replace(analyzer, backend=None).analyze(0.7).to_dict()


def test_sample_margins_backend_independent(analyzer):
    import numpy as np

    ref = replace(analyzer, backend="reference").sample_margins(0.65)
    fused = replace(analyzer, backend="fused").sample_margins(0.65)
    assert np.array_equal(ref.read_access, fused.read_access)
    assert np.array_equal(ref.write, fused.write)
    assert np.array_equal(ref.read_disturb, fused.read_disturb)


def test_cache_payload_is_stable_across_canonical_backends(analyzer):
    resolved = analyzer.resolved()
    payloads = [
        replace(resolved, backend=name).cache_payload(0.7)
        for name in (None, "reference", "fused")
    ]
    assert payloads[0] == payloads[1] == payloads[2]
    assert "margin_kernel" not in payloads[0]


def test_noncanonical_backend_gets_its_own_cache_identity(analyzer):
    import repro.kernels.base as base

    class DifferentNumerics(MarginKernel):
        name = "test-nonexact"
        rev = 9

        def margins(self, cell, vdd, dvt, bitline, read_cycle):
            raise NotImplementedError

    register_backend(DifferentNumerics())
    try:
        assert payload_fields("test-nonexact") == {
            "margin_kernel": {"backend": "test-nonexact", "rev": 9}
        }
        resolved = analyzer.resolved()
        tagged = replace(resolved, backend="test-nonexact").cache_payload(0.7)
        plain = resolved.cache_payload(0.7)
        assert tagged != plain
        assert tagged["margin_kernel"] == {"backend": "test-nonexact", "rev": 9}

        # The distributed spec round-trips the tagged identity.
        from repro.distributed.jobs import analyzer_from_spec

        rebuilt = analyzer_from_spec(tagged)
        assert rebuilt.backend == "test-nonexact"
        assert rebuilt.cache_payload(0.7) == tagged
    finally:
        base._REGISTRY.pop("test-nonexact", None)


# ----------------------------------------------------------------------
# A pinned backend is the one that runs, in-process and in spawned workers
# ----------------------------------------------------------------------
def _count_kernel_calls(monkeypatch):
    """Count ``margins`` calls per shipped kernel class (this process only)."""
    calls = {"reference": 0, "fused": 0}
    for name, kernel_class in (("reference", ReferenceKernel), ("fused", FusedKernel)):
        original = kernel_class.margins

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(kernel_class, "margins", counting)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda a: a.analyze_sharded(0.7, shards=4),
        lambda a: a.analyze_sweep([0.65, 0.7]),
        lambda a: a.analyze_sweep([0.65, 0.7], shards=4),
    ],
    ids=["analyze_sharded", "analyze_sweep", "analyze_sweep-shards4"],
)
def test_pinned_reference_backend_runs_in_process(analyzer, monkeypatch, run):
    calls = _count_kernel_calls(monkeypatch)
    run(replace(analyzer, backend="reference"))
    assert calls["reference"] > 0
    assert calls["fused"] == 0


@pytest.fixture
def cell6_sampler():
    return ImportanceSampler(make_cell("6t", ptm22()), backend="reference")


def test_pinned_reference_backend_runs_importance_sampling(cell6_sampler, monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    cell6_sampler.estimate_sweep(
        [0.65, 0.7], failure_type=FailureType.WRITE, n_samples=200, seed=3
    )
    assert calls["reference"] > 0
    assert calls["fused"] == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda a: a.analyze_sharded(0.7, shards=4, jobs=2),
        lambda a: a.analyze_sweep([0.65, 0.7], jobs=2),
    ],
    ids=["analyze_sharded", "analyze_sweep"],
)
def test_pinned_backend_name_reaches_spawned_workers(analyzer, monkeypatch, run):
    # Spawned workers inherit this environment: a job that did not carry
    # the pinned name would fall back to REPRO_BACKEND and fail on it.
    expected = run(analyzer)
    monkeypatch.setenv(ENV_VAR, "no-such-backend")
    assert run(replace(analyzer, backend="reference")) == expected


class _LoggingReference(ReferenceKernel):
    """The reference kernel, logging the pid of every ``margins`` call."""

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def margins(self, cell, vdd, dvt, bitline, read_cycle):
        with open(self.log_path, "a") as log:
            log.write(f"{os.getpid()}\n")
        return super().margins(cell, vdd, dvt, bitline, read_cycle)


def test_pinned_backend_instance_reaches_spawned_workers(analyzer, tmp_path):
    log_path = tmp_path / "calls.log"
    pinned = replace(analyzer, backend=_LoggingReference(log_path))
    rates = pinned.analyze_sweep([0.65, 0.7], jobs=2)
    assert rates == analyzer.analyze_sweep([0.65, 0.7])
    pids = log_path.read_text().split()
    # Two points of four 128-sample blocks, all evaluated by the pinned
    # instance, in the pool's workers rather than in this process.
    assert len(pids) == 8
    assert str(os.getpid()) not in pids
