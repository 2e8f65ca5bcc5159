"""Tests of the importance-sampled rare-failure estimator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram import FailureType, MonteCarloAnalyzer
from repro.sram.importance_sampling import ImportanceSampler
from repro.sram.read_path import nominal_read_cycle


@pytest.fixture(scope="module")
def sampler(cell6):
    return ImportanceSampler(cell6)


class TestEstimates:
    def test_matches_plain_mc_where_resolvable(self, cell6, sampler):
        """At 0.65 V the read-access failure probability is ~3e-2 —
        resolvable by plain MC — so the two estimators must agree."""
        mc = MonteCarloAnalyzer(
            cell=cell6, n_samples=20000,
            read_cycle=nominal_read_cycle(cell6), seed=1,
        ).analyze(0.65)
        is_est = sampler.estimate(0.65, FailureType.READ_ACCESS,
                                  n_samples=8000, seed=2)
        assert is_est.probability == pytest.approx(mc.p_read_access, rel=0.35)

    def test_resolves_deep_tail(self, sampler):
        """At 0.75 V plain MC sees zero failures; the IS estimate must be
        tiny but positive with a controlled relative error."""
        result = sampler.estimate(0.75, FailureType.READ_ACCESS,
                                  n_samples=8000, seed=3)
        assert 0.0 < result.probability < 1e-6
        assert result.relative_error < 0.5

    def test_probability_monotone_in_vdd(self, sampler):
        ps = [
            sampler.estimate(v, FailureType.READ_ACCESS, n_samples=4000,
                             seed=4).probability
            for v in (0.65, 0.70, 0.75)
        ]
        assert ps[0] > ps[1] > ps[2]

    def test_write_failures_negligible_at_nominal(self, sampler):
        """The nominal-voltage write-failure corner sits ~8 sigma out."""
        result = sampler.estimate(0.95, FailureType.WRITE, n_samples=2000,
                                  seed=5)
        assert result.probability < 1e-9

    def test_unreachable_region_within_cap_reports_zero(self, sampler):
        """With the shift capped at 3 sigma the nominal write corner is
        unreachable and the estimator reports an exact zero."""
        result = sampler.estimate(0.95, FailureType.WRITE, n_samples=500,
                                  seed=5, max_shift_sigma=3.0)
        assert result.probability == 0.0

    def test_shift_points_toward_failure(self, sampler):
        result = sampler.estimate(0.65, FailureType.READ_ACCESS,
                                  n_samples=1000, seed=6)
        # The shift must be a genuine displacement of a few sigma.
        norm = float(np.linalg.norm(result.shift_sigmas))
        assert 0.5 < norm < 12.0

    def test_summary_format(self, sampler):
        result = sampler.estimate(0.70, FailureType.READ_ACCESS,
                                  n_samples=1000, seed=7)
        assert "read_access" in result.summary()


class TestSweep:
    VDDS = (0.65, 0.70, 0.75)

    def test_sweep_matches_per_point_estimates(self, sampler):
        from repro.rng import derive_seed

        sweep = sampler.estimate_sweep(
            self.VDDS, FailureType.READ_ACCESS, n_samples=1000, seed=8
        )
        for vdd, result in zip(self.VDDS, sweep):
            expected = sampler.estimate(
                vdd, FailureType.READ_ACCESS, n_samples=1000,
                seed=derive_seed(8, int(round(vdd * 1e6))),
            )
            assert result.probability == expected.probability
            assert result.relative_error == expected.relative_error

    def test_parallel_sweep_is_bit_identical(self, sampler):
        serial = sampler.estimate_sweep(
            self.VDDS, FailureType.READ_ACCESS, n_samples=1000, seed=8, jobs=1
        )
        parallel = sampler.estimate_sweep(
            self.VDDS, FailureType.READ_ACCESS, n_samples=1000, seed=8, jobs=2
        )
        for a, b in zip(serial, parallel):
            assert a.probability == b.probability
            assert np.array_equal(a.shift_sigmas, b.shift_sigmas)

    def test_warm_cache_skips_sampling(self, sampler, tmp_path, monkeypatch):
        from repro.runtime import ResultCache

        cache = ResultCache(cache_dir=str(tmp_path))
        cold = sampler.estimate_sweep(
            self.VDDS, FailureType.READ_ACCESS, n_samples=1000, seed=8,
            cache=cache,
        )

        def boom(*args, **kwargs):
            raise AssertionError("sampling ran despite a warm cache")

        monkeypatch.setattr(ImportanceSampler, "_descent_direction", boom)
        warm = sampler.estimate_sweep(
            self.VDDS, FailureType.READ_ACCESS, n_samples=1000, seed=8,
            cache=cache,
        )
        assert [r.probability for r in warm] == [r.probability for r in cold]
        assert cache.hits == len(self.VDDS)

    def test_sweep_that_dies_keeps_completed_points(self, sampler, tmp_path, monkeypatch):
        """A sweep interrupted at point k has already stored points < k,
        and a rerun computes only the rest."""
        from repro.runtime import ResultCache

        cache = ResultCache(cache_dir=str(tmp_path))
        original = ImportanceSampler.estimate

        def dying(self, vdd, *args, **kwargs):
            if vdd == TestSweep.VDDS[2]:
                raise KeyboardInterrupt("simulated mid-sweep interruption")
            return original(self, vdd, *args, **kwargs)

        monkeypatch.setattr(ImportanceSampler, "estimate", dying)
        with pytest.raises(KeyboardInterrupt):
            sampler.estimate_sweep(self.VDDS, n_samples=200, seed=8, cache=cache)
        assert cache.stats().by_namespace.get("is", 0) == 2

        monkeypatch.undo()
        resumed = ResultCache(cache_dir=str(tmp_path))
        results = sampler.estimate_sweep(self.VDDS, n_samples=200, seed=8, cache=resumed)
        assert resumed.hits == 2 and resumed.misses == 1
        fresh = sampler.estimate_sweep(self.VDDS, n_samples=200, seed=8)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in fresh]

    def test_empty_sweep(self, sampler):
        class NoFleet:
            def dispatch(self, *args, **kwargs):
                raise AssertionError("an empty sweep dispatched jobs")

        assert sampler.estimate_sweep([]) == []
        assert sampler.estimate_sweep([], dispatcher=NoFleet()) == []


class TestValidation:
    def test_rejects_tiny_sample_count(self, sampler):
        with pytest.raises(ConfigurationError):
            sampler.estimate(0.7, n_samples=10)

    def test_rejects_missing_mechanism(self, cell8):
        sampler8 = ImportanceSampler(cell8)
        with pytest.raises(ConfigurationError):
            sampler8.estimate(0.7, FailureType.READ_DISTURB, n_samples=500)
