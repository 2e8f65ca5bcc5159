"""End-to-end guarantees of the sweep runtime on the real Monte-Carlo
workload: parallel runs are bit-identical to serial ones, and a warm
cache serves sweeps without recomputing any Monte Carlo."""

import pytest

import repro.distributed.jobs as jobs_module
from repro.devices.variation import VariationModel
from repro.runtime import ResultCache
from repro.sram import characterize_cell, failure_rates_vs_vdd
from repro.sram.montecarlo import MonteCarloAnalyzer

VDDS = [0.65, 0.70, 0.80, 0.90]
N_SAMPLES = 400


@pytest.fixture(scope="module")
def serial_rates(cell6):
    return failure_rates_vs_vdd(cell6, VDDS, n_samples=N_SAMPLES, seed=11)


class TestParallelBitIdentity:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_worker_count_does_not_change_results(self, cell6, serial_rates, jobs):
        parallel = failure_rates_vs_vdd(
            cell6, VDDS, n_samples=N_SAMPLES, seed=11, jobs=jobs
        )
        assert parallel == serial_rates  # FailureRates compares exactly

    def test_analyze_sweep_matches_analyze(self, cell6):
        """The sweep's job list reproduces the monolithic in-process path."""
        analyzer = MonteCarloAnalyzer(cell=cell6, n_samples=N_SAMPLES, seed=11)
        assert analyzer.analyze_sweep(VDDS) == [analyzer.analyze(v) for v in VDDS]

    def test_sweep_order_does_not_change_point_results(self, cell6):
        forward = failure_rates_vs_vdd(cell6, VDDS, n_samples=N_SAMPLES, seed=11)
        backward = failure_rates_vs_vdd(
            cell6, VDDS[::-1], n_samples=N_SAMPLES, seed=11
        )
        assert forward == backward[::-1]


class TestSweepCaching:
    def test_cached_sweep_is_bit_identical(self, cell6, serial_rates, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cold = failure_rates_vs_vdd(
            cell6, VDDS, n_samples=N_SAMPLES, seed=11, cache=cache
        )
        warm = failure_rates_vs_vdd(
            cell6, VDDS, n_samples=N_SAMPLES, seed=11, cache=cache
        )
        assert cold == serial_rates
        assert warm == serial_rates
        assert cache.hits == len(VDDS)

    def test_warm_cache_skips_monte_carlo(self, cell6, tmp_path, monkeypatch):
        cache = ResultCache(cache_dir=str(tmp_path))
        failure_rates_vs_vdd(cell6, VDDS, n_samples=N_SAMPLES, seed=11, cache=cache)

        def boom(self, *args, **kwargs):
            raise AssertionError("Monte Carlo ran despite a warm cache")

        # Any recompute must draw ΔVT samples, whatever path it takes.
        monkeypatch.setattr(VariationModel, "sample", boom)
        warm = failure_rates_vs_vdd(
            cell6, VDDS, n_samples=N_SAMPLES, seed=11, cache=cache
        )
        assert [r.vdd for r in warm] == VDDS

    def test_version_bump_invalidates_sweep(self, cell6, tmp_path):
        d = str(tmp_path)
        failure_rates_vs_vdd(
            cell6, VDDS[:2], n_samples=N_SAMPLES, seed=11,
            cache=ResultCache(cache_dir=d, version=1),
        )
        bumped = ResultCache(cache_dir=d, version=2)
        failure_rates_vs_vdd(
            cell6, VDDS[:2], n_samples=N_SAMPLES, seed=11, cache=bumped
        )
        assert bumped.hits == 0
        assert bumped.misses == len(VDDS[:2])

    def test_different_seeds_do_not_collide(self, cell6, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        a = failure_rates_vs_vdd(
            cell6, VDDS[:1], n_samples=N_SAMPLES, seed=1, cache=cache
        )
        b = failure_rates_vs_vdd(
            cell6, VDDS[:1], n_samples=N_SAMPLES, seed=2, cache=cache
        )
        assert cache.hits == 0
        assert a != b


class TestCharacterizationCaching:
    def test_warm_characterization_skips_monte_carlo(
        self, tech, tmp_path, monkeypatch
    ):
        kwargs = dict(
            cell_kind="6t", technology=tech, vdd_grid=(0.70, 0.80),
            n_samples=N_SAMPLES, cache_dir=str(tmp_path),
        )
        cold = characterize_cell(**kwargs)

        def boom(self, *args, **kwargs):
            raise AssertionError("Monte Carlo ran despite a warm cache")

        monkeypatch.setattr(VariationModel, "sample", boom)
        warm = characterize_cell(**kwargs)
        assert warm == cold

    def test_point_cache_survives_grid_growth(self, tech, tmp_path, monkeypatch):
        cache_dir = str(tmp_path)
        characterize_cell(
            cell_kind="6t", technology=tech, vdd_grid=(0.70, 0.80),
            n_samples=N_SAMPLES, cache_dir=cache_dir,
        )
        calls = []
        original = jobs_module.tally_shard

        def counting(analyzer, vdd, shard):
            calls.append(float(vdd))
            return original(analyzer, vdd, shard)

        monkeypatch.setattr(jobs_module, "tally_shard", counting)
        grown = characterize_cell(
            cell_kind="6t", technology=tech, vdd_grid=(0.70, 0.80, 0.90),
            n_samples=N_SAMPLES, cache_dir=cache_dir,
        )
        # Only the new grid point pays for Monte Carlo.
        assert calls == [0.90]
        assert [p.vdd for p in grown.points] == [0.70, 0.80, 0.90]

    def test_no_cache_flag_recomputes(self, tech, tmp_path):
        kwargs = dict(
            cell_kind="6t", technology=tech, vdd_grid=(0.70,),
            n_samples=N_SAMPLES, cache_dir=str(tmp_path),
        )
        characterize_cell(**kwargs)
        table = characterize_cell(use_cache=False, **kwargs)
        assert [p.vdd for p in table.points] == [0.70]
        # use_cache=False must not have written anything new either.
        cache = ResultCache(cache_dir=str(tmp_path))
        stats = cache.stats()
        assert stats.by_namespace.get("cell", 0) == 1
        assert stats.by_namespace.get("cellpoint", 0) == 1

    def test_parallel_characterization_is_bit_identical(self, tech, tmp_path):
        kwargs = dict(
            cell_kind="6t", technology=tech, vdd_grid=(0.70, 0.80, 0.90),
            n_samples=N_SAMPLES, use_cache=False,
        )
        serial = characterize_cell(jobs=1, **kwargs)
        parallel = characterize_cell(jobs=2, **kwargs)
        assert serial == parallel
