"""Tests of the Monte-Carlo failure analysis (paper Fig. 5 behaviour)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram import FailureType, MonteCarloAnalyzer, failure_rates_vs_vdd
from repro.sram.failures import compute_failure_margins, margin_statistics
from repro.sram.montecarlo import MarginTally, MechanismTally, rates_from_tally
from repro.sram.read_path import nominal_read_cycle


@pytest.fixture(scope="module")
def mc6(cell6):
    return MonteCarloAnalyzer(cell=cell6, n_samples=4000, seed=123)


@pytest.fixture(scope="module")
def mc8(cell6, cell8):
    # 8T judged against the 6T timing budget ("equal read access times").
    return MonteCarloAnalyzer(
        cell=cell8, n_samples=4000, seed=124,
        read_cycle=nominal_read_cycle(cell6),
    )


class TestMargins:
    def test_margin_shapes(self, cell6):
        dvt = cell6.variation_model().sample(256, seed=9)
        margins = compute_failure_margins(cell6, 0.8, dvt)
        assert margins.read_access.shape == (256,)
        assert margins.write.shape == (256,)
        assert margins.read_disturb.shape == (256,)

    def test_8t_has_no_disturb_margin(self, cell8):
        dvt = cell8.variation_model().sample(64, seed=9)
        margins = compute_failure_margins(cell8, 0.8, dvt)
        assert margins.read_disturb is None
        assert not margins.fail_mask(FailureType.READ_DISTURB).any()

    def test_nominal_margins_all_positive(self, cell6):
        dvt = np.zeros((1, 6))
        margins = compute_failure_margins(cell6, 0.95, dvt)
        assert margins.read_access[0] > 0
        assert margins.write[0] > 0
        assert margins.read_disturb[0] > 0

    def test_margin_statistics_keys(self, cell6):
        dvt = cell6.variation_model().sample(128, seed=2)
        stats = margin_statistics(compute_failure_margins(cell6, 0.8, dvt))
        assert set(stats) == {"read_access", "write", "read_disturb"}
        for entry in stats.values():
            assert entry["std"] >= 0


class TestAnalyzer:
    def test_rejects_tiny_sample_count(self, cell6):
        with pytest.raises(ConfigurationError):
            MonteCarloAnalyzer(cell=cell6, n_samples=10)

    def test_rejects_nonpositive_vdd(self, mc6):
        with pytest.raises(ConfigurationError):
            mc6.analyze(0.0)

    def test_deterministic_given_seed(self, cell6):
        a = MonteCarloAnalyzer(cell=cell6, n_samples=2000, seed=7).analyze(0.7)
        b = MonteCarloAnalyzer(cell=cell6, n_samples=2000, seed=7).analyze(0.7)
        assert a.estimate == b.estimate

    def test_probabilities_are_probabilities(self, mc6):
        rates = mc6.analyze(0.7)
        for p in list(rates.estimate.values()) + [rates.p_cell]:
            assert 0.0 <= p <= 1.0

    def test_negligible_failures_at_nominal(self, mc6):
        rates = mc6.analyze(0.95)
        assert rates.p_cell < 1e-6


class TestPaperFig5Shape:
    """Qualitative assertions lifted from the paper's failure analysis."""

    def test_read_access_failures_grow_as_vdd_falls(self, mc6):
        sweep = [mc6.analyze(v).p_read_access for v in (0.85, 0.75, 0.65)]
        assert sweep[0] < sweep[1] < sweep[2]

    def test_read_access_dominates_write_at_scaled_vdd(self, mc6):
        """Fig. 5: read access failures dominate write failures in 6T."""
        rates = mc6.analyze(0.65)
        assert rates.p_read_access > 10 * rates.p_write

    def test_read_disturb_negligible(self, mc6):
        """Sec. V: disturb failures small enough to be neglected."""
        rates = mc6.analyze(0.65)
        assert rates.p_read_disturb < 1e-6

    def test_6t_fails_substantially_at_0p65(self, mc6):
        assert mc6.analyze(0.65).p_cell > 1e-2

    def test_8t_negligible_across_paper_range(self, mc8):
        """Sec. V: 8T virtually unaffected in the voltage range of interest."""
        for v in (0.65, 0.75, 0.85, 0.95):
            assert mc8.analyze(v).p_cell < 1e-4

    def test_sweep_helper_matches_analyzer(self, cell6):
        rates = failure_rates_vs_vdd(cell6, [0.7, 0.8], n_samples=2000, seed=5)
        assert [r.vdd for r in rates] == [0.7, 0.8]
        assert rates[0].p_cell >= rates[1].p_cell


class TestGaussianTail:
    """The tail uses ``scipy.special.ndtr``; results must stay those of
    the former ``scipy.stats.norm.cdf`` call, bit for bit."""

    RATIOS = np.concatenate([np.linspace(-40.0, 40.0, 321),
                             [-38.7, -38.4, -37.5, -8.3, 1e-9, 37.5, 38.4]])

    @staticmethod
    def _tally(ratio, n=1000):
        # One block of n finite margins with mean -ratio and unit spread,
        # so the fitted tail is P(N(0, 1) < ratio) up to rounding.
        mu = -float(ratio)
        mech = MechanismTally(
            fails=(0,), finite=(n,), inf_fails=(0,), totals=(n * mu,),
            totals_sq=((n - 1) + n * mu * mu,), mins=(mu - 3.0,),
        )
        return MarginTally(
            block_samples=n, block_index=(0,), block_n=(n,), union_fails=(0,),
            mechanisms={ftype.value: mech for ftype in FailureType},
        )

    @staticmethod
    def _former_tail(mech, n):
        """The tail as computed before the switch, with ``norm.cdf``."""
        from scipy.stats import norm

        finite = mech.finite_count
        mu = mech.total() / finite
        var = (mech.total_sq() - finite * mu * mu) / (finite - 1)
        sigma = math.sqrt(max(var, 0.0))
        tail = float(norm.cdf(-mu / sigma))
        return min(1.0, tail * finite / n + float(mech.inf_fail_count) / n)

    def test_ndtr_matches_norm_cdf(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        x = np.linspace(-40.0, 40.0, 200_001)
        assert np.array_equal(ndtr(x), norm.cdf(x))

    def test_rates_match_former_norm_cdf_tail(self):
        current, former = [], []
        for ratio in self.RATIOS:
            tally = self._tally(ratio)
            rates = rates_from_tally(0.7, tally)
            for name, mech in tally.mechanisms.items():
                current.append(rates.gaussian[name].hex())
                former.append(self._former_tail(mech, tally.n_samples).hex())
        assert current == former
        # The grid reaches both saturated ends and the subnormal tail.
        assert "0x0.0p+0" in current and "0x1.0000000000000p+0" in current
        assert any(0.0 < float.fromhex(v) < 1e-300 for v in current)
