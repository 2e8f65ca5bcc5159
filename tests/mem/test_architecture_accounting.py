"""Tests of multi-bank architectures, config factories and accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.mem import (
    CellTables,
    SynapticMemoryArchitecture,
    base_architecture,
    compare_architectures,
    config1_architecture,
    config2_architecture,
)

SYNAPSES = [3000, 2000, 1000, 500, 100]


@pytest.fixture(scope="module")
def tables(tech):
    return CellTables.build(
        technology=tech,
        vdd_grid=(0.65, 0.75, 0.85, 0.95),
        n_samples=2000,
        use_cache=False,
    )


@pytest.fixture(scope="module")
def base75(tables):
    return base_architecture(SYNAPSES, tables, vdd=0.75)


class TestFactories:
    def test_base_has_no_8t(self, base75):
        assert base75.n_8t_cells == 0
        assert base75.n_words == sum(SYNAPSES)
        assert base75.msb_allocation == (0,) * 5

    def test_config1_uniform_allocation(self, tables):
        arch = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=3)
        assert arch.msb_allocation == (3,) * 5
        assert arch.n_8t_cells == 3 * sum(SYNAPSES)

    def test_config2_per_layer_allocation(self, tables):
        arch = config2_architecture(SYNAPSES, tables, vdd=0.65,
                                    msb_per_layer=[2, 3, 1, 1, 3])
        assert arch.msb_allocation == (2, 3, 1, 1, 3)
        assert "config2" in arch.name

    def test_mismatched_lengths_rejected(self, tables):
        with pytest.raises(ConfigurationError):
            config2_architecture(SYNAPSES, tables, vdd=0.65, msb_per_layer=[1, 2])

    def test_empty_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            SynapticMemoryArchitecture(name="x", banks=[], vdd=0.65)

    @pytest.mark.parametrize(
        "vdd", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, True]
    )
    def test_bad_vdd_rejected(self, base75, vdd):
        with pytest.raises(ConfigurationError, match="vdd"):
            SynapticMemoryArchitecture(name="x", banks=base75.banks, vdd=vdd)
        with pytest.raises(ConfigurationError, match="vdd"):
            base75.at_voltage(vdd)


class TestAggregates:
    def test_area_grows_with_protection(self, tables, base75):
        c1 = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=2)
        c2 = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=4)
        assert base75.area < c1.area < c2.area

    def test_access_power_positive(self, base75):
        assert base75.access_power > 0

    def test_at_voltage_preserves_banks(self, base75):
        lower = base75.at_voltage(0.65)
        assert lower.vdd == 0.65
        assert lower.banks is base75.banks
        assert lower.access_power < base75.access_power

    def test_describe_mentions_banks(self, base75):
        assert "bank0" in base75.describe()

    def test_fault_injector_layer_count(self, tables):
        arch = config2_architecture(SYNAPSES, tables, vdd=0.65,
                                    msb_per_layer=[2, 3, 1, 1, 3])
        injector = arch.fault_injector()
        assert injector.n_layers == 5
        # Central banks (1 MSB protected) see more exposed bits than bank1.
        assert (injector.layer_rates[2].p_total > 0).sum() > (
            injector.layer_rates[1].p_total > 0
        ).sum()


class TestComparison:
    def test_paper_area_arithmetic_config1(self, tables, base75):
        """(3,5) hybrid: 3/8 * 37% = 13.875% area overhead (Fig. 8(c))."""
        c1 = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=3)
        report = compare_architectures(c1, base75)
        assert report.area_overhead_pct == pytest.approx(13.875, abs=0.3)

    def test_hybrid_at_0p65_saves_access_power(self, tables, base75):
        c1 = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=3)
        report = compare_architectures(c1, base75)
        assert report.access_power_reduction_pct > 15.0
        assert report.leakage_power_reduction_pct > 5.0

    def test_config2_cheaper_area_than_config1_same_protection_top(self, tables, base75):
        """Sensitivity-driven allocation buys back area vs uniform n=3."""
        c1 = config1_architecture(SYNAPSES, tables, vdd=0.65, msb_in_8t=3)
        c2 = config2_architecture(SYNAPSES, tables, vdd=0.65,
                                  msb_per_layer=[2, 3, 1, 1, 3])
        r1 = compare_architectures(c1, base75)
        r2 = compare_architectures(c2, base75)
        assert r2.area_overhead_pct < r1.area_overhead_pct

    def test_same_architecture_zero_deltas(self, base75):
        report = compare_architectures(base75, base75)
        assert report.access_power_reduction_pct == pytest.approx(0.0)
        assert report.area_overhead_pct == pytest.approx(0.0)
        assert "access power" in report.summary()

    def test_iso_voltage_hybrid_costs_power(self, tables, base75):
        """At the *same* voltage the hybrid must cost more power (the
        saving comes only from the deeper voltage scaling it enables)."""
        c1_75 = config1_architecture(SYNAPSES, tables, vdd=0.75, msb_in_8t=3)
        report = compare_architectures(c1_75, base75)
        assert report.access_power_reduction_pct < 0.0
        assert report.leakage_power_reduction_pct < 0.0
