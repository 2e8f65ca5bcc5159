"""Tests of the benchmark specs, model training/caching and the simulator."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import (
    CircuitToSystemSimulator,
    fast_ann_spec,
    paper_ann_spec,
    resolve_profile,
    train_benchmark_ann,
)
from repro.errors import ConfigurationError
from repro.mem.accounting import BASELINE_VDD_6T
from repro.nn.datasets import generate_digit_images, load_synthetic_digits, loader


class TestSpecs:
    def test_paper_spec_matches_table1(self):
        spec = paper_ann_spec()
        assert spec.layer_sizes == (784, 1000, 500, 200, 100, 10)
        assert spec.n_layers == 6
        assert spec.n_neurons == 2594
        assert spec.n_synapses == 1_406_810

    def test_fast_spec_same_shape(self):
        fast = fast_ann_spec()
        paper = paper_ann_spec()
        assert fast.n_layers == paper.n_layers
        assert fast.layer_sizes[0] == 784
        assert fast.layer_sizes[-1] == 10
        # Monotone taper like the paper network.
        hidden = fast.layer_sizes[1:-1]
        assert all(a > b for a, b in zip(hidden, hidden[1:]))

    def test_resolve_profile(self, monkeypatch):
        assert resolve_profile("paper").layer_sizes[1] == 1000
        monkeypatch.setenv("REPRO_PROFILE", "fast")
        assert resolve_profile().layer_sizes[1] == 300
        with pytest.raises(ConfigurationError):
            resolve_profile("huge")


class TestTrainedModel:
    def test_accuracy_is_high(self, model):
        assert model.float_accuracy > 0.95
        assert model.quantized_accuracy > 0.95

    def test_8bit_quantization_loss_below_paper_bound(self, model):
        """Paper Sec. VI: 8-bit precision loses <0.5% vs full precision."""
        assert abs(model.quantization_loss) < 0.005

    def test_weights_are_sub_unity(self, model):
        """The Q0.7 word layout requires |w| < 1 (projected SGD clip)."""
        assert model.image.fmt.frac_bits == 7
        for w in model.network.weight_matrices():
            assert abs(w).max() <= 1.0

    def test_layer_synapse_counts_sum(self, model):
        assert sum(model.layer_synapse_counts) == model.spec.n_synapses

    def test_cache_roundtrip(self, tmp_path):
        kwargs = dict(profile="fast", seed=3, n_train=300, n_val=100,
                      n_test=100, epochs=1, cache_dir=str(tmp_path))
        first = train_benchmark_ann(**kwargs)
        again = train_benchmark_ann(**kwargs)
        assert first.quantized_accuracy == again.quantized_accuracy
        for a, b in zip(first.network.weight_matrices(),
                        again.network.weight_matrices()):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_warm_load_generates_only_the_test_split(self, tmp_path, monkeypatch, tables):
        sizes = dict(n_train=300, n_val=100, n_test=100, seed=3)
        kwargs = dict(profile="fast", epochs=1, cache_dir=str(tmp_path), **sizes)
        train_benchmark_ann(**kwargs)  # cold: trains and caches the weights
        calls = []

        def counting(n_samples, *args, **kw):
            calls.append(n_samples)
            return generate_digit_images(n_samples, *args, **kw)

        monkeypatch.setattr(loader, "generate_digit_images", counting)
        warm = train_benchmark_ann(**kwargs)
        assert calls == [100]

        # Shipping the model to workers keeps the other splits pending.
        clone = CircuitToSystemSimulator(warm, tables=tables, n_trials=1).worker_clone()
        pickle.loads(pickle.dumps(clone))
        pickle.loads(pickle.dumps(warm))
        assert calls == [100]
        pruned = clone.model.dataset
        for x, y in ((pruned.x_train, pruned.y_train), (pruned.x_val, pruned.y_val)):
            assert x.shape == (0, 784) and x.dtype == warm.dataset.x_test.dtype
            assert y.shape == (0,) and y.dtype == warm.dataset.y_test.dtype
        np.testing.assert_array_equal(pruned.x_test, warm.dataset.x_test)

        # Once read, the pending splits are those of a full load.
        full = load_synthetic_digits(**sizes)
        for field in dataclasses.fields(full):
            np.testing.assert_array_equal(
                getattr(warm.dataset, field.name), getattr(full, field.name)
            )


class TestSimulator:
    def test_rejects_bad_trials(self, model, tables):
        with pytest.raises(ConfigurationError):
            CircuitToSystemSimulator(model, tables=tables, n_trials=0)

    def test_baseline_memory_is_6t_at_0p75(self, sim):
        baseline = sim.baseline_memory()
        assert baseline.vdd == BASELINE_VDD_6T
        assert baseline.n_8t_cells == 0

    def test_memory_factories_bound_to_model(self, sim, model):
        mem = sim.config1_memory(0.65, msb_in_8t=3)
        assert mem.n_banks == model.image.n_layers
        assert mem.n_words == model.spec.n_synapses

    def test_evaluate_nominal_no_drop(self, sim):
        result = sim.evaluate(sim.base_memory(0.95), seed=1)
        assert result.accuracy_drop == pytest.approx(0.0, abs=0.002)

    def test_compare_defaults_to_iso_stability_baseline(self, sim):
        report = sim.compare(sim.config1_memory(0.65, 3))
        assert report.baseline_vdd == BASELINE_VDD_6T
