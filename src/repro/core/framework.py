"""Benchmark ANN profiles and the end-to-end circuit-to-system simulator.

Paper Table I specifies the benchmark network only by totals — 6 layers,
2594 neurons, 1,406,810 synapses on MNIST.  The layer widths are uniquely
recoverable from the Table I totals: ``784-1000-500-200-100-10`` with biases
reproduces both totals exactly; that is :func:`paper_ann_spec`.

Because training the 1.4M-synapse network in pure numpy takes a while,
the default *fast* profile keeps the same depth and tapering shape at
roughly one fifth the width (``784-300-150-80-40-10``).  All accuracy
trends the paper relies on (MSB sensitivity, per-layer resilience
ordering) are depth/shape properties and survive the shrink; set
``REPRO_PROFILE=paper`` to run everything at paper scale.

:class:`CircuitToSystemSimulator` glues the layers of the repository
together exactly as the paper's Sec. V describes: bitcell Monte Carlo →
failure probabilities → memory configuration → bit-level fault injection
→ classification accuracy, plus the power/area accounting.
"""

from __future__ import annotations

import hashlib
import json
import os
import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.evaluate import (
    FaultEvaluation,
    FaultTrialSpec,
    evaluate_many_under_faults,
    evaluate_under_faults,
)
from repro.mem.accounting import (
    BASELINE_VDD_6T,
    ComparisonReport,
    compare_architectures,
)
from repro.mem.architecture import SynapticMemoryArchitecture
from repro.mem.configs import (
    base_architecture,
    config1_architecture,
    config2_architecture,
)
from repro.mem.tables import CellTables
from repro.nn.datasets import DigitDataset, load_synthetic_digits
from repro.nn.metrics import accuracy
from repro.nn.network import FeedforwardANN, NetworkSpec
from repro.nn.quantize import QuantizedWeights, quantize_network
from repro.nn.trainer import SGDTrainer
from repro.rng import SeedLike
from repro.runtime import default_cache_dir


def paper_ann_spec(seed: int = 0) -> NetworkSpec:
    """The paper's Table I network: 784-1000-500-200-100-10.

    6 layers, 2594 neurons, 1,406,810 synapses (weights + biases).
    """
    return NetworkSpec(layer_sizes=(784, 1000, 500, 200, 100, 10), seed=seed)


def fast_ann_spec(seed: int = 0) -> NetworkSpec:
    """Same depth and taper as Table I at ~1/5 width (default profile)."""
    return NetworkSpec(layer_sizes=(784, 300, 150, 80, 40, 10), seed=seed)


PROFILES = {"paper": paper_ann_spec, "fast": fast_ann_spec}


def resolve_profile(profile: Optional[str] = None, seed: int = 0) -> NetworkSpec:
    """Profile name (or ``REPRO_PROFILE`` env var, default ``fast``) -> spec."""
    name = profile or os.environ.get("REPRO_PROFILE", "fast")
    try:
        return PROFILES[name](seed=seed)
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(
            f"unknown profile {name!r}; known: {known}"
        ) from None


@dataclass
class TrainedModel:
    """A trained, quantized benchmark network plus its dataset."""

    network: FeedforwardANN
    image: QuantizedWeights
    dataset: DigitDataset
    float_accuracy: float
    quantized_accuracy: float

    @property
    def spec(self) -> NetworkSpec:
        return self.network.spec

    @property
    def layer_synapse_counts(self) -> tuple:
        """Per-weight-layer synapse counts (weights + biases) — the bank
        sizes of the sensitivity-driven architecture."""
        return tuple(
            self.image.layer_synapse_count(i) for i in range(self.image.n_layers)
        )

    @property
    def quantization_loss(self) -> float:
        return self.float_accuracy - self.quantized_accuracy


def _model_cache_path(key_blob: str, cache_dir: Optional[str]) -> str:
    digest = hashlib.md5(key_blob.encode()).hexdigest()[:16]
    return os.path.join(cache_dir or default_cache_dir(), f"ann_{digest}.npz")


def train_benchmark_ann(
    profile: Optional[str] = None,
    seed: int = 0,
    n_train: int = 6000,
    n_val: int = 500,
    n_test: int = 2000,
    epochs: int = 15,
    n_bits: int = 8,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
) -> TrainedModel:
    """Train (or load from cache) the benchmark digit-recognition ANN.

    The trained float parameters are cached on disk; the dataset is
    regenerated deterministically from its seed (caching images would
    dwarf the weight cache).  Only the splits that are read get
    generated: a call that loads cached weights synthesizes just the
    test split, which is all evaluation reads.
    """
    spec = resolve_profile(profile, seed=seed)
    dataset = load_synthetic_digits(
        n_train=n_train, n_val=n_val, n_test=n_test, seed=seed
    )
    network = FeedforwardANN(spec)

    key_blob = json.dumps(
        {
            "sizes": spec.layer_sizes,
            "hidden": spec.hidden_activation,
            "output": spec.output_activation,
            "seed": seed,
            "n_train": n_train,
            "n_val": n_val,
            "epochs": epochs,
            "rev": 2,  # rev 2: weight_clip=0.99 -> Q0.7 synaptic words
        },
        sort_keys=True,
    )
    path = _model_cache_path(key_blob, cache_dir)

    if use_cache and os.path.exists(path):
        payload = np.load(path)
        for i, layer in enumerate(network.layers):
            layer.weights = payload[f"w{i}"]
            layer.biases = payload[f"b{i}"]
    else:
        # weight_clip just under 1.0 keeps every parameter representable
        # in the paper's sub-unity 8-bit format (sign + 7 fraction bits).
        trainer = SGDTrainer(
            epochs=epochs, batch_size=100, learning_rate=0.2,
            momentum=0.9, lr_decay=0.97, weight_clip=0.99,
            seed=seed + 1, verbose=verbose,
        )
        trainer.train(network, dataset.x_train, dataset.y_train,
                      x_val=dataset.x_val, y_val=dataset.y_val)
        if use_cache:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            arrays = {}
            for i, layer in enumerate(network.layers):
                arrays[f"w{i}"] = layer.weights
                arrays[f"b{i}"] = layer.biases
            np.savez_compressed(path, **arrays)

    float_acc = accuracy(network.predict(dataset.x_test), dataset.y_test)
    image = quantize_network(network, n_bits=n_bits)
    image.apply_to(network)
    quant_acc = accuracy(network.predict(dataset.x_test), dataset.y_test)

    return TrainedModel(
        network=network,
        image=image,
        dataset=dataset,
        float_accuracy=float_acc,
        quantized_accuracy=quant_acc,
    )


class CircuitToSystemSimulator:
    """The paper's Sec. V pipeline as one object.

    Combines a trained quantized network with the 6T/8T bitcell
    characterizations and answers the evaluation questions of Sec. VI:
    accuracy / access power / leakage / area of any memory configuration
    at any supply voltage.

    Determinism contract: every study built on this simulator is a pure
    function of the model, the characterization tables and the seeds.
    The execution knobs (``jobs`` worker fan-out, ``shards`` /
    ``max_shard_samples`` Monte-Carlo sharding when the simulator builds
    its own tables, the shared result cache) change wall-clock and
    memory, never a published number.  Accuracies are fractions in
    [0, 1]; powers W; areas m^2; voltages V.
    """

    def __init__(
        self,
        model: TrainedModel,
        tables: Optional[CellTables] = None,
        n_trials: int = 5,
        include_write_failures: bool = True,
        include_read_disturb: bool = True,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        max_shard_samples: Optional[int] = None,
        block_samples: Optional[int] = None,
    ):
        if n_trials <= 0:
            raise ConfigurationError(f"n_trials must be positive, got {n_trials}")
        self.model = model
        self.tables = tables or CellTables.build(
            jobs=jobs, shards=shards, max_shard_samples=max_shard_samples,
            block_samples=block_samples,
        )
        self.n_trials = n_trials
        self.include_write_failures = include_write_failures
        self.include_read_disturb = include_read_disturb
        #: Default worker count for the studies built on this simulator
        #: (``None`` = honour ``REPRO_JOBS``, else serial); individual
        #: sweeps may override it with their own ``jobs`` argument.
        self.jobs = jobs

    def sweep_jobs(self, jobs: Optional[int] = None) -> Optional[int]:
        """Resolve a per-sweep ``jobs`` override against the simulator
        default."""
        return jobs if jobs is not None else self.jobs

    def worker_clone(self) -> "CircuitToSystemSimulator":
        """A copy that is cheap to ship to sweep workers.

        Evaluation only ever reads the *test* split, but the training
        and validation arrays dominate the simulator's pickled size
        (~5x); the clone replaces them with empty arrays so process
        fan-out doesn't serialize megabytes of unused data.  The empty
        arrays are cut from the test split, so splits not generated yet
        stay ungenerated.  Results are unaffected.
        """
        ds = self.model.dataset
        empty_x, empty_y = ds.x_test[:0], ds.y_test[:0]
        pruned_dataset = dataclasses.replace(
            ds, x_train=empty_x, y_train=empty_y, x_val=empty_x, y_val=empty_y,
        )
        pruned_model = dataclasses.replace(self.model, dataset=pruned_dataset)
        clone = CircuitToSystemSimulator(
            pruned_model,
            tables=self.tables,
            n_trials=self.n_trials,
            include_write_failures=self.include_write_failures,
            include_read_disturb=self.include_read_disturb,
        )
        clone.jobs = self.jobs
        return clone

    # ------------------------------------------------------------------
    # Architecture construction bound to this model's bank sizes
    # ------------------------------------------------------------------
    def base_memory(self, vdd: float) -> SynapticMemoryArchitecture:
        return base_architecture(
            self.model.layer_synapse_counts, self.tables, vdd,
            n_bits=self.model.image.fmt.n_bits,
        )

    def config1_memory(self, vdd: float, msb_in_8t: int) -> SynapticMemoryArchitecture:
        return config1_architecture(
            self.model.layer_synapse_counts, self.tables, vdd, msb_in_8t,
            n_bits=self.model.image.fmt.n_bits,
        )

    def config2_memory(
        self, vdd: float, msb_per_layer: Sequence[int]
    ) -> SynapticMemoryArchitecture:
        return config2_architecture(
            self.model.layer_synapse_counts, self.tables, vdd, msb_per_layer,
            n_bits=self.model.image.fmt.n_bits,
        )

    def baseline_memory(self) -> SynapticMemoryArchitecture:
        """The paper's iso-stability baseline: all-6T at 0.75 V."""
        return self.base_memory(BASELINE_VDD_6T)

    def memory_for(
        self,
        config: str,
        vdd: float,
        msb_in_8t: Optional[int] = None,
        msb_per_layer: Optional[Sequence[int]] = None,
    ) -> SynapticMemoryArchitecture:
        """Build a memory by configuration name — the serving entry point.

        ``config`` is one of ``"base"`` (all-6T), ``"config1"`` (uniform
        hybrid; requires ``msb_in_8t``) or ``"config2"`` (per-layer
        hybrid; requires ``msb_per_layer``).  The name/argument pairing
        is validated strictly so a malformed request fails here, with a
        message, rather than deep inside the bank math.
        """
        if config == "base":
            if msb_in_8t is not None or msb_per_layer is not None:
                raise ConfigurationError(
                    "config 'base' takes no MSB arguments"
                )
            return self.base_memory(vdd)
        if config == "config1":
            if msb_in_8t is None or msb_per_layer is not None:
                raise ConfigurationError(
                    "config 'config1' requires msb_in_8t (and only msb_in_8t)"
                )
            return self.config1_memory(vdd, msb_in_8t)
        if config == "config2":
            if msb_per_layer is None or msb_in_8t is not None:
                raise ConfigurationError(
                    "config 'config2' requires msb_per_layer (and only "
                    "msb_per_layer)"
                )
            return self.config2_memory(vdd, msb_per_layer)
        raise ConfigurationError(
            f"unknown memory config {config!r}; known: base, config1, config2"
        )

    def fingerprint(self) -> str:
        """Digest of everything that determines :meth:`evaluate` results.

        Covers the quantized memory image (the exact code arrays the
        injector perturbs), the evaluation split, the failure-model
        flags and both characterization tables — so two simulators with
        equal fingerprints return bit-identical evaluations for equal
        ``(memory, n_trials, seed)`` requests.  The serving layer folds
        this digest into every response-cache key, making a cached
        response indistinguishable from a recompute.
        """
        h = hashlib.sha256()
        image = self.model.image
        h.update(
            json.dumps(
                {
                    "n_bits": image.fmt.n_bits,
                    "frac_bits": image.fmt.frac_bits,
                    "include_write_failures": self.include_write_failures,
                    "include_read_disturb": self.include_read_disturb,
                    "tables": [
                        self.tables.table_6t.to_payload(),
                        self.tables.table_8t.to_payload(),
                    ],
                },
                sort_keys=True,
            ).encode()
        )
        for codes in (*image.weight_codes, *image.bias_codes):
            h.update(np.ascontiguousarray(codes).tobytes())
        dataset = self.model.dataset
        h.update(np.ascontiguousarray(dataset.x_test).tobytes())
        h.update(np.ascontiguousarray(dataset.y_test).tobytes())
        return h.hexdigest()[:32]

    # ------------------------------------------------------------------
    # Accuracy under a memory configuration
    # ------------------------------------------------------------------
    def evaluate(
        self,
        memory: SynapticMemoryArchitecture,
        n_trials: Optional[int] = None,
        seed: SeedLike = None,
    ) -> FaultEvaluation:
        """Classification accuracy with this memory's fault statistics."""
        injector = memory.fault_injector(
            include_write_failures=self.include_write_failures,
            include_read_disturb=self.include_read_disturb,
        )
        return evaluate_under_faults(
            self.model.network,
            self.model.image,
            injector,
            self.model.dataset.x_test,
            self.model.dataset.y_test,
            n_trials=n_trials or self.n_trials,
            seed=seed,
        )

    def evaluate_batch(
        self,
        items: Sequence[tuple],
        injectors: Optional[Sequence] = None,
    ) -> list:
        """Evaluate many memories through one shared fault-injection pass.

        ``items`` holds ``(memory, n_trials, seed)`` triples
        (``n_trials=None`` takes the simulator default).  Element ``i``
        of the result equals ``self.evaluate(*items[i])`` bit-for-bit —
        each request's flip masks derive from its own seed — but the
        batch pays the parameter snapshot, the clean-image load and the
        baseline forward pass once instead of ``len(items)`` times.
        This is the flush path of the batch-serving front-end
        (:mod:`repro.serving`).

        ``injectors`` optionally supplies one prebuilt
        :class:`~repro.fault.injector.WeightFaultInjector` per item (a
        caller that already built them for validation avoids building
        them twice); each must come from ``items[i]``'s memory with
        this simulator's failure-model flags.
        """
        if injectors is not None and len(injectors) != len(items):
            raise ConfigurationError(
                f"got {len(injectors)} injectors for {len(items)} items"
            )
        specs = []
        for i, (memory, n_trials, seed) in enumerate(items):
            injector = injectors[i] if injectors is not None else (
                memory.fault_injector(
                    include_write_failures=self.include_write_failures,
                    include_read_disturb=self.include_read_disturb,
                )
            )
            specs.append(
                FaultTrialSpec(
                    injector=injector,
                    n_trials=n_trials or self.n_trials,
                    seed=seed,
                )
            )
        return evaluate_many_under_faults(
            self.model.network,
            self.model.image,
            specs,
            self.model.dataset.x_test,
            self.model.dataset.y_test,
        )

    def compare(
        self,
        candidate: SynapticMemoryArchitecture,
        baseline: Optional[SynapticMemoryArchitecture] = None,
    ) -> ComparisonReport:
        """Power/area accounting vs the (default iso-stability) baseline."""
        return compare_architectures(candidate, baseline or self.baseline_memory())
