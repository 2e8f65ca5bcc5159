"""Dataset container and the standard train/val/test loading entry point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.nn.datasets.synth_digits import SyntheticDigitConfig, generate_digit_images
from repro.rng import SeedLike, derive_seed

#: Field name -> split for the splits that may be generated on first read.
_DEFERRABLE = {"x_train": "train", "y_train": "train", "x_val": "val", "y_val": "val"}


@dataclass(frozen=True)
class DigitDataset:
    """Train/validation/test split of the digit task.

    A dataset from :func:`load_synthetic_digits` holds the test split at
    once and generates the training and validation splits on first read,
    keeping them from then on.  Evaluating a cached model reads only the
    test split, so it never pays for the other two.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only when normal lookup fails: for a split that is
        # still pending, or for a name the dataset does not have.
        pending = self.__dict__.get("_pending", {})
        split = _DEFERRABLE.get(name)
        if split not in pending:
            raise AttributeError(name)
        n_samples, seed, config = pending[split]
        x, y = generate_digit_images(n_samples, seed=seed, config=config)
        self.__dict__.update({f"x_{split}": x, f"y_{split}": y})
        return self.__dict__[name]

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y_train.max()) + 1

    def summary(self) -> str:
        return (
            f"DigitDataset(train={len(self.y_train)}, val={len(self.y_val)}, "
            f"test={len(self.y_test)}, features={self.n_features})"
        )


def load_synthetic_digits(
    n_train: int = 10000,
    n_val: int = 1000,
    n_test: int = 2000,
    seed: SeedLike = None,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> DigitDataset:
    """A train/val/test digit dataset; train and val are generated on first read.

    The three splits use independent derived seeds so that changing the
    training-set size does not silently change the test set — and so
    that generating a split later, or never, leaves the others as they
    would be.
    """
    if min(n_train, n_val, n_test) <= 0:
        raise DatasetError("all split sizes must be positive")
    train_seed, val_seed, test_seed = (derive_seed(seed, k) for k in (1, 2, 3))
    x_test, y_test = generate_digit_images(n_test, seed=test_seed, config=config)
    dataset = object.__new__(DigitDataset)
    dataset.__dict__.update(
        x_test=x_test, y_test=y_test,
        _pending={"train": (n_train, train_seed, config),
                  "val": (n_val, val_seed, config)},
    )
    return dataset
