"""Bounds on the irreducible (Bayes) classification error.

The 1-NN test error e sandwiches the Bayes error E via

    (1 - sqrt(1 - 2e)) / 2  <=  E  <=  e,

so 1 - e and 1 - lower bound the best achievable accuracy from below and
above. The tests check the sandwich against the closed-form Bayes error of
two isotropic Gaussian classes (``tests/oracles.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DatasetError
from .learn.neighbors import nearest

CLAMP_SLACK = 0.02  # a 1-NN error up to this far above 0.5 is clamped to 0.5


def one_nn_error(
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
) -> float:
    """Fraction of test rows whose nearest training row has another label."""
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    test_x = np.asarray(test_x, dtype=np.float64)
    test_y = np.asarray(test_y)
    if train_x.shape[0] == 0 or test_x.shape[0] == 0:
        raise DatasetError("train and test sets must be nonempty")
    if train_x.shape[1] != test_x.shape[1]:
        raise DatasetError("feature dimension mismatch between train and test")
    nearest_y = train_y[nearest(train_x, test_x, 1)[:, 0]]
    return int(np.sum(nearest_y != test_y)) / test_x.shape[0]


def one_nn_error_loo(x: np.ndarray, y: np.ndarray) -> float:
    """Leave-one-out variant: each row's nearest neighbor among the others."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.shape[0] < 2:
        raise DatasetError("leave-one-out needs at least 2 rows")
    nearest_y = y[nearest(x, x, 1, exclude_self=True)[:, 0]]
    return int(np.sum(nearest_y != y)) / x.shape[0]


@dataclass(frozen=True)
class BayesBounds:
    e_nn: float
    bayes_lower: float
    bayes_upper: float
    max_accuracy_lower: float
    max_accuracy_upper: float

    def to_dict(self) -> dict:
        return asdict(self)


def bayes_bounds(e_nn: float) -> BayesBounds:
    """Sandwich the Bayes error given a 1-NN error estimate in [0, 0.5].

    Estimates marginally above 0.5 (sampling noise, within ``CLAMP_SLACK``)
    are clamped with a warning; larger values are rejected.
    """
    if e_nn < 0:
        raise DatasetError(f"1-NN error {e_nn} is negative")
    if e_nn > 0.5:
        if e_nn <= 0.5 + CLAMP_SLACK:
            warnings.warn(
                f"1-NN error {e_nn:.4f} marginally above 0.5; clamping to 0.5",
                RuntimeWarning,
                stacklevel=2,
            )
            e_nn = 0.5
        else:
            raise DatasetError(
                f"1-NN error {e_nn} above 0.5: bound formula undefined; "
                "check label/feature pairing"
            )
    lower = (1.0 - math.sqrt(1.0 - 2.0 * e_nn)) / 2.0
    return BayesBounds(
        e_nn=e_nn,
        bayes_lower=lower,
        bayes_upper=e_nn,
        max_accuracy_lower=1.0 - e_nn,
        max_accuracy_upper=1.0 - lower,
    )
