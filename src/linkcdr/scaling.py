"""Train-time standardization: per-feature mean and population std
learned on training rows, and their application to any rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import manifest
from .errors import DatasetError


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature mean and population std learned on training rows."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "std": [float(v) for v in self.std],
            "manifest_hash": manifest.manifest_hash(),
        }


def fit_scaler(matrix: np.ndarray, names: Sequence[str] | None = None) -> ScalerParams:
    """Learn per-column mean/std; rejects constant columns by name."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DatasetError("scaler fit needs a 2-D matrix with at least 2 rows")
    mean = x.mean(axis=0)
    std = np.sqrt(np.mean((x - mean) ** 2, axis=0))
    floor = 1e-12 * np.maximum(1.0, np.abs(mean))
    constant = np.flatnonzero(std <= floor)
    if constant.size:
        if names is None and x.shape[1] == manifest.N_FEATURES:
            names = manifest.FEATURE_NAMES
        labels = [names[i] if names is not None else str(i) for i in constant[:8]]
        raise DatasetError(f"constant feature column(s) at fit time: {', '.join(labels)}")
    return ScalerParams(mean, std)


def apply_scaler(matrix: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Standardize with parameters learned by ``fit_scaler``."""
    x = np.asarray(matrix, dtype=np.float64)
    return (x - params.mean) / params.std
