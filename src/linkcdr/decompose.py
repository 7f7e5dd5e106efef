"""Variance decomposition: PCA, scree data, factor-style loadings, varimax
rotation, and cutoff-based factor assignment.

PCA is a deterministic symmetric eigendecomposition of the population
covariance; loadings scale each eigenvector by the square root of its
eigenvalue so entries are on a correlation scale for standardized input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DatasetError

EIGENVALUE_SLACK = -1e-10
# varimax stops once a step raises the singular-value sum by at most this share
VARIMAX_TOL = 1e-6
VARIMAX_MAX_ITER = 1000


@dataclass(frozen=True)
class PcaResult:
    eigenvalues: np.ndarray  # descending, >= 0
    components: np.ndarray  # (n_components, n_features), orthonormal rows
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca(matrix: np.ndarray) -> PcaResult:
    """Full eigendecomposition of the (population) covariance of ``matrix``.

    The sign of each component is fixed by making its largest-magnitude
    entry positive.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DatasetError("pca needs a 2-D matrix with at least 2 rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    components = vectors[:, order].T
    if eigenvalues.min() < EIGENVALUE_SLACK * max(1.0, float(eigenvalues.max())):
        raise DatasetError("covariance produced a significantly negative eigenvalue")
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    total = eigenvalues.sum()
    ratios = eigenvalues / total if total > 0 else np.zeros_like(eigenvalues)
    return PcaResult(eigenvalues, components, ratios)


def scree_data(result: PcaResult) -> list[tuple[int, float, float]]:
    """(component index from 1, variance ratio, cumulative ratio) rows."""
    out = []
    cumulative = 0.0
    for i, ratio in enumerate(result.explained_variance_ratio, start=1):
        cumulative += float(ratio)
        out.append((i, float(ratio), cumulative))
    return out


def loadings(result: PcaResult, n_comp: int) -> np.ndarray:
    """(n_features, n_comp) loading matrix: eigenvector_j * sqrt(eigenvalue_j)."""
    if not 1 <= n_comp <= result.n_components:
        raise DatasetError(f"n_comp {n_comp} out of range 1..{result.n_components}")
    scale = np.sqrt(result.eigenvalues[:n_comp])
    return result.components[:n_comp].T * scale


def varimax_criterion(load: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    sq = np.asarray(load, dtype=np.float64) ** 2
    return float(np.sum((sq**2).mean(axis=0) - sq.mean(axis=0) ** 2))


@dataclass
class VarimaxResult:
    loadings: np.ndarray
    rotation: np.ndarray
    criterion_path: np.ndarray  # criterion value per iteration, nondecreasing
    converged: bool
    n_iterations: int


def varimax(load: np.ndarray, kaiser_normalize: bool = True) -> VarimaxResult:
    """Orthogonally rotate loadings to maximize the varimax criterion.

    Kaiser row normalization is applied before and undone after rotation
    unless disabled. Non-convergence returns the best iterate with a
    warning. Column signs of the result are fixed so the largest-magnitude
    entry of each rotated factor is positive.
    """
    raw = np.asarray(load, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise DatasetError("varimax needs a loading matrix with at least 2 factors")
    p, k = raw.shape
    if kaiser_normalize:
        comm = np.sqrt((raw**2).sum(axis=1))
        scale = np.where(comm > 0, comm, 1.0)
    else:
        scale = np.ones(p)
    a = raw / scale[:, None]

    rotation = np.eye(k)
    best_rotation = rotation
    best_criterion = varimax_criterion(a)
    path = [best_criterion]
    converged = False
    d_old = 0.0
    iterations = 0
    for iterations in range(1, VARIMAX_MAX_ITER + 1):
        b = a @ rotation
        gradient = a.T @ (b**3 - b @ np.diag((b**2).sum(axis=0)) / p)
        u, s, vt = np.linalg.svd(gradient)
        rotation = u @ vt
        d = float(s.sum())
        criterion = varimax_criterion(a @ rotation)
        path.append(criterion)
        if criterion > best_criterion:
            best_criterion = criterion
            best_rotation = rotation
        if d == 0.0 or (d_old > 0.0 and d - d_old <= VARIMAX_TOL * d):
            converged = True
            break
        d_old = d
    if not converged:
        warnings.warn(
            f"varimax did not converge in {VARIMAX_MAX_ITER} iterations; returning best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    rotation = best_rotation
    rotated = (a @ rotation) * scale[:, None]
    for j in range(k):
        if rotated[np.argmax(np.abs(rotated[:, j])), j] < 0:
            rotated[:, j] *= -1
            rotation[:, j] *= -1
    return VarimaxResult(rotated, rotation, np.asarray(path), converged, iterations)


@dataclass
class FactorAssignment:
    """Per-factor feature memberships from an absolute-loading cutoff."""

    factors: list[list[tuple[str, float]]]  # (feature name, |loading|), descending
    unassigned: list[str]
    cutoff: float

    def to_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "factors": [
                [{"feature": name, "abs_loading": value} for name, value in factor]
                for factor in self.factors
            ],
            "unassigned": self.unassigned,
        }


def assign_factors(
    rotated: np.ndarray, feature_names: Sequence[str], cutoff: float = 0.4
) -> FactorAssignment:
    """Assign each feature to the factor of its largest absolute loading.

    Features whose largest absolute loading stays below the cutoff are
    reported as unassigned.
    """
    load = np.asarray(rotated, dtype=np.float64)
    if load.shape[0] != len(feature_names):
        raise DatasetError("feature name count does not match loading rows")
    k = load.shape[1]
    factors: list[list[tuple[str, float]]] = [[] for _ in range(k)]
    unassigned: list[str] = []
    magnitudes = np.abs(load)
    for i, name in enumerate(feature_names):
        j = int(np.argmax(magnitudes[i]))
        value = float(magnitudes[i, j])
        if value >= cutoff:
            factors[j].append((name, value))
        else:
            unassigned.append(name)
    for factor in factors:
        factor.sort(key=lambda item: (-item[1], item[0]))
    return FactorAssignment(factors, unassigned, cutoff)
