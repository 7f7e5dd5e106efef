"""Optimizer correctness for the linear trainers: one damped Newton solver,
whose l1 steps come from feature-sign search, checked against solver-free
optimality conditions and plain first-order references (tests/oracles.py)."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcdr.errors import DatasetError
from linkcdr.learn.linear import (
    L1_DAMPING,
    TrainedModel,
    _hessian,
    select_features,
    train_linear_svm,
    train_logreg,
    train_path,
)
from linkcdr.learn.pipeline import C_GRID
from oracles import (
    _newton_terms,
    l1_kkt_residual,
    l1_linear_reference,
    l2_linear_objective,
    l2_linear_reference,
    l2_newton_reference,
    objective_value,
    smooth_gradient,
)

TRAINERS = {"logreg": train_logreg, "lsvm": train_linear_svm}


def separable_1d(n: int = 40) -> tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])[:, None]
    y = (x[:, 0] > 0).astype(int)
    return x, y


def blobs(seed: int = 0, n: int = 120, d: int = 6, gap: float = 3.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(int)
    x[y == 1, 0] += gap
    x[y == 0, 0] -= gap
    return x, y


@pytest.mark.parametrize("kind", TRAINERS)
class TestTrainers:
    def test_separable_one_dimension(self, kind):
        x, y = separable_1d()
        model = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        assert model.weights[0] > 0
        assert (model.predict(x) == y).all()

    def test_label_flip_negates_parameters(self, kind):
        x, y = blobs(seed=1)
        a = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        b = TRAINERS[kind](x, 1 - y, penalty="l2", c=1.0)
        np.testing.assert_allclose(a.weights, -b.weights, atol=1e-6)
        assert a.bias == pytest.approx(-b.bias, abs=1e-6)

    def test_strong_penalty_shrinks_weights(self, kind):
        x, y = blobs(seed=2)
        model = TRAINERS[kind](x, y, penalty="l2", c=1e-6)
        assert np.linalg.norm(model.weights) < 1e-3

    def test_duplicated_dataset_gives_identical_model(self, kind):
        x, y = blobs(seed=3, n=60)
        a = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        b = TRAINERS[kind](np.vstack([x, x]), np.concatenate([y, y]), penalty="l2", c=1.0)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)
        assert a.bias == pytest.approx(b.bias, abs=1e-8)

    def test_single_class_rejected(self, kind):
        x = np.random.default_rng(4).standard_normal((10, 2))
        with pytest.raises(DatasetError, match="single-class"):
            TRAINERS[kind](x, np.ones(10, dtype=int))

    @pytest.mark.parametrize("penalty", ["l2", "l1"])
    def test_gradient_map_vanishes(self, kind, penalty):
        x, y = blobs(seed=5, gap=1.0)
        model = TRAINERS[kind](x, y, penalty=penalty, c=1.0)
        assert model.grad_map_norm < 1e-5

    def test_stopping_at_max_iter_warns(self, kind):
        x, y = blobs(seed=5, gap=1.0)
        with pytest.warns(RuntimeWarning, match="stopped at max_iter"):
            model = TRAINERS[kind](x, y, penalty="l2", c=1.0, max_iter=1)
        assert model.n_iterations == 1
        assert model.converged is False and model.grad_map_norm >= 1e-6

    def test_l1_stopping_at_max_iter_warns(self, kind):
        # At c=1 lsvm converges in one step; at c=10 both kinds need four.
        x, y = blobs(seed=5, gap=1.0)
        with pytest.warns(RuntimeWarning, match="stopped at max_iter"):
            model = TRAINERS[kind](x, y, penalty="l1", c=10.0, max_iter=1)
        assert model.n_iterations == 1
        assert model.converged is False and model.grad_map_norm >= 1e-6

    def test_converged_fit_is_silent(self, kind):
        x, y = blobs(seed=5, gap=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        assert model.converged is True

    def test_analytic_gradient_matches_finite_differences(self, kind):
        x, y = blobs(seed=6, gap=1.0)
        model = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        w, b = model.weights, model.bias
        gw, gb = smooth_gradient(w, b, x, y, kind, "l2", 1.0)
        assert np.sqrt(np.linalg.norm(gw) ** 2 + gb**2) < 1e-5
        eps = 1e-5
        for j in range(len(w)):
            shift = np.zeros_like(w)
            shift[j] = eps
            fd = (
                objective_value(w + shift, b, x, y, kind, "l2", 1.0)
                - objective_value(w - shift, b, x, y, kind, "l2", 1.0)
            ) / (2 * eps)
            assert fd == pytest.approx(gw[j], abs=1e-4)
        fd_b = (
            objective_value(w, b + eps, x, y, kind, "l2", 1.0)
            - objective_value(w, b - eps, x, y, kind, "l2", 1.0)
        ) / (2 * eps)
        assert fd_b == pytest.approx(gb, abs=1e-4)

    @pytest.mark.parametrize("penalty", ["l2", "l1"])
    def test_returned_loss_beats_zero_and_random_points(self, kind, penalty):
        x, y = blobs(seed=7, gap=1.0)
        model = TRAINERS[kind](x, y, penalty=penalty, c=1.0)
        achieved = objective_value(model.weights, model.bias, x, y, kind, penalty, 1.0)
        assert achieved <= objective_value(np.zeros(x.shape[1]), 0.0, x, y, kind, penalty, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.standard_normal(x.shape[1])
            b = float(rng.standard_normal())
            assert achieved <= objective_value(w, b, x, y, kind, penalty, 1.0) + 1e-12

    def test_duplicated_feature_column_keeps_prediction_signs(self, kind):
        x, y = blobs(seed=9)
        base = TRAINERS[kind](x, y, penalty="l2", c=1.0)
        doubled = np.column_stack([x, x[:, 0]])
        again = TRAINERS[kind](doubled, y, penalty="l2", c=1.0)
        assert (base.predict(x) == again.predict(doubled)).all()


@st.composite
def l2_problems(draw, shapes=("fold", "tall", "duplicated", "unbalanced")):
    """A model kind and a standardized problem: a CV fold of the benchmark's
    shape (n < d), a tall one, one with duplicated columns, or one with
    about 15% positive labels; label noise from none (separable) to heavy."""
    kind = draw(st.sampled_from(sorted(TRAINERS)))
    shape = draw(st.sampled_from(shapes))
    noise = draw(st.sampled_from([0.0, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = {"fold": (80, 175), "tall": (200, 12), "duplicated": (60, 8), "unbalanced": (120, 20)}
    n, d = sizes[shape]
    x = rng.standard_normal((n, 4)) @ rng.standard_normal((4, d)) + rng.standard_normal((n, d))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    score = x @ rng.standard_normal(d) / math.sqrt(d) + noise * rng.standard_normal(n)
    cut = np.quantile(score, 0.85) if shape == "unbalanced" else np.median(score)
    y = (score > cut).astype(int)
    if shape == "duplicated":
        x = np.column_stack([x, x[:, :3], x[:, 0]])
    return kind, x, y


class TestNewtonDifferential:
    """Every l2 fit on the C grid converges in a handful of Newton steps and
    reaches the optimum that plain gradient descent finds (tests/oracles.py)."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(l2_problems())
    def test_matches_gradient_descent_reference(self, problem):
        kind, x, y = problem
        compared = 0
        for c in C_GRID:
            model = TRAINERS[kind](x, y, penalty="l2", c=c)
            value, gw, gb = l2_linear_objective(model.weights, model.bias, x, y, kind, c)
            # A wrong Hessian (say, a broken active-set mask) still reaches the
            # optimum, only in many more steps; Newton needs at most 12 here.
            assert model.converged and model.n_iterations <= 30
            assert math.sqrt(float(gw @ gw) + gb * gb) < 1e-6
            assert model.objective == pytest.approx(value, rel=1e-12)
            if c <= 10.0:
                ref_value, _, ref_converged = l2_linear_reference(
                    x, y, kind, c, tol=1e-7, max_iter=5000
                )
                if ref_converged:
                    assert value == pytest.approx(ref_value, rel=1e-9)
                    compared += 1
        assert compared >= 3


@st.composite
def hessian_cases(draw):
    """Rows, labels, margins and a penalty diagonal for one Newton Hessian:
    n < d or n > d, and margins that make some rows active (margin < 1) or
    curved, none of them, or all of them; a logistic margin past about 745
    in size has a curvature that underflows to 0."""
    kind = draw(st.sampled_from(sorted(TRAINERS)))
    case = draw(st.sampled_from(["mixed", "none", "all"]))
    n, d = draw(st.sampled_from([(1, 6), (12, 40), (40, 12), (80, 81), (200, 5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
    y = 2.0 * rng.integers(0, 2, n) - 1.0
    margins = rng.uniform(-3.0, 3.0, n)
    if case == "mixed":
        margins[: n // 3] = 1.0  # the hinge's boundary is not active
        margins[-1] = 0.0
    elif kind == "lsvm":
        margins = 1.0 + np.abs(margins) if case == "none" else 1.0 - np.abs(margins) - 1e-9
    elif case == "none":
        margins = np.sign(margins) * rng.uniform(800.0, 5000.0, n)
    lam = draw(st.sampled_from([L1_DAMPING, *(1.0 / c for c in C_GRID)]))
    return kind, case, x, y, margins, np.append(np.full(d, lam), 0.0)


class TestHessianDifferential:
    """The solver forms its Hessian from the rows with curvature alone, as a
    product of one matrix with its own transpose; it must match the dense
    formula over every row."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(hessian_cases())
    def test_matches_dense_formula(self, problem):
        kind, case, x, y, margins, diagonal = problem
        n = x.shape[0]
        xa = np.column_stack([x, np.ones(n)])
        curvature = _newton_terms(kind, margins)[2]
        dense = (xa.T * (curvature / n)) @ xa + np.diag(diagonal)
        if dense[-1, -1] == 0.0:
            dense[-1, -1] = 1.0
        hess = _hessian(kind, xa * y[:, None], margins, diagonal)
        np.testing.assert_array_equal(hess, hess.T)
        if case == "none":  # only the diagonal and the bias's unit pivot remain
            assert not curvature.any()
            np.testing.assert_array_equal(hess, np.diag(np.append(diagonal[:-1], 1.0)))
        else:
            assert curvature.any()
        np.testing.assert_allclose(hess, dense, rtol=0, atol=1e-12 * np.abs(dense).max())


@st.composite
def wide_problems(draw):
    """A problem with fewer rows than features: a CV fold of the benchmark's
    shape, n = d - 1, every row twice, an all-zero column, or one sample per
    class near the boundary and the rest far from it (at large C each class
    keeps a single active hinge sample, the fewest an unpenalized bias
    allows)."""
    shape = draw(st.sampled_from(["fold", "square", "duplicated", "zero_column", "one_active"]))
    noise = draw(st.sampled_from([0.0, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "one_active":
        n, d = 40, 120
        y = np.arange(n) % 2
        side = 2.0 * y - 1.0
        s = side * rng.uniform(3.0, 6.0, n)
        s[:2] = side[:2] * 0.2
        direction = rng.standard_normal(d)
        x = np.outer(s, direction / np.linalg.norm(direction))
        return shape, x + 0.01 * rng.standard_normal((n, d)), y
    n, d = {"square": (39, 40), "duplicated": (40, 175)}.get(shape, (80, 175))
    x = rng.standard_normal((n, 4)) @ rng.standard_normal((4, d)) + rng.standard_normal((n, d))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    score = x @ rng.standard_normal(d) / math.sqrt(d) + noise * rng.standard_normal(n)
    y = (score > np.median(score)).astype(int)
    if shape == "duplicated":
        x, y = np.vstack([x, x]), np.concatenate([y, y])
    if shape == "zero_column":
        x[:, draw(st.integers(0, d - 1))] = 0.0
    return shape, x, y


class TestSpanDifferential:
    """An l2 fit with fewer rows than features runs Newton in the span of the
    rows; it must follow the full-space loop it replaced (tests/oracles.py)."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(wide_problems())
    def test_matches_full_space_newton(self, problem):
        shape, x, y = problem
        assert x.shape[0] < x.shape[1]
        for kind, c in itertools.product(TRAINERS, C_GRID):
            model = TRAINERS[kind](x, y, penalty="l2", c=c)
            w, b, iterations, _, value = l2_newton_reference(x, y, kind, c)
            assert model.objective == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-9)
            assert model.bias == pytest.approx(b, rel=0, abs=1e-9)
            np.testing.assert_array_equal(model.predict(x), (x @ w + b > 0).astype(int))
            assert abs(model.n_iterations - iterations) <= 1
            if shape == "one_active" and kind == "lsvm" and c == C_GRID[-1]:
                margins = (2 * y - 1) * model.decision_function(x)
                np.testing.assert_array_equal(np.flatnonzero(margins < 1), [0, 1])

    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize("n", [30, 120])
    def test_reported_norm_is_full_space_gradient_norm(self, kind, n):
        x, y = blobs(seed=16, n=n, d=60, gap=0.5)
        for c in C_GRID:
            model = TRAINERS[kind](x, y, penalty="l2", c=c)
            gw, gb = smooth_gradient(model.weights, model.bias, x, y, kind, "l2", c)
            full = math.sqrt(float(gw @ gw) + gb * gb)
            assert model.grad_map_norm == pytest.approx(full, rel=0, abs=1e-12)


class TestPathDifferential:
    """Cross-validation fits a fold's C grid as one ``train_path``, each fit
    starting from the previous one; every fit must reach the cold fit's
    optimum."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(l2_problems(shapes=("fold", "tall")))
    def test_path_matches_cold_fits(self, problem):
        kind, x, y = problem
        tol = 1e-6
        path = train_path(x, y, kind, C_GRID, tol=tol)
        assert [model.c for model in path] == list(C_GRID)
        for c, model in zip(C_GRID, path):
            cold = TRAINERS[kind](x, y, c=c, tol=tol)
            assert model.converged
            # Both gradient norms are below tol and the objective is
            # (1/C)-strongly convex in w, so each is within C tol^2 / 2 of
            # the optimum.
            assert abs(model.objective - cold.objective) <= c * tol**2
            sure = np.abs(cold.decision_function(x)) > 1e-6
            np.testing.assert_array_equal(model.predict(x)[sure], cold.predict(x)[sure])
        # Started at its own solution, a fit takes no step, so a path that
        # fits every C twice is the path above with a copy of each fit.
        twice = train_path(x, y, kind, [c for c in C_GRID for _ in range(2)], tol=tol)
        for model, first, again in zip(path, twice[::2], twice[1::2]):
            np.testing.assert_equal(vars(first), vars(model))
            np.testing.assert_equal(vars(again), {**vars(model), "n_iterations": 0})

    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize(
        "n, penalty, qr_calls", [(30, "l2", 1), (120, "l2", 0), (30, "l1", 0)]
    )
    def test_one_qr_per_wide_l2_path(self, monkeypatch, kind, n, penalty, qr_calls):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        x, y = blobs(seed=18, n=n, d=60, gap=1.0)
        assert len(train_path(x, y, kind, (0.1, 1.0, 10.0), penalty=penalty)) == 3
        assert len(calls) == qr_calls

    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize("penalty", ["l2", "l1"])
    @pytest.mark.parametrize("n", [30, 120])
    def test_one_c_path_and_path_head_are_the_cold_fit(self, kind, penalty, n):
        x, y = blobs(seed=19, n=n, d=60, gap=1.0)
        cold = vars(TRAINERS[kind](x, y, penalty=penalty, c=1.0))
        np.testing.assert_equal(vars(train_path(x, y, kind, [1.0], penalty=penalty)[0]), cold)
        head = train_path(x, y, kind, [1.0, 10.0], penalty=penalty)[0]
        np.testing.assert_equal(vars(head), cold)

    @pytest.mark.parametrize("kind", TRAINERS)
    def test_every_c_must_be_positive(self, kind):
        x, y = blobs(seed=20)
        with pytest.raises(DatasetError, match="C must be positive"):
            train_path(x, y, kind, [1.0, 0.0])

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_every_c_must_be_finite(self, c):
        # an l2 fit at NaN C returned zero weights after no step
        x, y = blobs(seed=20)
        with pytest.raises(DatasetError, match="C must be positive and finite"):
            train_path(x, y, "logreg", [c])


class TestL1Differential:
    """Every l1 fit on the C grid, and at the selector's default C of 30,
    converges and meets the l1 optimality conditions (tests/oracles.py); where
    plain proximal gradient converges too, both reach the same objective."""

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(l2_problems())
    def test_matches_proximal_gradient_reference(self, problem):
        kind, x, y = problem
        compared = 0
        for c in (*C_GRID, 30.0):
            model = TRAINERS[kind](x, y, penalty="l1", c=c)
            # Proximal Newton needs at most 21 steps here; the cap catches a
            # model step that still descends but is not the exact minimizer.
            assert model.converged and model.n_iterations <= 30
            assert l1_kkt_residual(model.weights, model.bias, x, y, kind, c) < 1e-6
            if c <= 10.0:
                ref_value, _, ref_converged = l1_linear_reference(
                    x, y, kind, c, tol=1e-7, max_iter=5000
                )
                if ref_converged:
                    assert model.objective == pytest.approx(ref_value, rel=1e-9)
                    compared += 1
        assert compared >= 3


class TestSelectFeatures:
    def test_threshold_rule(self):
        x, y = blobs(seed=11)
        model = train_logreg(x, y, penalty="l1", c=1.0)
        model.weights = np.asarray([0.5, 1e-7, -0.3])
        np.testing.assert_array_equal(select_features(model), [0, 2])

    def test_all_zero_weights_empty(self):
        x, y = blobs(seed=12)
        model = train_logreg(x, y, penalty="l1", c=1e-9)
        assert select_features(model).size == 0

    def test_knn_rejected(self):
        with pytest.raises(DatasetError, match="not a linear model"):
            select_features(TrainedModel(kind="knn", k=3))

    def test_l2_model_rejected(self):
        x, y = blobs(seed=14)
        model = train_logreg(x, y, penalty="l2", c=1.0)
        with pytest.raises(DatasetError, match="l1"):
            select_features(model)

    def test_l1_sparsifies_noise_dimensions(self):
        rng = np.random.default_rng(15)
        n = 300
        x = rng.standard_normal((n, 20))
        y = (x[:, 0] + 0.5 * x[:, 1] + 0.2 * rng.standard_normal(n) > 0).astype(int)
        model = train_logreg(x, y, penalty="l1", c=10.0)
        kept = select_features(model)
        assert 0 in kept and 1 in kept
        assert len(kept) < 10
