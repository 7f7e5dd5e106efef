"""1-NN error, bound arithmetic, and the closed-form Gaussian oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from linkcdr.bayes import bayes_bounds, one_nn_error, one_nn_error_loo
from linkcdr.errors import DatasetError
from oracles import GaussianClassOracle, gaussian_bayes_error


def brute_one_nn(train_x, train_y, test_x, test_y):
    errors = 0
    for q, label in zip(test_x, test_y):
        best = min(
            (float(((q - x) ** 2).sum()), i) for i, x in enumerate(train_x)
        )
        errors += train_y[best[1]] != label
    return errors / len(test_y)


class TestOneNnError:
    def test_identical_row_same_label_contributes_zero(self):
        train_x = np.asarray([[0.0, 0.0], [4.0, 4.0]])
        train_y = np.asarray([0, 1])
        assert one_nn_error(train_x, train_y, np.asarray([[0.0, 0.0]]), np.asarray([0])) == 0

    def test_flipped_training_labels_complement_error(self):
        rng = np.random.default_rng(0)
        train_x = rng.standard_normal((60, 3))
        train_y = (rng.random(60) < 0.5).astype(int)
        test_x = rng.standard_normal((40, 3))
        test_y = (rng.random(40) < 0.5).astype(int)
        e = one_nn_error(train_x, train_y, test_x, test_y)
        flipped = one_nn_error(train_x, 1 - train_y, test_x, test_y)
        assert e + flipped == pytest.approx(1.0)

    def test_hundred_row_fixture_matches_brute_scan(self):
        rng = np.random.default_rng(1)
        train_x = rng.standard_normal((100, 4))
        train_y = (rng.random(100) < 0.5).astype(int)
        test_x = rng.standard_normal((100, 4))
        test_y = (rng.random(100) < 0.5).astype(int)
        got = one_nn_error(train_x, train_y, test_x, test_y, chunk_size=13)
        assert got == brute_one_nn(train_x, train_y, test_x, test_y)

    def test_invariant_under_orthogonal_transform(self):
        rng = np.random.default_rng(2)
        train_x = rng.standard_normal((80, 5))
        train_y = (rng.random(80) < 0.5).astype(int)
        test_x = rng.standard_normal((50, 5))
        test_y = (rng.random(50) < 0.5).astype(int)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = one_nn_error(train_x, train_y, test_x, test_y)
        rotated = one_nn_error(train_x @ q, train_y, test_x @ q, test_y)
        assert base == rotated

    def test_dimension_mismatch(self):
        with pytest.raises(DatasetError, match="dimension"):
            one_nn_error(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))

    def test_empty_sets_rejected(self):
        with pytest.raises(DatasetError):
            one_nn_error(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), np.zeros(1))

    def test_leave_one_out_mode(self):
        x = np.asarray([[0.0], [0.1], [5.0], [5.1]])
        y = np.asarray([0, 0, 1, 1])
        assert one_nn_error_loo(x, y) == 0.0
        assert one_nn_error_loo(x, np.asarray([0, 1, 0, 1])) == 1.0


class TestBayesBounds:
    def test_zero_error(self):
        bounds = bayes_bounds(0.0)
        assert (bounds.bayes_lower, bounds.bayes_upper) == (0.0, 0.0)
        assert (bounds.max_accuracy_lower, bounds.max_accuracy_upper) == (1.0, 1.0)

    def test_boundary_half(self):
        bounds = bayes_bounds(0.5)
        assert bounds.bayes_lower == pytest.approx(0.5)
        assert bounds.bayes_upper == 0.5

    def test_inverting_reported_accuracy_bound(self):
        # lower bound 0.32 corresponds to e_nn ~ 0.4352 and best accuracy 0.68
        bounds = bayes_bounds(0.4352)
        assert bounds.bayes_lower == pytest.approx(0.32, abs=1e-4)
        assert bounds.max_accuracy_upper == pytest.approx(0.68, abs=1e-4)

    def test_bounds_ordered(self):
        for e in np.linspace(0, 0.5, 21):
            bounds = bayes_bounds(float(e))
            assert bounds.bayes_lower <= bounds.bayes_upper

    def test_monotone_in_e_nn(self):
        grid = [bayes_bounds(float(e)) for e in np.linspace(0, 0.5, 51)]
        lowers = [b.bayes_lower for b in grid]
        uppers = [b.bayes_upper for b in grid]
        assert all(b >= a for a, b in zip(lowers, lowers[1:]))
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_marginally_above_half_clamps_with_warning(self):
        with pytest.warns(RuntimeWarning):
            bounds = bayes_bounds(0.51)
        assert bounds.e_nn == 0.5

    def test_far_above_half_rejected(self):
        with pytest.raises(DatasetError, match="undefined"):
            bayes_bounds(0.6)

    def test_negative_rejected(self):
        with pytest.raises(DatasetError):
            bayes_bounds(-0.01)


def oracle(d_over_2sigma: float, priors=(0.5, 0.5), sigma: float = 1.0, dim: int = 2):
    mean = np.zeros(dim)
    other = np.zeros(dim)
    other[0] = 2 * sigma * d_over_2sigma
    return GaussianClassOracle(priors=priors, means=(mean, other), sigma=sigma)


class TestGaussianBayesError:
    def test_coincident_means_give_half(self):
        assert gaussian_bayes_error(oracle(0.0)) == 0.5

    def test_far_means_drive_error_to_zero(self):
        assert gaussian_bayes_error(oracle(50.0)) < 1e-12

    def test_unit_separation_matches_normal_cdf(self):
        want = 0.5 * (1 + math.erf(-1 / math.sqrt(2)))  # Phi(-1) ~ 0.1587
        assert gaussian_bayes_error(oracle(1.0)) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1587, abs=5e-5)

    def test_unequal_priors_match_quadrature(self):
        # 1-D numerical integral of min(p0 f0, p1 f1)
        o = oracle(0.8, priors=(0.3, 0.7), sigma=1.3, dim=1)
        xs = np.linspace(-30, 30, 400_001)
        d = float(o.means[1][0] - o.means[0][0])
        f0 = np.exp(-0.5 * ((xs - 0.0) / o.sigma) ** 2) / (o.sigma * math.sqrt(2 * math.pi))
        f1 = np.exp(-0.5 * ((xs - d) / o.sigma) ** 2) / (o.sigma * math.sqrt(2 * math.pi))
        numeric = np.trapezoid(np.minimum(0.3 * f0, 0.7 * f1), xs)
        assert gaussian_bayes_error(o) == pytest.approx(float(numeric), abs=1e-8)

    def test_prior_validation(self):
        with pytest.raises(DatasetError):
            GaussianClassOracle((0.2, 0.9), (np.zeros(2), np.ones(2)), 1.0)
        with pytest.raises(DatasetError):
            GaussianClassOracle((0.5, 0.5), (np.zeros(2), np.ones(3)), 1.0)

    def test_sampling_matches_priors(self):
        o = oracle(1.0, priors=(0.3, 0.7))
        x, y = o.sample(20000, np.random.default_rng(3))
        assert y.mean() == pytest.approx(0.7, abs=0.02)
        assert x.shape == (20000, 2)

    def test_sandwich_small(self):
        # scaled-down version of the acceptance sandwich: one setting, 5 seeds
        o = oracle(1.0)
        true_error = gaussian_bayes_error(o)
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            train_x, train_y = o.sample(2000, rng)
            test_x, test_y = o.sample(2000, rng)
            e_nn = one_nn_error(train_x, train_y, test_x, test_y)
            bounds = bayes_bounds(e_nn)
            if bounds.bayes_lower - 0.02 <= true_error <= bounds.bayes_upper + 0.02:
                hits += 1
        assert hits >= 4
