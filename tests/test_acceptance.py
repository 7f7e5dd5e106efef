"""Acceptance suite: one test per release criterion, each printing a
PASS line with its elapsed time. Run with ``pytest tests/test_acceptance.py -s``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import columns, dist_stats, ev, planted_factor_membership, ranked_alters
from linkcdr import manifest
from linkcdr.bayes import bayes_bounds, one_nn_error
from linkcdr.decompose import assign_factors, loadings, pca, varimax, varimax_criterion
from linkcdr.features import compute_feature_matrix
from linkcdr.learn.evaluation import evaluate
from linkcdr.learn.linear import (
    objective_value,
    select_features,
    smooth_gradient,
    train_linear_svm,
    train_logreg,
)
from linkcdr.learn.pipeline import (
    C_GRID,
    LabeledDataset,
    TrainConfig,
    age_restricted_experiment,
    balanced_sample,
    cross_validate,
    seed_ensemble,
)
from linkcdr.pairgraph import build_links, common_contacts, mutual_top_rank_pairs
from linkcdr.presets import planted_factors, table3_like
from linkcdr.relations import PairKey, is_opposite_gender_peer_code
from linkcdr.scaling import apply_scaler, fit_scaler
from linkcdr.synthgen import generate
from oracles import (
    GaussianClassOracle,
    common_contacts_brute,
    gaussian_bayes_error,
    moment_stats,
    mutual_pairs_brute,
    rank_alters_brute,
    recount_links,
)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report_pass(number: int, budget: float, timer: Timer, detail: str) -> None:
    assert timer.elapsed < budget, f"criterion {number} took {timer.elapsed:.1f}s (budget {budget}s)"
    print(f"\n[PASS] criterion {number} ({timer.elapsed:.2f}s / {budget:.0f}s): {detail}")


@dataclass
class SyntheticRun:
    """Features + labels of one generated table3-like dataset."""

    matrix: np.ndarray
    labels: np.ndarray
    codes: list[str]
    younger: np.ndarray
    pool: LabeledDataset
    test: LabeledDataset
    baseline: float


def build_run(n_pairs: int, seed: int, n_test: int, split_seed: int) -> SyntheticRun:
    config = table3_like(n_pairs, seed=seed)
    dataset = generate(config)
    graph = build_links(dataset.columns)
    pairs = [PairKey.of(p.first, p.second) for p in dataset.truth]
    matrix = compute_feature_matrix(graph, pairs)
    codes = [p.code for p in dataset.truth]
    labels = np.asarray([1 if is_opposite_gender_peer_code(c) else 0 for c in codes])
    younger = np.asarray([min(p.age_first, p.age_second) for p in dataset.truth])

    perm = np.random.default_rng(split_seed).permutation(n_pairs)
    test_idx, pool_idx = perm[:n_test], perm[n_test:]
    scaler = fit_scaler(matrix[pool_idx])
    z = apply_scaler(matrix, scaler)
    ids = [f"{k.first}|{k.second}" for k in pairs]
    full = LabeledDataset(z, labels, codes, ids)
    pool, test = full.subset(pool_idx), full.subset(test_idx)
    baseline = float(max(test.y.mean(), 1.0 - test.y.mean()))
    return SyntheticRun(matrix, labels, codes, younger, pool, test, baseline)


@pytest.fixture(scope="module")
def default_run() -> SyntheticRun:
    return build_run(n_pairs=2400, seed=101, n_test=800, split_seed=7)


def test_criterion_1_feature_cardinality(default_window):
    with Timer() as timer:
        assert manifest.N_FEATURES == 175
        assert manifest.GROUP_SIZES == {
            "weekly_stats": 126,
            "daypart_fractions": 18,
            "active_days": 12,
            "reciprocity": 3,
            "interevent": 14,
            "common_contacts": 2,
        }
        rng = np.random.default_rng(0)
        events = []
        for _ in range(80):
            ts = int(rng.integers(default_window.start, default_window.end))
            kind = "text" if rng.random() < 0.4 else "call"
            events.append(ev("p1", "p2", ts, kind, int(rng.integers(1, 600))))
        cols = columns(events)
        graph = build_links(cols)
        (vector,) = compute_feature_matrix(graph, [PairKey.of("p1", "p2")])
        assert vector.shape == (175,)
        assert np.isfinite(vector).all()
        counts = [126, 18, 12, 3, 14, 2]
        assert sum(counts) == 175
        boundaries = np.cumsum(counts)
        assert boundaries[-1] == len(manifest.FEATURE_NAMES)
    report_pass(1, 1.0, timer, "vector has exactly 175 finite values, groups 126/18/12/3/14/2")


def test_criterion_2_graph_layer_oracle_equivalence(default_window):
    with Timer() as timer:
        rng = np.random.default_rng(2024)
        for graph_index in range(50):
            n_users = int(rng.integers(8, 51))
            n_events = int(rng.integers(100, 2001))
            users = [f"u{i:02d}" for i in range(n_users)]
            events = []
            for _ in range(n_events):
                a, b = rng.choice(n_users, size=2, replace=False)
                ts = int(rng.integers(default_window.start, default_window.end))
                kind = "text" if rng.random() < 0.25 else "call"
                events.append(ev(users[a], users[b], ts, kind, int(rng.integers(0, 900))))
            graph = build_links(columns(events))
            oracle = recount_links(events, default_window)

            got_pairs = [(k.first, k.second) for k in mutual_top_rank_pairs(graph)]
            assert got_pairs == mutual_pairs_brute(oracle)
            ranked = ranked_alters(graph)
            for user in users:
                assert ranked.get(user, []) == rank_alters_brute(oracle, user)
            keys = graph.keys()
            assert common_contacts(graph, keys).tolist() == [
                list(common_contacts_brute(oracle, key.first, key.second)) for key in keys
            ]
    report_pass(2, 10.0, timer, "50 random graphs match brute-force rank/mutual/common exactly")


def test_criterion_3_statistics_correctness():
    with Timer() as timer:
        stats = dist_stats([1, 2, 3])
        assert stats.std == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert stats.skew == 0.0
        assert stats.kurt == pytest.approx(-1.5, rel=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            scale = 10.0 ** float(rng.integers(-2, 4))
            series = rng.uniform(-scale, scale, size=n)
            got = np.asarray(dist_stats(series))
            want = np.asarray(moment_stats(series))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    report_pass(3, 5.0, timer, "dist_stats matches the direct moment oracle on 1000 series")


def test_criterion_4_standardization():
    with Timer() as timer:
        rng = np.random.default_rng(4)
        scales = 10 ** rng.uniform(-3, 3, size=175)
        offsets = rng.uniform(-100, 100, size=175)
        matrix = rng.standard_normal((5000, 175)) * scales + offsets
        params = fit_scaler(matrix)
        z = apply_scaler(matrix, params)
        mean = z.mean(axis=0)
        std = np.sqrt(((z - mean) ** 2).mean(axis=0))
        assert np.abs(mean).max() < 1e-10
        assert np.abs(std - 1.0).max() < 1e-8
    report_pass(4, 5.0, timer, "5000x175 standardization holds |mean|<1e-10, |std-1|<1e-8")


def test_criterion_5_pca_rotation_and_planted_factors():
    with Timer() as timer:
        config = planted_factors(2000, seed=42)
        dataset = generate(config)
        graph = build_links(dataset.columns)
        pairs = [PairKey.of(p.first, p.second) for p in dataset.truth]
        matrix = compute_feature_matrix(graph, pairs)
        z = apply_scaler(matrix, fit_scaler(matrix))
        result = pca(z)

        centered = z - z.mean(axis=0)
        covariance = centered.T @ centered / z.shape[0]
        rebuilt = (result.components.T * result.eigenvalues) @ result.components
        assert np.linalg.norm(rebuilt - covariance) < 1e-8
        gram = result.components @ result.components.T
        assert np.abs(gram - np.eye(175)).max() < 1e-8
        assert result.eigenvalues.sum() == pytest.approx(175.0, abs=1e-6)

        load = loadings(result, 5)
        rotated = varimax(load)
        np.testing.assert_allclose(
            (rotated.loadings**2).sum(axis=1), (load**2).sum(axis=1), atol=1e-6
        )

        # 2-factor angle-grid oracle
        base = np.zeros((8, 2))
        base[:4, 0] = (0.9, 0.8, 0.85, 0.7)
        base[4:, 1] = (0.88, 0.75, 0.8, 0.65)
        theta = 0.5
        mixed = base @ np.asarray(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        two = varimax(mixed, kaiser_normalize=False)
        best = -np.inf
        for angle in np.linspace(0.0, np.pi / 2, 200_000, endpoint=False):
            c, s = math.cos(angle), math.sin(angle)
            best = max(best, varimax_criterion(mixed @ np.asarray([[c, -s], [s, c]])))
        assert varimax_criterion(two.loadings) == pytest.approx(best, abs=1e-4)

        ratios = result.explained_variance_ratio
        elbow = ratios[5] / ratios[4]
        assert elbow < 0.5

        assignment = assign_factors(rotated.loadings, manifest.FEATURE_NAMES, cutoff=0.4)
        assigned_to = {
            name: j for j, factor in enumerate(assignment.factors) for name, _ in factor
        }
        membership = planted_factor_membership()
        total = sum(len(names) for names in membership.values())
        recovered = 0
        majority_factors = []
        for names in membership.values():
            factor_ids = [assigned_to[n] for n in names if n in assigned_to]
            assert factor_ids, "planted group vanished below the cutoff"
            values, counts = np.unique(factor_ids, return_counts=True)
            majority = int(values[np.argmax(counts)])
            majority_factors.append(majority)
            recovered += sum(1 for f in factor_ids if f == majority)
        assert len(set(majority_factors)) == 5, "planted groups collapsed onto one factor"
        fraction = recovered / total
        assert fraction >= 0.9
    report_pass(
        5,
        60.0,
        timer,
        f"PCA reconstructs covariance, varimax matches the angle oracle, planted recovery "
        f"{fraction:.0%}, scree ratio6/ratio5 {elbow:.2f}",
    )


def test_criterion_6_optimizer_checks(default_run):
    with Timer() as timer:
        pool, test = default_run.pool, default_run.test
        sample = balanced_sample(pool, 800, seed=0)

        for trainer, kind in ((train_logreg, "logreg"), (train_linear_svm, "lsvm")):
            model = trainer(sample.x, sample.y, penalty="l2", c=1.0)
            gw, gb = smooth_gradient(
                model.weights, model.bias, sample.x, sample.y, kind, "l2", 1.0
            )
            grad_norm = math.sqrt(float(gw @ gw) + gb * gb)
            assert grad_norm < 1e-5
            rng = np.random.default_rng(6)
            for j in rng.choice(175, size=20, replace=False):
                eps = 1e-5
                shift = np.zeros(175)
                shift[j] = eps
                fd = (
                    objective_value(model.weights + shift, model.bias, sample.x, sample.y, kind, "l2", 1.0)
                    - objective_value(model.weights - shift, model.bias, sample.x, sample.y, kind, "l2", 1.0)
                ) / (2 * eps)
                assert fd == pytest.approx(float(gw[j]), abs=1e-4)
            flipped = trainer(sample.x, 1 - sample.y, penalty="l2", c=1.0)
            np.testing.assert_allclose(model.weights, -flipped.weights, atol=1e-6)
            assert model.bias == pytest.approx(-flipped.bias, abs=1e-6)

        # l1 selection then refit: >=30% zeroed without losing >2 accuracy points
        selector = train_logreg(sample.x, sample.y, penalty="l1", c=30.0, max_iter=2000)
        kept = select_features(selector, threshold=1e-5)
        zeroed_fraction = 1.0 - kept.size / 175
        assert zeroed_fraction >= 0.30

        full_model = cross_validate(sample, "logreg", list(C_GRID), seed=0).model
        accuracy_full = float((full_model.predict(test.x) == test.y).mean())
        reduced = LabeledDataset(sample.x[:, kept], sample.y, sample.groups, sample.row_ids)
        reduced_model = cross_validate(reduced, "logreg", list(C_GRID), seed=0).model
        accuracy_reduced = float((reduced_model.predict(test.x[:, kept]) == test.y).mean())
        assert accuracy_reduced >= accuracy_full - 0.02
    report_pass(
        6,
        120.0,
        timer,
        f"gradients vanish and match FD; l1 zeroes {zeroed_fraction:.0%} of features "
        f"(accuracy {accuracy_full:.3f} -> {accuracy_reduced:.3f})",
    )


def test_criterion_7_bound_arithmetic():
    with Timer() as timer:
        zero = bayes_bounds(0.0)
        assert (zero.bayes_lower, zero.bayes_upper) == (0.0, 0.0)
        half = bayes_bounds(0.5)
        assert half.bayes_lower == pytest.approx(0.5, abs=1e-12)
        assert half.bayes_upper == 0.5
        inverted = bayes_bounds(0.4352)
        assert inverted.bayes_lower == pytest.approx(0.32, abs=1e-4)
        assert inverted.max_accuracy_upper == pytest.approx(0.68, abs=1e-4)
    report_pass(7, 1.0, timer, "bounds(0), bounds(0.5), and the 0.4352 -> 0.68 identity hold")


def test_criterion_8_bound_sandwich_on_known_mixtures():
    with Timer() as timer:
        results = []
        for separation in (0.5, 1.0, 1.5):
            means = (np.zeros(2), np.asarray([2.0 * separation, 0.0]))
            oracle = GaussianClassOracle(priors=(0.5, 0.5), means=means, sigma=1.0)
            true_error = gaussian_bayes_error(oracle)
            hits = 0
            for seed in range(20):
                rng = np.random.default_rng(8000 + seed)
                train_x, train_y = oracle.sample(5000, rng)
                test_x, test_y = oracle.sample(5000, rng)
                bounds = bayes_bounds(one_nn_error(train_x, train_y, test_x, test_y))
                if bounds.bayes_lower - 0.02 <= true_error <= bounds.bayes_upper + 0.02:
                    hits += 1
            results.append((separation, true_error, hits))
            assert hits >= 19, f"d/(2 sigma)={separation}: only {hits}/20 runs inside the sandwich"
        assert results[1][1] == pytest.approx(0.1587, abs=5e-5)
    report_pass(
        8,
        120.0,
        timer,
        "sandwich holds in " + ", ".join(f"{h}/20 runs at {s}" for s, _, h in results),
    )


@pytest.fixture(scope="module")
def big_run() -> SyntheticRun:
    return build_run(n_pairs=10_000, seed=1, n_test=2500, split_seed=99)


def test_criterion_9_end_to_end_classification(big_run):
    with Timer() as timer:
        pool, test = big_run.pool, big_run.test
        result = seed_ensemble(
            pool, test.x, "lsvm", list(C_GRID), seeds=(0, 1, 2, 3, 4), n_train=4000
        )
        report = evaluate(result.predictions, test.y, test.groups, result.probabilities)
        margin = report.accuracy - big_run.baseline
        assert margin >= 0.10, f"accuracy {report.accuracy:.3f} vs baseline {big_run.baseline:.3f}"

        # per-relationship table in the shape of the composition targets
        expected_codes = {
            "-Y peers", "+Y peers", "-M peers", "+M peers", "-L peers", "+L peers",
            "-O peers", "+O peers", "Y child", "M child", "L child",
        }
        assert set(report.per_group) == expected_codes
        share_sum = sum(g.share for g in report.per_group.values())
        assert share_sum == pytest.approx(1.0, abs=1e-9)
        assert report.histograms is not None
        for code in expected_codes | {"all"}:
            bins = report.histograms[code]
            assert len(bins) == 20
            assert sum(bins) == pytest.approx(1.0)

        # age-restricted contrast on the oldest peer bracket
        config = TrainConfig(kind="lsvm", grid=C_GRID, seeds=(0, 1, 2, 3, 4))
        restricted_report = age_restricted_experiment(pool, test, "O", config)
        bracket_mask = np.asarray(
            [code in ("-O peers", "+O peers") for code in test.groups], dtype=bool
        )
        full_on_bracket = evaluate(
            result.predictions[bracket_mask], test.y[bracket_mask],
            [g for g, m in zip(test.groups, bracket_mask) if m],
        )
        gap_full = full_on_bracket.tpr - full_on_bracket.tnr
        gap_restricted = restricted_report.tpr - restricted_report.tnr
        assert abs(gap_full - gap_restricted) > 0.02
        direction = (
            "restricted training evens the OGP/SGP split"
            if abs(gap_restricted) < abs(gap_full)
            else "restricted training widens the OGP/SGP split"
        )
    report_pass(
        9,
        600.0,
        timer,
        f"ensemble accuracy {report.accuracy:.3f} beats baseline {big_run.baseline:.3f} "
        f"by {margin:.3f}; O-bracket OGP/SGP gap {gap_full:+.3f} -> {gap_restricted:+.3f} "
        f"({direction})",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    from linkcdr.cli import main

    with Timer() as timer:
        digests = []
        for run in ("first", "second"):
            base = tmp_path / run
            assert main([
                "generate", "--preset", "table3-like", "--n-pairs", "1000",
                "--seed", "21", "--out", str(base / "gen"),
            ]) == 0
            assert main([
                "pairs", "--events", str(base / "gen" / "events.csv"),
                "--subscribers", str(base / "gen" / "subscribers.csv"),
                "--out", str(base / "pairs"),
            ]) == 0
            assert main([
                "features", "--events", str(base / "gen" / "events.csv"),
                "--pairs", str(base / "pairs" / "pairs.csv"),
                "--out", str(base / "features"),
            ]) == 0
            assert main([
                "train", "--features", str(base / "features" / "features.csv"),
                "--pairs", str(base / "pairs" / "pairs.csv"),
                "--task", "ogp", "--model", "lsvm", "--n-train", "500",
                "--n-test", "300", "--seed", "17", "--out", str(base / "train"),
            ]) == 0
            digests.append(
                tuple(
                    (base / stage / name).read_bytes()
                    for stage, name in (
                        ("features", "features.csv"),
                        ("train", "model.json"),
                        ("train", "report.json"),
                    )
                )
            )
        assert digests[0] == digests[1]
    report_pass(
        10, 600.0, timer, "two identical runs produced byte-identical features/model/report"
    )
