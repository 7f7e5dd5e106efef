"""CLI stages: file handoffs, manifests, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from linkcdr.cli import BLAS_THREADS, PRESET_NAMES, main
from linkcdr.decompose import loadings, pca, varimax
from linkcdr.io_utils import (
    read_features_csv,
    read_pairs_csv,
    sha256_file,
    write_features_csv,
    write_pairs_csv,
)
from linkcdr.manifest import FEATURE_NAMES, N_FEATURES
from linkcdr.relations import PairKey
from linkcdr.scaling import apply_scaler, fit_scaler

SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One small generate -> pairs -> features chain shared by the tests."""
    root = tmp_path_factory.mktemp("pipeline")
    gen, pairs, feats = root / "gen", root / "pairs", root / "feats"
    assert main([
        "generate", "--preset", "table3-like", "--n-pairs", "800",
        "--seed", "13", "--verify", "--out", str(gen),
    ]) == 0
    assert main([
        "pairs", "--events", str(gen / "events.csv"),
        "--subscribers", str(gen / "subscribers.csv"), "--out", str(pairs),
    ]) == 0
    assert main([
        "features", "--events", str(gen / "events.csv"),
        "--pairs", str(pairs / "pairs.csv"), "--out", str(feats),
    ]) == 0
    return {"root": root, "gen": gen, "pairs": pairs, "feats": feats}


class TestGenerateStage:
    def test_outputs_and_manifest(self, pipeline_dirs):
        gen = pipeline_dirs["gen"]
        for name in ("events.csv", "subscribers.csv", "truth.csv", "manifest.json", "verify.json"):
            assert (gen / name).exists()
        manifest = json.loads((gen / "manifest.json").read_text())
        assert manifest["subcommand"] == "generate"
        assert manifest["seeds"] == [13]
        recorded = manifest["outputs"]["events.csv"]["sha256"]
        assert recorded == sha256_file(str(gen / "events.csv"))

    def test_verify_report_ok(self, pipeline_dirs):
        verify = json.loads((pipeline_dirs["gen"] / "verify.json").read_text())
        assert verify["ok"] and verify["recovered_fraction"] >= 0.99

    def test_manifest_config_reruns_the_stage(self, tmp_path):
        """The flags a manifest records under ``config`` run the stage again:
        the rerun writes the bytes the first manifest records."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([
            "generate", "--verify", "--n-pairs", "30", "--seed", "4", "--utc-offset", "19800",
            "--out", str(first),
        ]) == 0
        recorded = json.loads((first / "manifest.json").read_text())
        argv = [recorded["subcommand"]]
        for key, value in recorded["config"].items():
            if value is not None and value is not False:
                argv.append("--" + key.replace("_", "-"))
                argv += [] if value is True else [str(value)]
        assert main([*argv, "--out", str(second)]) == 0
        outputs = recorded["outputs"]
        assert set(outputs) == {path.name for path in second.iterdir()} - {"manifest.json"}
        for name, entry in outputs.items():
            assert sha256_file(str(second / name)) == entry["sha256"], name


class TestPairsStage:
    def test_regularity_postcondition(self, pipeline_dirs):
        rows = read_pairs_csv(str(pipeline_dirs["pairs"] / "pairs.csv"))
        assert rows
        assert all(row["months_active"] >= 5 for row in rows)

    def test_pairs_match_truth(self, pipeline_dirs):
        truth_rows = (pipeline_dirs["gen"] / "truth.csv").read_text().splitlines()[1:]
        planted = {tuple(line.split(",")[:2]) for line in truth_rows}
        extracted = {
            (row["first"], row["second"])
            for row in read_pairs_csv(str(pipeline_dirs["pairs"] / "pairs.csv"))
        }
        assert extracted <= planted
        assert len(extracted) >= 0.99 * len(planted)

    def test_labels_populated(self, pipeline_dirs):
        rows = read_pairs_csv(str(pipeline_dirs["pairs"] / "pairs.csv"))
        assert all(row["label_code"] for row in rows)

    @staticmethod
    def run_on_calls(tmp_path, durations) -> int:
        events = tmp_path / "events.csv"
        events.write_text(
            "caller_id,callee_id,timestamp,kind,duration\n"
            + "".join(f"a,b,{1167609700 + i},call,{d}\n" for i, d in enumerate(durations))
        )
        return main(["pairs", "--events", str(events), "--min-months", "0",
                     "--out", str(tmp_path / "p")])

    def test_duration_total_is_the_exact_sum(self, tmp_path):
        assert self.run_on_calls(tmp_path, [2**53, 1]) == 0
        (row,) = read_pairs_csv(str(tmp_path / "p" / "pairs.csv"))
        assert row["duration_total"] == 2**53 + 1

    def test_duration_total_past_int64_is_fatal(self, tmp_path, capsys):
        assert self.run_on_calls(tmp_path, [9 * 10**17] * 11) == 1
        assert "fatal: call durations of link (a, b) sum past int64" in capsys.readouterr().err
        assert not (tmp_path / "p" / "pairs.csv").exists()


class TestManifestChaining:
    def test_stage_inputs_hash_match_previous_outputs(self, pipeline_dirs):
        gen_manifest = json.loads((pipeline_dirs["gen"] / "manifest.json").read_text())
        pairs_manifest = json.loads((pipeline_dirs["pairs"] / "manifest.json").read_text())
        feats_manifest = json.loads((pipeline_dirs["feats"] / "manifest.json").read_text())
        assert (
            pairs_manifest["inputs"]["events"]["sha256"]
            == gen_manifest["outputs"]["events.csv"]["sha256"]
        )
        assert (
            feats_manifest["inputs"]["pairs"]["sha256"]
            == pairs_manifest["outputs"]["pairs.csv"]["sha256"]
        )



class TestTrainAndDownstream:
    def test_train_evaluate_report(self, pipeline_dirs):
        root = pipeline_dirs["root"]
        train = root / "train"
        code = main([
            "train", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--model", "logreg", "--n-train", "80",
            "--n-test", "60", "--seed", "4", "--seeds", "3", "--out", str(train),
        ])
        assert code == 0
        report = json.loads((train / "report.json").read_text())
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
        assert report["seeds"] == [4, 5, 6]
        model = json.loads((train / "model.json").read_text())
        assert len(model["weights"]) == 175
        assert model["calibration"] is not None
        assert len(model["per_seed_fit"]) == 3
        for fit in model["per_seed_fit"]:
            assert set(fit) == {"n_iterations", "grad_map_norm", "converged"}
            assert 1 <= fit["n_iterations"] <= 1000
            assert fit["converged"] == (fit["grad_map_norm"] < 1e-6)
        # one [C, mean fold accuracy] row per grid value, per seed; the
        # chosen C is the first best row
        assert len(model["per_seed_cv"]) == 3
        for table, chosen in zip(model["per_seed_cv"], model["per_seed_params"]):
            assert [row[0] for row in table] == [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0]
            scores = [row[1] for row in table]
            assert all(0.0 <= s <= 1.0 for s in scores)
            assert table[scores.index(max(scores))][0] == chosen
        assert model["selector_fit"] is None

        # the run manifest chains back to the features stage by hash
        train_manifest = json.loads((train / "manifest.json").read_text())
        feats_manifest = json.loads(
            (pipeline_dirs["feats"] / "manifest.json").read_text()
        )
        assert (
            train_manifest["inputs"]["features"]["sha256"]
            == feats_manifest["outputs"]["features.csv"]["sha256"]
        )

        # external scoring of the emitted predictions reproduces the metrics
        scored = root / "scored"
        assert main([
            "evaluate", "--predictions", str(train / "predictions.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--out", str(scored),
        ]) == 0
        rescored = json.loads((scored / "report.json").read_text())
        assert rescored["metrics"]["accuracy"] == report["metrics"]["accuracy"]
        assert rescored["metrics"]["confusion"] == report["metrics"]["confusion"]

        summary = root / "summary"
        assert main([
            "report", "--reports", str(train / "report.json"), "--out", str(summary),
        ]) == 0
        text = (summary / "summary.txt").read_text()
        assert "accuracy=" in text and "relationship" in text
        histo = (summary / "histograms.csv").read_text().splitlines()
        assert histo[0] == "report,group,bin_lo,bin_hi,rel_freq"
        assert len(histo) > 20

    @pytest.mark.parametrize("selector", ["lr-l1", "lsvm-l1"])
    def test_feature_selection_path(self, pipeline_dirs, selector):
        root = pipeline_dirs["root"]
        out = root / f"train_select_{selector}"
        code = main([
            "train", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--model", "logreg", "--feature-select", selector,
            "--n-train", "80", "--n-test", "60",
            "--seed", "4", "--seeds", "3", "--out", str(out),
        ])
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        kept = model["selected_features"]
        assert 0 < len(kept) < 175
        assert len(model["weights"]) == len(kept)
        fit = model["selector_fit"]
        assert set(fit) == {"n_iterations", "grad_map_norm", "converged"}
        assert 1 <= fit["n_iterations"] <= 1000
        assert fit["converged"] is True and fit["grad_map_norm"] < 1e-6

    def test_bayes_bounds_stage(self, pipeline_dirs):
        root = pipeline_dirs["root"]
        out = root / "bounds"
        assert main([
            "bayes-bounds", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--n-test", "60", "--seed", "4", "--out", str(out),
        ]) == 0
        bounds = json.loads((out / "bounds.json").read_text())
        assert 0 <= bounds["bayes_lower"] <= bounds["bayes_upper"] <= 0.5
        assert bounds["max_accuracy_upper"] >= bounds["max_accuracy_lower"]


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["pairs", "--bogus-flag", "x"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["--n-pairs", "20", "--config", "gen.cfg"], []], ids=["config", "no-n-pairs"]
    )
    def test_generate_takes_its_settings_from_its_flags(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", *argv, "--out", str(tmp_path / "g")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --config" if argv else "--n-pairs") in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-pairs", "abc", "invalid int value: 'abc'"),
            ("--seed", "1.5", "invalid int value: '1.5'"),
            ("--utc-offset", "east", "invalid int value: 'east'"),
            ("--preset", "bogus", "invalid choice: 'bogus'"),
        ],
    )
    def test_generate_unparseable_flag_exits_two(self, tmp_path, capsys, flag, value, message):
        argv = {"--n-pairs": "20", flag: value}
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", *(t for item in argv.items() for t in item),
                  "--out", str(tmp_path / "g")])
        assert excinfo.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("n_pairs", ["0", "-1"])
    def test_generate_nonpositive_pairs_exits_two(self, tmp_path, capsys, n_pairs):
        out = tmp_path / "g"
        assert main(["generate", "--n-pairs", n_pairs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --n-pairs {n_pairs} must be positive\n"
        assert not out.exists()

    def test_missing_file_is_fatal(self, tmp_path):
        assert main([
            "pairs", "--events", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
        ]) == 1

    def test_bad_config_exits_two(self, pipeline_dirs, tmp_path):
        code = main([
            "train", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--n-train", "80", "--n-test", "999999",
            "--out", str(tmp_path / "t"),
        ])
        assert code == 2

    def test_non_numeric_feature_value_is_fatal(self, pipeline_dirs, tmp_path, capsys):
        lines = (pipeline_dirs["feats"] / "features.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[5] = "abc"
        lines[3] = ",".join(fields)
        features = tmp_path / "features.csv"
        features.write_text("".join(lines))
        code = main(["pca", "--features", str(features), "--out", str(tmp_path / "p")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fatal: ") and "line 4" in err and "'abc'" in err

    def test_non_integer_pair_count_is_fatal(self, pipeline_dirs, tmp_path, capsys):
        lines = (pipeline_dirs["pairs"] / "pairs.csv").read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[2] = "abc"  # calls_total
        lines[2] = ",".join(fields)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("".join(lines))
        code = main([
            "bayes-bounds", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pairs), "--task", "ogp", "--n-test", "60", "--out", str(tmp_path / "b"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fatal: {pairs}: bad pairs row on line 3: ") and "'abc'" in err

    def test_bad_prediction_is_fatal(self, pipeline_dirs, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("row_id,prediction,probability\na|b,yes,\n")
        code = main([
            "evaluate", "--predictions", str(predictions),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"), "--task", "ogp",
            "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"fatal: {predictions}: bad predictions row on line 2: prediction 'yes'"
        )

    def test_repeated_prediction_row_is_fatal(self, pipeline_dirs, train_dir, tmp_path, capsys):
        lines = (train_dir / "predictions.csv").read_text().splitlines(keepends=True)
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("".join(lines + lines[1:2]))
        code = main([
            "evaluate", "--predictions", str(predictions),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"), "--task", "ogp",
            "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        row_id = lines[1].split(",")[0]
        assert capsys.readouterr().err.startswith(
            f"fatal: {predictions}: bad predictions row on line {len(lines) + 1}: "
            f"row id {row_id!r} repeats line 2"
        )
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "name", ["events", "subscribers", "pairs", "features", "predictions"]
    )
    def test_bad_header_names_its_file(self, pipeline_dirs, tmp_path, capsys, name):
        gen, pairs, feats = pipeline_dirs["gen"], pipeline_dirs["pairs"], pipeline_dirs["feats"]
        files = {
            "events": gen / "events.csv",
            "subscribers": gen / "subscribers.csv",
            "pairs": pairs / "pairs.csv",
            "features": feats / "features.csv",
        }
        bad = files[name] = tmp_path / f"{name}.csv"
        bad.write_text("bad\nx,y\n")
        argv = {
            "events": ["pairs", "--events", files["events"]],
            "subscribers": [
                "ingest", "--events", files["events"], "--subscribers", files["subscribers"],
            ],
            "pairs": ["features", "--events", files["events"], "--pairs", files["pairs"]],
            "features": ["pca", "--features", files["features"]],
            "predictions": [
                "evaluate", "--predictions", bad, "--pairs", files["pairs"], "--task", "ogp",
            ],
        }[name]
        out = tmp_path / "o"
        assert main([*map(str, argv), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"fatal: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("stage", ["pca", "train", "bayes-bounds"])
    def test_non_finite_feature_value_is_fatal(self, pipeline_dirs, tmp_path, capsys, stage, value):
        lines = (pipeline_dirs["feats"] / "features.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[5] = value
        lines[3] = ",".join(fields)
        features = tmp_path / "features.csv"
        features.write_text("".join(lines))
        argv = {
            "pca": ["pca"],
            "train": ["train", "--model", "knn", "--n-train", "80", "--n-test", "60"],
            "bayes-bounds": ["bayes-bounds", "--loo"],
        }[stage]
        if stage != "pca":
            argv += ["--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"), "--task", "ogp"]
        out = tmp_path / "o"
        assert main([*argv, "--features", str(features), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"fatal: {features}: pair {fields[0]}|{fields[1]} has non-finite "
            f"{FEATURE_NAMES[3]} = {float(value)}"
        )
        assert not out.exists() or os.listdir(out) == []

    def test_ingest_validation_failure_exits_two(self, tmp_path):
        events = tmp_path / "events.csv"
        # single event: every other month in the window is empty
        events.write_text(
            "caller_id,callee_id,timestamp,kind,duration\n"
            "a,b,1167609700,call,10\n"
        )
        subscribers = tmp_path / "subscribers.csv"
        subscribers.write_text("user_id,age,gender,postcode\na,30,F,\n")
        code = main([
            "ingest", "--events", str(events), "--subscribers", str(subscribers),
            "--out", str(tmp_path / "v"),
        ])
        assert code == 2
        report = json.loads((tmp_path / "v" / "validation.json").read_text())
        assert not report["ok"] and len(report["warnings"]) == 6


class TestFlagRanges:
    """Out-of-range numeric flags are usage errors: exit 2 naming the flag,
    before any output is written."""

    @staticmethod
    def labeled(pipeline_dirs) -> list[str]:
        return [
            "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
        ]

    @pytest.mark.parametrize("n_train", ["-3", "0", "1", "100000"])
    def test_bayes_bounds_n_train(self, pipeline_dirs, tmp_path, capsys, n_train):
        code = main([
            "bayes-bounds", *self.labeled(pipeline_dirs), "--task", "ogp",
            "--n-train", n_train, "--n-test", "60", "--out", str(tmp_path / "b"),
        ])
        assert code == 2
        assert f"--n-train {n_train} must lie in 2.." in capsys.readouterr().err
        assert not (tmp_path / "b" / "bounds.json").exists()

    @pytest.mark.parametrize("n_comp", ["0", "1", "176", "500"])
    def test_pca_n_comp(self, pipeline_dirs, tmp_path, capsys, n_comp):
        code = main([
            "pca", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--n-comp", n_comp, "--out", str(tmp_path / "p"),
        ])
        assert code == 2
        assert f"--n-comp {n_comp} must lie in 2..175" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("min_months", ["-2", "8"])
    @pytest.mark.parametrize("stage", ["generate", "pairs", "features"])
    def test_min_months(self, pipeline_dirs, tmp_path, capsys, stage, min_months):
        gen, pairs = pipeline_dirs["gen"], pipeline_dirs["pairs"]
        events = ["--events", str(gen / "events.csv")]
        argv = {
            "generate": ["generate", "--n-pairs", "20", "--verify"],
            "pairs": ["pairs", *events],
            "features": [
                "features", *events, "--pairs", str(pairs / "pairs.csv"),
                "--common-contacts-filtered",
            ],
        }[stage]
        out = tmp_path / "o"
        assert main([*argv, "--min-months", min_months, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --min-months {min_months} must lie in 0..7\n"
        assert not out.exists()

    @pytest.mark.parametrize("select_c", ["0", "-1", "nan", "inf"])
    def test_train_select_c(self, pipeline_dirs, tmp_path, capsys, select_c):
        code = main([
            "train", *self.labeled(pipeline_dirs), "--task", "ogp",
            "--feature-select", "lr-l1", "--select-c", select_c,
            "--n-train", "80", "--n-test", "60", "--out", str(tmp_path / "t"),
        ])
        assert code == 2
        assert f"--select-c {float(select_c)} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["-0.1", "1.5", "7", "nan"])
    def test_pca_cutoff(self, pipeline_dirs, tmp_path, capsys, cutoff):
        code = main([
            "pca", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--cutoff", cutoff, "--out", str(tmp_path / "p"),
        ])
        assert code == 2
        assert f"--cutoff {float(cutoff)} must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("n_test", ["0", "100000"])
    @pytest.mark.parametrize(
        "stage",
        [["train", "--task", "ogp", "--n-train", "80"], ["bayes-bounds", "--task", "ogp"]],
        ids=["train", "bayes-bounds"],
    )
    def test_n_test(self, pipeline_dirs, tmp_path, capsys, stage, n_test):
        out = tmp_path / "o"
        code = main([*stage, *self.labeled(pipeline_dirs), "--n-test", n_test, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --n-test {n_test} must lie in 1..")
        assert not out.exists()

    def test_bayes_bounds_default_n_test_is_named(self, pipeline_dirs, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["bayes-bounds", *self.labeled(pipeline_dirs), "--task", "ogp",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: --n-test 1000 \(the default\) must lie in 1\.\.\d+\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-1", "2"])
    @pytest.mark.parametrize(
        "stage",
        [
            ["train", "--task", "ogp", "--n-train", "80"],
            ["experiment", "age-restricted", "--bracket", "M"],
        ],
        ids=["train", "experiment"],
    )
    def test_seeds(self, pipeline_dirs, tmp_path, capsys, stage, seeds):
        code = main([
            *stage, *self.labeled(pipeline_dirs), "--n-test", "60",
            "--seeds", seeds, "--out", str(tmp_path / "s"),
        ])
        assert code == 2
        assert f"--seeds {seeds} must be a positive odd count" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["generate", "train", "bayes-bounds", "experiment"])
    def test_negative_seed(self, pipeline_dirs, tmp_path, capsys, stage):
        argv = {
            "generate": ["generate", "--n-pairs", "20"],
            "train": ["train", *self.labeled(pipeline_dirs), "--task", "ogp", "--n-train", "80"],
            "bayes-bounds": ["bayes-bounds", *self.labeled(pipeline_dirs), "--task", "ogp"],
            "experiment": [
                "experiment", "age-restricted", *self.labeled(pipeline_dirs), "--bracket", "M",
            ],
        }[stage]
        n_test = [] if stage == "generate" else ["--n-test", "60"]
        out = tmp_path / "o"
        assert main([*argv, *n_test, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed -1 must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("offset", ["90000", "-50401", "10000000000000000000"])
    @pytest.mark.parametrize("stage", ["generate", "features"])
    def test_utc_offset(self, pipeline_dirs, tmp_path, capsys, stage, offset):
        argv = {
            "generate": ["generate", "--n-pairs", "20"],
            "features": [
                "features", "--events", str(pipeline_dirs["gen"] / "events.csv"),
                "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            ],
        }[stage]
        out = tmp_path / "o"
        assert main([*argv, "--utc-offset", offset, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --utc-offset {offset} must lie in -50400..50400\n"
        )
        assert not out.exists()


# a reversed window and an empty one
EMPTY_WINDOWS = [("2007-08-01", "2007-01-01"), ("2007-08-01", "2007-08-01")]


class TestWindowFlags:
    def test_window_start_keeps_its_utc_offset(self):
        from linkcdr.cli import _window_from_args, build_parser

        args = build_parser().parse_args(
            ["pairs", "--events", "e.csv", "--out", "o",
             "--window-start", "2007-01-01T00:00:00+02:00", "--window-end", "2007-08-01"]
        )
        assert _window_from_args(args).start == 1167602400

    @pytest.mark.parametrize("stage", ["generate", "ingest", "pairs", "features"])
    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    def test_unparseable_window_exits_two_and_writes_nothing(
        self, pipeline_dirs, tmp_path, capsys, stage, flag
    ):
        gen, pairs = pipeline_dirs["gen"], pipeline_dirs["pairs"]
        events = ["--events", str(gen / "events.csv")]
        argv = {
            "generate": ["generate", "--n-pairs", "20"],
            "ingest": ["ingest", *events, "--subscribers", str(gen / "subscribers.csv")],
            "pairs": ["pairs", *events],
            "features": ["features", *events, "--pairs", str(pairs / "pairs.csv")],
        }[stage]
        window = {"--window-start": "2007-01-01", "--window-end": "2007-08-01", flag: "garbage"}
        out = tmp_path / "o"
        assert main([*argv, *(t for item in window.items() for t in item), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: 'garbage' is neither epoch seconds nor an ISO date or date-time\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("start, end", EMPTY_WINDOWS)
    @pytest.mark.parametrize("stage", ["generate", "pairs"])
    def test_empty_window_exits_two_and_writes_nothing(
        self, pipeline_dirs, tmp_path, capsys, stage, start, end
    ):
        events = ["--events", str(pipeline_dirs["gen"] / "events.csv")]
        argv = {"generate": ["generate", "--n-pairs", "20"], "pairs": ["pairs", *events]}[stage]
        out = tmp_path / "o"
        window = ["--window-start", start, "--window-end", end]
        assert main([*argv, *window, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: empty observation window: --window-start {start!r} "
            f"is not before --window-end {end!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["generate", "pairs"])
    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    def test_one_window_flag_exits_two_and_writes_nothing(
        self, pipeline_dirs, tmp_path, capsys, stage, flag
    ):
        events = ["--events", str(pipeline_dirs["gen"] / "events.csv")]
        argv = {"generate": ["generate", "--n-pairs", "20"], "pairs": ["pairs", *events]}[stage]
        out = tmp_path / "o"
        assert main([*argv, flag, "2007-01-01", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --window-start and --window-end must be given together\n"
        )
        assert not out.exists()

    def test_window_too_long_for_the_sort_key_exits_two_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # 2**29 pairs with their default pool of 2**25 make 2**30 + 2**25 users
        argv = ["generate", "--n-pairs", str(2**29), "--window-start", "0",
                "--window-end", str(2**33)]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: window of {2**33} s times {2**30 + 2**25} users reaches 2**63: "
            "too large for the int64 (time, caller) sort key\n"
        )
        assert not out.exists()

    def test_generate_then_ingest_across_1970(self, tmp_path):
        window = ["--window-start", "1969-09-01", "--window-end", "1970-03-01"]
        gen = tmp_path / "gen"
        assert main([
            "generate", "--preset", "table3-like", "--n-pairs", "50", "--seed", "1",
            *window, "--out", str(gen),
        ]) == 0
        rows = (gen / "events.csv").read_text().splitlines()[1:]
        assert any(row.split(",")[2].startswith("-") for row in rows)
        assert main([
            "ingest", "--events", str(gen / "events.csv"),
            "--subscribers", str(gen / "subscribers.csv"), *window,
            "--out", str(tmp_path / "ingest"),
        ]) == 0
        assert (tmp_path / "ingest" / "diagnostics.jsonl").read_text() == ""
        report = json.loads((tmp_path / "ingest" / "validation.json").read_text())
        assert report["n_events"] == len(rows)


class TestSplitHelpers:
    def test_pool_and_test_are_disjoint_and_cover(self):
        from linkcdr.cli import _split_pool_test

        pool, test = _split_pool_test(100, 30, seed=3)
        assert len(set(pool) & set(test)) == 0
        assert len(pool) == 70 and len(test) == 30
        assert sorted(np.concatenate([pool, test]).tolist()) == list(range(100))

    def test_train_predictions_never_cover_pool_rows(self, train_dir):
        predictions = (train_dir / "predictions.csv").read_text().splitlines()[1:]
        report = json.loads((train_dir / "report.json").read_text())
        assert len(predictions) == report["n_test"]
        row_ids = {line.rsplit(",", 2)[0] for line in predictions}
        assert len(row_ids) == len(predictions)  # unique test rows only


class TestCommonContactsFlag:
    def test_filtered_graph_changes_common_counts(self, pipeline_dirs, tmp_path):
        out = tmp_path / "feats_filtered"
        assert main([
            "features", "--events", str(pipeline_dirs["gen"] / "events.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--common-contacts-filtered", "--out", str(out),
        ]) == 0
        baseline = (pipeline_dirs["feats"] / "features.csv").read_text().splitlines()
        filtered = (out / "features.csv").read_text().splitlines()
        assert baseline[0] == filtered[0]
        # side links fall below the regularity filter, so common-contact
        # counts differ on at least one pair
        assert baseline[1:] != filtered[1:]


class TestAgeTaskAndKnn:
    def test_age35_task_with_knn_model(self, pipeline_dirs, tmp_path):
        out = tmp_path / "train_age_knn"
        code = main([
            "train", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "age35", "--model", "knn", "--n-train", "80",
            "--n-test", "60", "--seed", "2", "--seeds", "3", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == "age35"
        assert 0.0 <= report["metrics"]["accuracy"] <= 1.0
        model = json.loads((out / "model.json").read_text())
        assert model["kind"] == "knn"
        assert model["k"] in (1, 3, 5, 11, 21, 51)
        assert model["weights"] is None and model["calibration"] is None
        assert model["per_seed_fit"] is None and model["selector_fit"] is None
        assert [[row[0] for row in table] for table in model["per_seed_cv"]] == [
            [1, 3, 5, 11, 21, 51]
        ] * 3
        predictions = (out / "predictions.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",") for line in predictions)  # no probabilities

    def test_train_emits_scaler(self, pipeline_dirs, tmp_path):
        out = tmp_path / "train_scaler"
        assert main([
            "train", "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--task", "ogp", "--model", "logreg", "--n-train", "80",
            "--n-test", "60", "--seed", "4", "--seeds", "3", "--out", str(out),
        ]) == 0
        scaler = json.loads((out / "scaler.json").read_text())
        assert len(scaler["mean"]) == 175 and len(scaler["std"]) == 175
        assert all(s > 0 for s in scaler["std"])
        from linkcdr.manifest import manifest_hash

        assert scaler["manifest_hash"] == manifest_hash()


class TestPcaStage:
    def test_planted_factors_through_files(self, tmp_path):
        gen, pairs, feats, out = (
            tmp_path / "gen", tmp_path / "pairs", tmp_path / "feats", tmp_path / "pca"
        )
        assert main([
            "generate", "--preset", "planted-factors", "--n-pairs", "700",
            "--seed", "42", "--out", str(gen),
        ]) == 0
        assert main([
            "pairs", "--events", str(gen / "events.csv"),
            "--subscribers", str(gen / "subscribers.csv"), "--out", str(pairs),
        ]) == 0
        assert main([
            "features", "--events", str(gen / "events.csv"),
            "--pairs", str(pairs / "pairs.csv"), "--out", str(feats),
        ]) == 0
        assert main([
            "pca", "--features", str(feats / "features.csv"),
            "--n-comp", "5", "--cutoff", "0.4", "--out", str(out),
        ]) == 0

        factors = json.loads((out / "factors.json").read_text())
        assert factors["n_comp"] == 5 and factors["converged"]
        assert len(factors["factors"]) == 5
        assert all(len(f) > 0 for f in factors["factors"])

        scree = (out / "scree.csv").read_text().splitlines()
        assert scree[0] == "component,ratio,cumulative"
        ratios = [float(line.split(",")[1]) for line in scree[1:]]
        assert ratios[5] / ratios[4] < 0.5  # elbow after the fifth component

        loadings_rows = (out / "loadings.csv").read_text().splitlines()
        assert len(loadings_rows) == 176
        assert loadings_rows[0].startswith("feature,factor_1")

    def test_no_kaiser_rotates_without_row_normalization(self, pipeline_dirs, tmp_path):
        features, out = str(pipeline_dirs["feats"] / "features.csv"), tmp_path / "p"
        assert main(["pca", "--features", features, "--no-kaiser", "--out", str(out)]) == 0
        factors = json.loads((out / "factors.json").read_text())
        assert factors["kaiser_normalize"] is False
        _, matrix = read_features_csv(features)
        load = loadings(pca(apply_scaler(matrix, fit_scaler(matrix))), factors["n_comp"])
        want = varimax(load, kaiser_normalize=False).loadings
        rows = (out / "loadings.csv").read_text().splitlines()[1:]
        got = np.asarray([[float(v) for v in row.split(",")[1:]] for row in rows])
        np.testing.assert_array_equal(got, want)
        assert not np.allclose(want, varimax(load).loadings)  # the flag changes the rotation


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["pca"], ("scree.csv", "loadings.csv", "factors.json", "scaler.json")),
        # n_train < 175 features: the l2 fits' QR and solves run in BLAS
        (
            ["train", "--task", "ogp", "--model", "logreg", "--n-train", "100",
             "--n-test", "50", "--seeds", "1"],
            ("model.json", "predictions.csv", "report.json", "scaler.json"),
        ),
    ],
    ids=["pca", "train"],
)
def test_pca_bytes_do_not_depend_on_the_inherited_blas_threads(tmp_path, argv, outputs):
    """A stage pins one BLAS thread unless told otherwise, so its output
    matches a run with the thread variables set to 1. The two runs also
    differ in PYTHONHASHSEED, so neither output may depend on the order of
    a set or dict of strings, which one process cannot vary."""
    features, pairs_csv = tmp_path / "features.csv", tmp_path / "pairs.csv"
    rng = np.random.default_rng(5)
    pairs = [PairKey(f"a{i:03d}", f"b{i:03d}") for i in range(300)]
    write_features_csv(str(features), pairs, rng.standard_normal((300, N_FEATURES)))
    codes = rng.choice(["-Y peers", "+Y peers"], size=len(pairs))  # random OGP labels
    write_pairs_csv(
        str(pairs_csv),
        [
            {"first": p.first, "second": p.second, "calls_total": 1, "texts_total": 0,
             "duration_total": 60, "months_active": 5, "label_code": code, "younger_age": 25}
            for p, code in zip(pairs, codes)
        ],
    )
    labels = ["--pairs", str(pairs_csv)] if argv[0] == "train" else []
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = {
        "unset": {**unset, "PYTHONHASHSEED": "1"},
        "one": {**unset, **dict.fromkeys(BLAS_THREADS, "1"), "PYTHONHASHSEED": "2"},
    }
    for name, env in runs.items():
        subprocess.run(
            [sys.executable, "-m", "linkcdr.cli", *argv, "--features", str(features), *labels,
             "--out", str(tmp_path / name)],
            env={**env, "PYTHONPATH": path},
            check=True,
        )
    for name in outputs:
        assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    for name in runs:
        runtime = json.loads((tmp_path / name / "manifest.json").read_text())["runtime"]
        assert runtime["numpy"] == np.__version__
        assert runtime["simd"] == np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert all(runtime[variable] == "1" for variable in BLAS_THREADS)


class TestExperimentStage:
    def test_age_restricted_experiment_through_files(self, pipeline_dirs, tmp_path):
        out = tmp_path / "age"
        code = main([
            "experiment", "age-restricted",
            "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--bracket", "M", "--n-test", "150", "--seed", "3", "--seeds", "3",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "age_report.json").read_text())
        assert payload["bracket"] == "M"
        full, restricted = payload["full_training"], payload["restricted_training"]
        for section in (full, restricted):
            assert set(section["per_group"]) <= {"-M peers", "+M peers"}
            assert 0.0 <= section["accuracy"] <= 1.0
        assert payload["gap_direction"].startswith("restricted training")
        assert payload["ogp_sgp_gap_full"] == pytest.approx(full["tpr"] - full["tnr"])

        summary = tmp_path / "age_summary"
        assert main([
            "report", "--reports", str(out / "age_report.json"), "--out", str(summary),
        ]) == 0
        text = (summary / "summary.txt").read_text()
        assert "restricted OGP/SGP" in text

    def test_age_report_is_byte_deterministic(self, pipeline_dirs, train_dir, tmp_path):
        argv = stage_argv("experiment", pipeline_dirs, train_dir)
        for run in ("a", "b"):
            assert main([*argv, "--out", str(tmp_path / run)]) == 0
        report = "age_report.json"
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()

    def test_absent_bracket_exits_two(self, pipeline_dirs, tmp_path):
        code = main([
            "experiment", "age-restricted",
            "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--bracket", "<18", "--n-test", "150", "--seed", "3",
            "--out", str(tmp_path / "age18"),
        ])
        assert code == 2

    def test_small_bracket_fails_before_any_training(
        self, pipeline_dirs, tmp_path, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("an ensemble was trained before the bracket check")

        monkeypatch.setattr("linkcdr.cli.seed_ensemble", no_training)
        monkeypatch.setattr("linkcdr.learn.pipeline.seed_ensemble", no_training)
        code = main([
            "experiment", "age-restricted",
            "--features", str(pipeline_dirs["feats"] / "features.csv"),
            "--pairs", str(pipeline_dirs["pairs"] / "pairs.csv"),
            "--bracket", "O", "--n-test", "150", "--seed", "3",
            "--out", str(tmp_path / "ageO"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "bracket 'O' has only 10 pairs in its smaller class, need 50" in err


class TestBayesBoundsLoo:
    @pytest.mark.parametrize("flag", ["--n-train", "--n-test"])
    def test_split_flag_with_loo_exits_two(self, pipeline_dirs, tmp_path, capsys, flag):
        code = main([
            "bayes-bounds", *TestFlagRanges.labeled(pipeline_dirs), "--task", "ogp",
            "--loo", flag, "-3", "--out", str(tmp_path / "b"),
        ])
        assert code == 2
        assert f"{flag} does not apply with --loo" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


def copy_files(src, dst, *names):
    dst.mkdir()
    for name in names:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


class TestSiblingManifest:
    """An input is held to the manifest.json beside it before the stage runs."""

    def test_changed_input_exits_two_and_writes_nothing(self, pipeline_dirs, tmp_path, capsys):
        gen = copy_files(
            pipeline_dirs["gen"], tmp_path / "gen", "events.csv", "subscribers.csv", "manifest.json"
        )
        with open(gen / "events.csv", "a", encoding="utf-8") as handle:
            handle.write("u1,u2,1170000000,call,30\n")
        code = main([
            "pairs", "--events", str(gen / "events.csv"),
            "--subscribers", str(gen / "subscribers.csv"), "--out", str(tmp_path / "p"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"input events {gen / 'events.csv'}" in err
        assert str(gen / "manifest.json") in err
        assert not (tmp_path / "p").exists()

    def test_intact_chain_passes(self, pipeline_dirs, tmp_path):
        # generate -> pairs -> features passed in the fixture; train reads both
        assert main([
            "train", *TestFlagRanges.labeled(pipeline_dirs), "--task", "ogp",
            "--model", "logreg", "--n-train", "80", "--n-test", "60", "--seeds", "1",
            "--out", str(tmp_path / "t"),
        ]) == 0

    def test_input_without_manifest_passes(self, pipeline_dirs, tmp_path):
        bare = copy_files(pipeline_dirs["gen"], tmp_path / "bare", "events.csv", "subscribers.csv")
        assert main([
            "pairs", "--events", str(bare / "events.csv"),
            "--subscribers", str(bare / "subscribers.csv"), "--out", str(tmp_path / "p"),
        ]) == 0

    def test_manifest_not_listing_input_passes(self, pipeline_dirs, tmp_path):
        # pairs.csv and features.csv share a directory whose manifest, once
        # features has run, lists only features.csv
        shared = copy_files(pipeline_dirs["pairs"], tmp_path / "shared", "pairs.csv", "manifest.json")
        assert main([
            "features", "--events", str(pipeline_dirs["gen"] / "events.csv"),
            "--pairs", str(shared / "pairs.csv"), "--out", str(shared),
        ]) == 0
        assert main([
            "bayes-bounds", "--features", str(shared / "features.csv"),
            "--pairs", str(shared / "pairs.csv"), "--task", "ogp", "--loo",
            "--out", str(tmp_path / "b"),
        ]) == 0

    @pytest.mark.parametrize("payload", ["[]", '{"outputs": {}}', "not json", '{"subcommand": 1}'])
    def test_bad_manifest_exits_two(self, pipeline_dirs, tmp_path, capsys, payload):
        src = copy_files(pipeline_dirs["feats"], tmp_path / "src", "features.csv")
        (src / "manifest.json").write_text(payload)
        code = main([
            "pca", "--features", str(src / "features.csv"), "--out", str(tmp_path / "p"),
        ])
        assert code == 2
        assert "is not a stage manifest" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


@pytest.fixture(scope="module")
def train_dir(pipeline_dirs):
    """A one-seed train run whose predictions and report feed evaluate and report."""
    out = pipeline_dirs["root"] / "train_one_seed"
    assert main([
        "train", *TestFlagRanges.labeled(pipeline_dirs), "--task", "ogp", "--model", "logreg",
        "--n-train", "80", "--n-test", "60", "--seed", "4", "--seeds", "1", "--out", str(out),
    ]) == 0
    return out


def stage_argv(name: str, dirs: dict, train) -> list[str]:
    gen, pairs, feats = dirs["gen"], dirs["pairs"], dirs["feats"]
    events = ["--events", str(gen / "events.csv")]
    labeled = ["--features", str(feats / "features.csv"), "--pairs", str(pairs / "pairs.csv")]
    return {
        "generate": ["generate", "--n-pairs", "200", "--seed", "5", "--verify"],
        "ingest": ["ingest", *events, "--subscribers", str(gen / "subscribers.csv")],
        "pairs": ["pairs", *events, "--subscribers", str(gen / "subscribers.csv")],
        "features": ["features", *events, "--pairs", str(pairs / "pairs.csv")],
        "pca": ["pca", "--features", str(feats / "features.csv"), "--n-comp", "3"],
        "train": ["train", *labeled, "--task", "age35", "--model", "knn",
                  "--n-train", "80", "--n-test", "60", "--seeds", "1"],
        **{f"train --model {kind}": ["train", *labeled, "--task", "age35", "--model", kind,
                                     "--n-train", "80", "--n-test", "60", "--seeds", "1"]
           for kind in ("lsvm", "logreg")},
        "evaluate": ["evaluate", "--predictions", str(train / "predictions.csv"),
                     "--pairs", str(pairs / "pairs.csv"), "--task", "ogp"],
        "bayes-bounds": ["bayes-bounds", *labeled, "--task", "ogp", "--n-test", "60"],
        "bayes-bounds --loo": ["bayes-bounds", *labeled, "--task", "ogp", "--loo"],
        "experiment": ["experiment", "age-restricted", *labeled, "--bracket", "M",
                       "--n-test", "150", "--seed", "3", "--seeds", "1"],
        "report": ["report", "--reports", str(train / "report.json")],
    }[name]


INPUT_FLAGS = ("events", "subscribers", "features", "pairs", "predictions")
STAGES = ("generate", "ingest", "pairs", "features", "pca", "train", "evaluate",
          "bayes-bounds", "experiment", "report")


class TestStageRunner:
    @pytest.mark.parametrize("name", STAGES)
    def test_manifest_records_inputs_flags_and_outputs(
        self, pipeline_dirs, train_dir, tmp_path, name
    ):
        from linkcdr.cli import build_parser

        out = tmp_path / "out"
        argv = [*stage_argv(name, pipeline_dirs, train_dir), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == name

        written = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == written
        for file_name, entry in manifest["outputs"].items():
            assert entry["sha256"] == sha256_file(str(out / file_name))

        flags = vars(build_parser().parse_args(argv))
        inputs = {flag: flags[flag] for flag in INPUT_FLAGS if flags.get(flag)}
        inputs.update({os.path.basename(path): path for path in flags.get("reports", [])})
        assert {label: entry["path"] for label, entry in manifest["inputs"].items()} == inputs
        for label, entry in manifest["inputs"].items():
            assert entry["sha256"] == sha256_file(inputs[label])

        skipped = {"out", "handler", "command", "reports", *INPUT_FLAGS}
        assert manifest["config"] == {k: v for k, v in flags.items() if k not in skipped}


class TestReportInputs:
    """``report`` records each ``--reports`` file under its file name."""

    def test_same_file_name_exits_two_and_writes_nothing(self, train_dir, tmp_path, capsys):
        scored = copy_files(train_dir, tmp_path / "scored", "report.json")
        out = tmp_path / "summary"
        code = main([
            "report", "--reports", str(train_dir / "report.json"), str(scored / "report.json"),
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(train_dir / "report.json") in err and str(scored / "report.json") in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [("{bad", "is not a report"), ('{"metrics": {}}', "report lacks the key 'accuracy'")],
        ids=["not-json", "missing-key"],
    )
    def test_bad_report_is_fatal_and_writes_nothing(self, tmp_path, capsys, payload, message):
        report = tmp_path / "x.json"
        report.write_text(payload)
        out = tmp_path / "summary"
        assert main(["report", "--reports", str(report), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fatal: {report}") and message in err
        assert not out.exists()

    def test_distinct_file_names_each_get_a_section(self, train_dir, tmp_path):
        age = tmp_path / "age"
        age.mkdir()
        (age / "age_report.json").write_bytes((train_dir / "report.json").read_bytes())
        out = tmp_path / "summary"
        assert main([
            "report", "--reports", str(train_dir / "report.json"), str(age / "age_report.json"),
            "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"report.json", "age_report.json"}
        text = (out / "summary.txt").read_text()
        assert "== report ==" in text and "== age_report ==" in text


def test_benchmark_tracer_finds_every_layer():
    """perfbench/traced_stage.py wraps layer functions by their names in
    linkcdr modules; a name it cannot resolve would read 0 without an error."""
    root = Path(__file__).parent.parent
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import traced_stage; "
        "traced_stage.install(traced_stage.Tracer())"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, str(root / "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert "not found" not in done.stderr


def test_preset_choices_are_the_sorted_presets():
    from linkcdr.presets import PRESETS

    assert PRESET_NAMES == tuple(sorted(PRESETS))


def stage_env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# Runs one stage's main in a fresh process; its last stdout line is the exit
# status and the linkcdr modules loaded by the end.
LOADED_MODULES = (
    "import json, sys\n"
    "from linkcdr.cli import main\n"
    "try:\n"
    "    status = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    status = exc.code\n"
    "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('linkcdr')),\n"
    "                  'numpy.ma' in sys.modules]))\n"
)
SOLVERS = ("linkcdr.learn", "linkcdr.decompose", "linkcdr.bayes")
EXTRACTION = ("linkcdr.ingest", "linkcdr.pairgraph", "linkcdr.features", "linkcdr.synthgen",
              "linkcdr.presets")
MODELLING = (*SOLVERS, "linkcdr.synthgen", "linkcdr.presets")


@pytest.mark.parametrize(
    "name, unloaded",
    [
        *[(name, EXTRACTION) for name in ("pca", "train", "evaluate", "bayes-bounds", "report")],
        ("--help", EXTRACTION),
        *[(name, MODELLING) for name in ("ingest", "pairs", "features")],
        ("generate", SOLVERS),
    ],
)
def test_stage_loads_only_the_layers_it_runs(pipeline_dirs, train_dir, tmp_path, name, unloaded):
    """A stage imports a layer's module when it first calls into it, so a
    modelling stage never loads the parser, graph or generator, and an
    extraction stage never loads a solver (``linkcdr.learn`` covers its
    submodules too). No stage loads ``numpy.ma``, which ``np.median`` and a
    plain ``np.unique`` import under numpy 2.3 and later."""
    argv = ["--help"] if name == "--help" else [
        *stage_argv(name, pipeline_dirs, train_dir), "--out", str(tmp_path / "out")
    ]
    done = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        env=stage_env(), capture_output=True, text=True, check=True,
    )
    status, modules, masked = json.loads(done.stdout.splitlines()[-1])
    assert status == 0
    assert [m for m in modules if m.startswith(unloaded)] == []
    assert not masked


# Each layer a stage reaches through one of linkcdr.cli's deferred names.
TRACED_LAYERS = {
    "generate": ("synthgen.generate", "synthgen.write_dataset", "synthgen.verify_planted"),
    "ingest": ("ingest.parse_events", "ingest.parse_subscribers", "ingest.validate_dataset"),
    "pairs": ("ingest.parse_events", "ingest.parse_subscribers", "pairgraph.build_links",
              "pairgraph.regularity_filter", "pairgraph.mutual_top_rank"),
    "features": ("ingest.parse_events", "pairgraph.build_links", "features.matrix"),
    "pca": ("decompose.pca", "decompose.varimax"),
    "train": ("pipeline.seed_ensemble", "evaluation.evaluate"),
    **{f"train --model {kind}": (f"linear.{kind}.fit", "pipeline.cross_validate",
                                 "calibration.platt_fit", "pipeline.seed_ensemble")
       for kind in ("lsvm", "logreg")},
    "bayes-bounds": ("bayes.one_nn",),
    "bayes-bounds --loo": ("bayes.one_nn",),
}


@pytest.mark.parametrize("name", list(TRACED_LAYERS))
def test_benchmark_tracer_sees_every_deferred_layer(pipeline_dirs, train_dir, tmp_path, name):
    """perfbench/traced_stage.py wraps the names on linkcdr.cli; a stage
    that called past them (a plain local import) would leave the wrapper
    unrun and its layer at 0, though the name still resolves."""
    argv = stage_argv(name, pipeline_dirs, train_dir)
    spans = tmp_path / "spans.json"
    tracer = Path(__file__).parent.parent / "perfbench" / "traced_stage.py"
    subprocess.run(
        [sys.executable, str(tracer), str(spans), name,
         repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--",
         *argv, "--out", str(tmp_path / "out")],
        env=stage_env(), capture_output=True, check=True,
    )
    layers = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert set(TRACED_LAYERS[name]) <= layers
