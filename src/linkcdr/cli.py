"""Command-line pipeline with file-based stage handoffs.

Each subcommand wraps one pipeline stage. ``main`` runs every stage the
same way: it hashes the inputs and holds each to the ``manifest.json``
beside it, runs the stage, which names each file it writes and sets its
seeds on the stage's ``RunManifest``, and writes that record as the stage's
own ``manifest.json`` with input and output hashes, the flags as given, and
seeds, so identical invocations are byte-reproducible. Exit codes: 0
success, 2 validation failure or bad usage, 1 fatal error.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# the summation order of a threaded BLAS, and so the bytes of every
# artifact, would depend on the thread count. manifest.json records them.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREADS:
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, manifest
from .errors import ConfigError, DatasetError, LinkCdrError, ParseError
from .io_utils import (
    RunManifest,
    read_features_csv,
    read_json,
    read_pairs_csv,
    read_predictions_csv,
    write_features_csv,
    write_json,
    write_pairs_csv,
    write_predictions_csv,
)
from .relations import BRACKETS, TASKS, PairKey, label_pairs, task_label
from .scaling import apply_scaler, fit_scaler

if TYPE_CHECKING:
    from .ingest import ObservationWindow
    from .learn.linear import TrainedModel
    from .learn.pipeline import LabeledDataset


def _on_call(module: str, name: str):
    """``name`` of ``linkcdr.<module>``, imported at its first call.

    A stage loads only the layers it runs. The stand-in is a module
    attribute that the runners call by its bare name, so a caller may
    still replace it here (the benchmark's tracer, the tests)."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


parse_events = _on_call("ingest", "parse_events")
parse_subscribers = _on_call("ingest", "parse_subscribers")
validate_dataset = _on_call("ingest", "validate_dataset")
build_links = _on_call("pairgraph", "build_links")
apply_regularity_filter = _on_call("pairgraph", "apply_regularity_filter")
mutual_top_rank_pairs = _on_call("pairgraph", "mutual_top_rank_pairs")
compute_feature_matrix = _on_call("features", "compute_feature_matrix")
generate = _on_call("synthgen", "generate")
write_dataset = _on_call("synthgen", "write_dataset")
verify_planted = _on_call("synthgen", "verify_planted")
pca = _on_call("decompose", "pca")
varimax = _on_call("decompose", "varimax")
seed_ensemble = _on_call("learn.pipeline", "seed_ensemble")
evaluate = _on_call("learn.evaluation", "evaluate")
one_nn_error = _on_call("bayes", "one_nn_error")
one_nn_error_loo = _on_call("bayes", "one_nn_error_loo")

# presets.PRESETS in sorted order, spelled out so the parser loads no generator
PRESET_NAMES = ("planted-factors", "table3-like")
# Flags naming a file a stage reads; manifest.json records each under
# ``inputs`` and every other flag but these under ``config``.
INPUT_FLAGS = ("events", "subscribers", "features", "pairs", "predictions")
NOT_CONFIG = {"out", "handler", "command", "reports", *INPUT_FLAGS}


def _window_from_args(args: argparse.Namespace) -> ObservationWindow:
    """The window between the ``epoch_seconds`` texts of ``--window-start``
    and ``--window-end``, the default window when neither is given. Only
    one of them, an unparseable text or start >= end is a ConfigError."""
    from .ingest import ObservationWindow, epoch_seconds

    start, end = args.window_start, args.window_end
    if start is None and end is None:
        return ObservationWindow.default()
    if start is None or end is None:
        raise ConfigError("--window-start and --window-end must be given together")
    first, last = epoch_seconds(start, "--window-start"), epoch_seconds(end, "--window-end")
    if first >= last:
        raise ConfigError(
            f"empty observation window: --window-start {start!r} is not before "
            f"--window-end {end!r}"
        )
    return ObservationWindow(first, last)


def _check_min_months(min_months: int, window: ObservationWindow) -> None:
    if not 0 <= min_months <= window.n_months:
        raise ConfigError(f"--min-months {min_months} must lie in 0..{window.n_months}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"--seed {seed} must be non-negative")


def _check_utc_offset(utc_offset: int) -> None:
    bound = manifest.MAX_UTC_OFFSET
    if not -bound <= utc_offset <= bound:
        raise ConfigError(f"--utc-offset {utc_offset} must lie in {-bound}..{bound}")


def _parse_file(parse, path: str, *args):
    """``parse`` (``parse_events`` or ``parse_subscribers``) of the file at
    ``path``; the error of a missing or wrong header names the file."""
    with open(path, "rb") as handle:
        try:
            return parse(handle, *args)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _write_diagnostics(path: str, diagnostics) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for diag in diagnostics:
            out.write(diag.to_json_line() + "\n")


def cmd_generate(args: argparse.Namespace, record: RunManifest) -> int:
    from .presets import PRESETS

    if args.n_pairs <= 0:
        raise ConfigError(f"--n-pairs {args.n_pairs} must be positive")
    _check_seed(args.seed)
    _check_utc_offset(args.utc_offset)
    config = PRESETS[args.preset](args.n_pairs, args.seed, _window_from_args(args))
    config = replace(config, utc_offset=args.utc_offset)
    if args.verify:
        _check_min_months(args.min_months, config.window)
    record.seeds = [config.seed]
    dataset = generate(config)
    record.outputs += write_dataset(dataset, record.out).values()
    if args.verify:
        report = verify_planted(dataset.columns, dataset.truth, args.min_months)
        write_json(record.path("verify.json"), report.to_dict())
        if not report.ok:
            print(
                f"planted-pair recovery {report.recovered_fraction:.4f} below 0.99",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_ingest(args: argparse.Namespace, record: RunManifest) -> int:
    columns, event_diags = _parse_file(parse_events, args.events, _window_from_args(args))
    subscribers, sub_diags = _parse_file(parse_subscribers, args.subscribers)
    report = validate_dataset(columns, subscribers)
    write_json(record.path("validation.json"), report.to_dict())
    _write_diagnostics(record.path("diagnostics.jsonl"), event_diags + sub_diags)
    return 0 if report.ok else 2


def cmd_pairs(args: argparse.Namespace, record: RunManifest) -> int:
    window = _window_from_args(args)
    _check_min_months(args.min_months, window)
    columns, event_diags = _parse_file(parse_events, args.events, window)
    subscribers, _ = (
        _parse_file(parse_subscribers, args.subscribers) if args.subscribers else ({}, [])
    )
    graph = build_links(columns)
    pairs = mutual_top_rank_pairs(graph, apply_regularity_filter(graph, args.min_months))
    labels = label_pairs(pairs, subscribers)

    active = graph.active_months
    rows = []
    for pair, i in zip(pairs, graph.index(pairs).tolist()):
        label = labels.get(pair)
        rows.append(
            {
                "first": pair.first,
                "second": pair.second,
                "calls_total": int(graph.calls[i]),
                "texts_total": int(graph.texts[i]),
                "duration_total": int(graph.duration[i]),
                "months_active": int(active[i]),
                "label_code": label.code if label else "",
                "younger_age": label.younger_age if label else "",
            }
        )
    write_pairs_csv(record.path("pairs.csv"), rows)
    _write_diagnostics(record.path("diagnostics.jsonl"), event_diags)
    return 0


def cmd_features(args: argparse.Namespace, record: RunManifest) -> int:
    window = _window_from_args(args)
    _check_utc_offset(args.utc_offset)
    if args.common_contacts_filtered:
        _check_min_months(args.min_months, window)
    columns, _ = _parse_file(parse_events, args.events, window)
    pair_rows = read_pairs_csv(args.pairs)
    pairs = [PairKey(row["first"], row["second"]) for row in pair_rows]
    graph = build_links(columns)
    contact_links = (
        apply_regularity_filter(graph, args.min_months) if args.common_contacts_filtered else None
    )
    matrix = compute_feature_matrix(graph, pairs, args.utc_offset, contact_links)
    write_features_csv(record.path("features.csv"), pairs, matrix)
    return 0


def _finite_features(path: str) -> tuple[list[PairKey], np.ndarray]:
    """``read_features_csv``, with a non-finite value raising DatasetError
    before any fit sees it."""
    pairs, matrix = read_features_csv(path)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        row, col = bad[0]
        raise DatasetError(
            f"{path}: pair {pairs[row].first}|{pairs[row].second} has non-finite "
            f"{manifest.FEATURE_NAMES[col]} = {float(matrix[row, col])}"
        )
    return pairs, matrix


def cmd_pca(args: argparse.Namespace, record: RunManifest) -> int:
    from .decompose import assign_factors, loadings, scree_data

    if not 2 <= args.n_comp <= manifest.N_FEATURES:  # varimax rotates two or more factors
        raise ConfigError(f"--n-comp {args.n_comp} must lie in 2..{manifest.N_FEATURES}")
    if not 0.0 <= args.cutoff <= 1.0:  # |loading| of standardized data is at most 1
        raise ConfigError(f"--cutoff {args.cutoff} must lie in [0, 1]")
    _, matrix = _finite_features(args.features)
    scaler = fit_scaler(matrix)
    standardized = apply_scaler(matrix, scaler)
    result = pca(standardized)

    with open(record.path("scree.csv"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("component,ratio,cumulative\n")
        for idx, ratio, cumulative in scree_data(result):
            handle.write(f"{idx},{ratio!r},{cumulative!r}\n")

    load = loadings(result, args.n_comp)
    rotated = varimax(load, kaiser_normalize=not args.no_kaiser)
    with open(record.path("loadings.csv"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("feature," + ",".join(f"factor_{j + 1}" for j in range(args.n_comp)) + "\n")
        for name, row in zip(manifest.FEATURE_NAMES, rotated.loadings):
            handle.write(name + "," + ",".join(repr(v) for v in row.tolist()) + "\n")

    assignment = assign_factors(rotated.loadings, manifest.FEATURE_NAMES, args.cutoff)
    write_json(
        record.path("factors.json"),
        {
            "n_comp": args.n_comp,
            "kaiser_normalize": not args.no_kaiser,
            "converged": rotated.converged,
            **assignment.to_dict(),
        },
    )
    write_json(record.path("scaler.json"), scaler.to_dict())
    return 0


def _task_labels(pairs_path: str, task: str) -> dict[str, tuple[int, str]]:
    """Row id ``first|second`` -> (label, relationship code) of each pair in
    ``pairs_path`` that has a ``task`` label, in file order."""
    labels = {}
    for row in read_pairs_csv(pairs_path):
        label = task_label(row["label_code"], row["younger_age"], task)
        if label is not None:
            labels[f"{row['first']}|{row['second']}"] = (label, row["label_code"])
    return labels


def _labeled_matrix(
    features_path: str, pairs_path: str, task: str
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """Join features with pair labels; returns (x, y, group codes, row ids)."""
    pairs, matrix = _finite_features(features_path)
    by_id = {f"{pair.first}|{pair.second}": i for i, pair in enumerate(pairs)}
    labels = _task_labels(pairs_path, task)
    row_ids = [row_id for row_id in labels if row_id in by_id]
    if not row_ids:
        raise ConfigError("no labeled rows: check --features/--pairs/--task")
    x = matrix[[by_id[row_id] for row_id in row_ids]]
    y = np.asarray([labels[row_id][0] for row_id in row_ids], dtype=np.int64)
    return x, y, [labels[row_id][1] for row_id in row_ids], row_ids


def _split_pool_test(
    n: int, n_test: int, seed: int, default: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """(pool, test) rows of a seeded permutation; ``default`` says that
    ``--n-test`` was not given and ``n_test`` is its default."""
    if not 0 < n_test < n:
        given = " (the default)" if default else ""
        raise ConfigError(f"--n-test {n_test}{given} must lie in 1..{n - 1}")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[n_test:], perm[:n_test]


def _standardized_split(
    x: np.ndarray,
    y: np.ndarray,
    groups: list[str],
    row_ids: list[str],
    n_test: int,
    seed: int,
):
    from .learn.pipeline import LabeledDataset

    pool_idx, test_idx = _split_pool_test(len(y), n_test, seed)
    scaler = fit_scaler(x[pool_idx])
    z = apply_scaler(x, scaler)
    full = LabeledDataset(z, y, list(groups), list(row_ids))
    return full.subset(pool_idx), full.subset(test_idx), scaler


def _fit_record(model: TrainedModel) -> dict:
    """Solver diagnostics of one linear fit, as written to model.json."""
    return {
        "n_iterations": model.n_iterations,
        "grad_map_norm": model.grad_map_norm,
        "converged": model.converged,
    }


def _ensemble_seeds(args: argparse.Namespace) -> list[int]:
    """``--seeds`` consecutive seeds from ``--seed``; an odd count, so the
    majority vote cannot tie."""
    _check_seed(args.seed)
    if args.seeds < 1 or args.seeds % 2 == 0:
        raise ConfigError(f"--seeds {args.seeds} must be a positive odd count")
    return [args.seed + i for i in range(args.seeds)]


def cmd_train(args: argparse.Namespace, record: RunManifest) -> int:
    from .learn.linear import select_features, train_linear_svm, train_logreg
    from .learn.pipeline import C_GRID, K_GRID, LabeledDataset, balanced_sample

    seeds = record.seeds = _ensemble_seeds(args)
    if not 0 < args.select_c < math.inf:  # NaN fails every comparison
        raise ConfigError(f"--select-c {args.select_c} must be positive and finite")
    x, y, groups, row_ids = _labeled_matrix(args.features, args.pairs, args.task)
    pool, test, scaler = _standardized_split(x, y, groups, row_ids, args.n_test, args.seed)

    selected = selector_fit = None
    if args.feature_select != "none":
        trainer = {"lr-l1": train_logreg, "lsvm-l1": train_linear_svm}[args.feature_select]
        sample = balanced_sample(pool, args.n_train, args.seed)
        selector = trainer(sample.x, sample.y, penalty="l1", c=args.select_c)
        selector_fit = _fit_record(selector)
        selected = select_features(selector)
        if selected.size == 0:
            raise ConfigError(
                f"l1 selection at C={args.select_c} removed every feature; raise --select-c"
            )
        pool = LabeledDataset(pool.x[:, selected], pool.y, pool.groups, pool.row_ids)
        test = LabeledDataset(test.x[:, selected], test.y, test.groups, test.row_ids)

    grid = list(K_GRID) if args.model == "knn" else list(C_GRID)
    result = seed_ensemble(pool, test.x, args.model, grid, seeds, n_train=args.n_train)
    report = evaluate(result.predictions, test.y, test.groups, result.probabilities)

    lead = result.models[0]
    per_seed_fit = None if args.model == "knn" else [_fit_record(m) for m in result.models]
    write_json(
        record.path("model.json"),
        {
            "kind": args.model,
            "task": args.task,
            "penalty": lead.penalty,
            "c": lead.c,
            "k": lead.k,
            "weights": lead.weights,
            "bias": lead.bias,
            "selected_features": selected,
            "calibration": lead.calibration,
            "per_seed_params": result.best_params,
            "per_seed_fit": per_seed_fit,
            "per_seed_cv": result.cv_tables,
            "selector_fit": selector_fit,
            "seeds": seeds,
            "manifest_hash": manifest.manifest_hash(),
        },
    )
    write_json(record.path("scaler.json"), scaler.to_dict())
    write_predictions_csv(
        record.path("predictions.csv"), test.row_ids, result.predictions, result.probabilities
    )
    write_json(
        record.path("report.json"),
        {
            "task": args.task,
            "model": args.model,
            "feature_select": args.feature_select,
            "n_train": args.n_train,
            "n_test": args.n_test,
            "seeds": seeds,
            "baseline_accuracy": float(max(test.y.mean(), 1.0 - test.y.mean())),
            "metrics": report.to_dict(),
        },
    )
    return 0


def cmd_evaluate(args: argparse.Namespace, record: RunManifest) -> int:
    row_ids, predictions, probabilities = read_predictions_csv(args.predictions)
    labels = _task_labels(args.pairs, args.task)
    missing = [rid for rid in row_ids if rid not in labels]
    if missing:
        raise ConfigError(f"{len(missing)} predictions have no labeled pair (e.g. {missing[0]!r})")
    y = np.asarray([labels[rid][0] for rid in row_ids], dtype=np.int64)
    groups = [labels[rid][1] for rid in row_ids]
    report = evaluate(predictions, y, groups, probabilities)
    write_json(
        record.path("report.json"),
        {
            "task": args.task,
            "source": os.path.basename(args.predictions),
            "baseline_accuracy": float(max(y.mean(), 1.0 - y.mean())),
            "metrics": report.to_dict(),
        },
    )
    return 0


def cmd_bayes_bounds(args: argparse.Namespace, record: RunManifest) -> int:
    from .bayes import bayes_bounds

    _check_seed(args.seed)
    record.seeds = [args.seed]
    if args.loo:
        for flag, value in (("--n-train", args.n_train), ("--n-test", args.n_test)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply with --loo, which tests every row")
    x, y, _, _ = _labeled_matrix(args.features, args.pairs, args.task)
    if args.loo:
        e_nn = one_nn_error_loo(apply_scaler(x, fit_scaler(x)), y)
        n_train = n_test = len(y)
    else:
        n_test = 1000 if args.n_test is None else args.n_test
        pool_idx, test_idx = _split_pool_test(len(y), n_test, args.seed, args.n_test is None)
        if args.n_train is not None:
            if not 2 <= args.n_train <= len(pool_idx):
                raise ConfigError(f"--n-train {args.n_train} must lie in 2..{len(pool_idx)}")
            pool_idx = pool_idx[: args.n_train]
        scaler = fit_scaler(x[pool_idx])
        z_pool = apply_scaler(x[pool_idx], scaler)
        z_test = apply_scaler(x[test_idx], scaler)
        e_nn = one_nn_error(z_pool, y[pool_idx], z_test, y[test_idx])
        n_train, n_test = len(pool_idx), len(test_idx)
    bounds = bayes_bounds(e_nn)
    write_json(
        record.path("bounds.json"),
        {
            **bounds.to_dict(),
            "task": args.task,
            "n_train": n_train,
            "n_test": n_test,
            "seed": args.seed,
            "leave_one_out": bool(args.loo),
        },
    )
    return 0


def cmd_experiment(args: argparse.Namespace, record: RunManifest) -> int:
    from .learn.pipeline import C_GRID, age_restricted_experiment, peer_bracket_rows

    seeds = record.seeds = _ensemble_seeds(args)
    x, y, groups, row_ids = _labeled_matrix(args.features, args.pairs, "ogp")
    pool, test, _ = _standardized_split(x, y, groups, row_ids, args.n_test, args.seed)

    test_rows = peer_bracket_rows(test, args.bracket)
    if test_rows.size == 0:
        raise ConfigError(f"no peer test pairs in bracket {args.bracket!r}")
    # the restricted run checks the bracket's class sizes before any training
    restricted_report = age_restricted_experiment(
        pool, test, args.bracket, args.model, seeds, args.n_train
    )

    # reference run: train on everything, evaluate on the restricted slice
    full_run = seed_ensemble(pool, test.x, args.model, C_GRID, seeds, n_train=args.n_train)
    restricted_test = test.subset(test_rows)
    full_report = evaluate(
        full_run.predictions[test_rows],
        restricted_test.y,
        restricted_test.groups,
        None if full_run.probabilities is None else full_run.probabilities[test_rows],
    )

    gap_full = full_report.tpr - full_report.tnr
    gap_restricted = restricted_report.tpr - restricted_report.tnr
    write_json(
        record.path("age_report.json"),
        {
            "bracket": args.bracket,
            "model": args.model,
            "seeds": seeds,
            "full_training": full_report.to_dict(),
            "restricted_training": restricted_report.to_dict(),
            "ogp_sgp_gap_full": gap_full,
            "ogp_sgp_gap_restricted": gap_restricted,
            "gap_direction": (
                "restricted training evens the split"
                if abs(gap_restricted) < abs(gap_full)
                else "restricted training widens the split"
            ),
        },
    )
    return 0


def _summarize_report(
    payload: dict, label: str, lines: list[str], histogram_rows: list[str]
) -> None:
    """Append one report's summary lines and histogram rows."""
    lines.append(f"== {label} ==")
    if "metrics" in payload:
        metrics = payload["metrics"]
        lines.append(
            f"task={payload.get('task', '?')} model={payload.get('model', '?')} "
            f"accuracy={metrics['accuracy']:.4f} "
            f"baseline={payload.get('baseline_accuracy', float('nan')):.4f}"
        )
        lines.append(
            f"precision={metrics['precision']:.4f} tpr={metrics['tpr']:.4f} "
            f"tnr={metrics['tnr']:.4f}"
        )
        lines.append(f"{'relationship':14s} {'accuracy':>9s} {'share':>7s}")
        for code, group in sorted(metrics.get("per_group", {}).items()):
            lines.append(f"{code:14s} {group['accuracy']:9.3f} {group['share']:7.3f}")
        for group, bins in (metrics.get("histograms") or {}).items():
            for b, freq in enumerate(bins):
                histogram_rows.append(
                    f"{label},{group},{b / len(bins)!r},{(b + 1) / len(bins)!r},{freq!r}"
                )
    if "full_training" in payload:
        lines.append(
            f"bracket={payload['bracket']} "
            f"full OGP/SGP={payload['full_training']['tpr']:.3f}/"
            f"{payload['full_training']['tnr']:.3f} "
            f"restricted OGP/SGP={payload['restricted_training']['tpr']:.3f}/"
            f"{payload['restricted_training']['tnr']:.3f}"
        )
        lines.append(payload["gap_direction"])
    lines.append("")


def cmd_report(args: argparse.Namespace, record: RunManifest) -> int:
    lines: list[str] = []
    histogram_rows: list[str] = []
    for path in args.reports:
        label = os.path.splitext(os.path.basename(path))[0]
        try:
            _summarize_report(read_json(path), label, lines, histogram_rows)
        except KeyError as exc:
            raise ParseError(f"{path}: report lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:  # not JSON, or a value of the wrong type
            raise ParseError(f"{path} is not a report: {exc}") from None
    with open(record.path("summary.txt"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))
    with open(record.path("histograms.csv"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write("report,group,bin_lo,bin_hi,rel_freq\n")
        handle.write("\n".join(histogram_rows))
        if histogram_rows:
            handle.write("\n")
    return 0


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window-start", help="epoch seconds or ISO date/time (naive = UTC)")
    parser.add_argument("--window-end", help="epoch seconds or ISO date/time (naive = UTC)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkcdr",
        description="Link-centric CDR analytics pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic CDR dataset")
    p.add_argument("--preset", default="table3-like", choices=PRESET_NAMES)
    p.add_argument("--n-pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utc-offset", type=int, default=0)
    p.add_argument("--min-months", type=int, default=5)
    p.add_argument("--verify", action="store_true", help="check planted-pair recovery")
    _add_window_flags(p)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("ingest", help="parse and validate raw CSV inputs")
    p.add_argument("--events", required=True)
    p.add_argument("--subscribers", required=True)
    _add_window_flags(p)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("pairs", help="extract mutual top-rank pairs")
    p.add_argument("--events", required=True)
    p.add_argument("--subscribers")
    p.add_argument("--min-months", type=int, default=5)
    _add_window_flags(p)
    p.set_defaults(handler=cmd_pairs)

    p = sub.add_parser("features", help="compute the 175-feature matrix")
    p.add_argument("--events", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--utc-offset", type=int, default=0)
    p.add_argument("--min-months", type=int, default=5)
    p.add_argument(
        "--common-contacts-filtered",
        action="store_true",
        help="count common contacts on the regularity-filtered graph",
    )
    _add_window_flags(p)
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("pca", help="PCA, scree, rotated loadings, factor assignment")
    p.add_argument("--features", required=True)
    p.add_argument("--n-comp", type=int, default=5)
    p.add_argument("--cutoff", type=float, default=0.4)
    p.add_argument("--no-kaiser", action="store_true")
    p.set_defaults(handler=cmd_pca)

    p = sub.add_parser("train", help="train and evaluate a classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--model", choices=("logreg", "lsvm", "knn"), default="lsvm")
    p.add_argument("--feature-select", choices=("none", "lr-l1", "lsvm-l1"), default="none")
    p.add_argument(
        "--select-c",
        type=float,
        default=30.0,
        help="C of the l1-penalized selector (mean-loss scale)",
    )
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=5, help="number of ensemble seeds")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score an external predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("bayes-bounds", help="bound the Bayes error from the 1-NN error")
    p.add_argument("--features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int, help="test rows (default 1000; not with --loo)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loo", action="store_true", help="leave-one-out estimate, no split")
    p.set_defaults(handler=cmd_bayes_bounds)

    p = sub.add_parser("experiment", help="protocol experiments")
    p.add_argument("kind", choices=("age-restricted",))
    p.add_argument("--features", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--bracket", required=True, choices=[code for code, _, _ in BRACKETS])
    p.add_argument("--model", choices=("logreg", "lsvm"), default="lsvm")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("report", help="merge report files into a readable summary")
    p.add_argument("--reports", nargs="+", required=True)
    p.set_defaults(handler=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    return parser


def _runtime() -> dict:
    """The numeric runtime a stage ran on: numpy's version, its BLAS, the
    SIMD extensions numpy dispatches to (float results such as ``log1p``
    follow them in the last bit), and the BLAS thread variables as the stage
    saw them after the pin."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "simd": config["SIMD Extensions"]["found"],
        **{name: os.environ.get(name) for name in BLAS_THREADS},
    }


def run_stage(args: argparse.Namespace) -> int:
    """Run one parsed subcommand and write its ``manifest.json``.

    Inputs are hashed and held to their sibling manifests before the stage
    runs; the manifest records them by flag (``--reports`` files by file
    name), every other flag under ``config``, the numeric runtime, and the
    seeds and files the stage named."""
    flags = vars(args)
    inputs = {flag: flags[flag] for flag in INPUT_FLAGS if flags.get(flag)}
    for path in flags.get("reports", ()):
        if (name := os.path.basename(path)) in inputs:
            raise ConfigError(f"--reports {inputs[name]} and {path} share the file name {name}")
        inputs[name] = path
    record = RunManifest(
        subcommand=args.command,
        out=args.out,
        inputs=inputs,
        config={key: value for key, value in flags.items() if key not in NOT_CONFIG},
        runtime=_runtime(),
    )
    record.check_inputs()
    status = args.handler(args, record)
    record.write()
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_stage(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LinkCdrError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
