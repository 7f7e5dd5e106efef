"""Output checks for the three workloads.

Every check is computed apart from the program: the benchmark's own CSV
reader and dict fold, the builder's truth, ``tests/oracles.py``, an
independent numpy eigendecomposition and a brute-force 1-NN scan. Or it
follows from a property the method must have. None compares against a
stored copy of earlier output. Each check raises ``CheckFailed`` naming
what is wrong.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from build_inputs import MONTH_STARTS, WINDOW_END, WINDOW_START, paper_code

MIN_MONTHS = 5
FEATURE_TOL = 1e-9
ACCURACY_MARGIN = 0.15
ORACLE_SAMPLE = 12


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- the benchmark's own reader and fold --------------------------------------


def _reject_reason(parts: list[str]) -> str | None:
    """Why ``parse_events``'s documented format rejects a row, or None."""
    if len(parts) != 5:
        return f"expected 5 fields, got {len(parts)}"
    caller, callee, ts_text, kind, dur_text = parts
    if not caller or not callee:
        return "empty user id"
    if caller == callee:
        return "self-loop"
    if not ts_text.isdigit():
        return f"bad timestamp {ts_text!r}"
    if not WINDOW_START <= int(ts_text) < WINDOW_END:
        return f"timestamp {int(ts_text)} outside window"
    if kind not in ("call", "text"):
        return f"unknown kind {kind!r}"
    if dur_text == "":
        return "text with unknown duration" if kind == "text" else None
    if not dur_text.lstrip("-").isdigit():
        return f"bad duration {dur_text!r}"
    if int(dur_text) < 0:
        return f"negative duration {int(dur_text)}"
    if kind == "text" and int(dur_text) != 0:
        return "text with nonzero duration"
    return None


def read_events(path: str) -> tuple[list[tuple], list[tuple[int, str]]]:
    """Accepted rows as (caller, callee, ts, is_call, duration or None) and
    rejected rows as (line number, reason)."""
    rows, rejected = [], []
    with open(path, encoding="utf-8") as handle:
        require(
            handle.readline().rstrip("\n") == "caller_id,callee_id,timestamp,kind,duration",
            "events header",
        )
        for lineno, line in enumerate(handle, start=2):
            parts = line.rstrip("\n").split(",")
            reason = _reject_reason(parts)
            if reason is not None:
                rejected.append((lineno, reason))
                continue
            caller, callee, ts, kind, dur = parts
            rows.append((caller, callee, int(ts), kind == "call", int(dur) if dur else None))
    return rows, rejected


def fold_links(rows: list[tuple]) -> dict[tuple[str, str], list]:
    """Per unordered pair: [calls, texts, known duration, calls per month]."""
    links: dict[tuple[str, str], list] = {}
    n_months = len(MONTH_STARTS)
    for caller, callee, ts, is_call, dur in rows:
        key = (caller, callee) if caller < callee else (callee, caller)
        link = links.get(key)
        if link is None:
            link = links[key] = [0, 0, 0, [0] * n_months]
        if is_call:
            link[0] += 1
            link[2] += dur or 0
            month = n_months - 1
            while MONTH_STARTS[month] > ts:
                month -= 1
            link[3][month] += 1
        else:
            link[1] += 1
    return links


def ranked_alters(links: dict) -> dict[str, list[str]]:
    """Alters per ego by calls, then duration (both descending), then id."""
    keyed: dict[str, list] = {}
    for (a, b), (calls, _, dur, _) in links.items():
        keyed.setdefault(a, []).append((-calls, -dur, b))
        keyed.setdefault(b, []).append((-calls, -dur, a))
    return {ego: [alter for _, _, alter in sorted(items)] for ego, items in keyed.items()}


def mutual_top_pairs(links: dict) -> list[tuple[str, str]]:
    regular = {k: v for k, v in links.items() if sum(c > 0 for c in v[3]) >= MIN_MONTHS}
    top = {ego: alters[0] for ego, alters in ranked_alters(regular).items()}
    return sorted((a, b) for a, b in top.items() if a < b and top.get(b) == a)


def common_contacts(ranked: dict, a: str, b: str) -> tuple[int, int]:
    exclude = {a, b}
    all_a, all_b = set(ranked[a]) - exclude, set(ranked[b]) - exclude
    top_a, top_b = set(ranked[a][:5]) - exclude, set(ranked[b][:5]) - exclude
    return len(top_a & top_b), len(all_a & all_b)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in handle if line.strip()]


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def is_ogp(code: str) -> bool:
    return code.startswith("-") and code.endswith(" peers")


# --- synth-write --------------------------------------------------------------


def check_synth_write(out: str, n_pairs: int) -> None:
    rows, rejected = read_events(os.path.join(out, "events.csv"))
    require(not rejected, f"generated events have malformed rows, first {rejected[:1]}")
    require(rows, "generated events.csv is empty")
    _, subscribers = read_csv(os.path.join(out, "subscribers.csv"))
    require(len(subscribers) == 2 * n_pairs, f"{len(subscribers)} subscribers, want {2 * n_pairs}")
    header, truth = read_csv(os.path.join(out, "truth.csv"))
    require(len(truth) == n_pairs, f"{len(truth)} truth rows, want {n_pairs}")
    col = {name: i for i, name in enumerate(header)}
    for row in truth:
        want = paper_code(
            int(row[col["age_first"]]), row[col["gender_first"]],
            int(row[col["age_second"]]), row[col["gender_second"]],
        )
        require(row[col["archetype_code"]] == want,
                f"truth code {row[col['archetype_code']]!r} for {row[:2]}, the rule gives {want!r}")
    recovered = set(mutual_top_pairs(fold_links(rows)))
    planted = {(min(r[0], r[1]), max(r[0], r[1])) for r in truth}
    share = len(planted & recovered) / len(planted)
    require(share >= 0.99, f"planted-pair recovery {share:.4f} below 0.99")


# --- cdr-extract --------------------------------------------------------------


def check_cdr_extract(work: str, inputs: str, truth: dict) -> None:
    rows, rejected = read_events(os.path.join(inputs, "events.csv"))
    injected = [(item["line"], item["reason"]) for item in truth["injected"]]
    require(rejected == injected, "the benchmark's reader disagrees with the builder's injected rows")

    with open(os.path.join(work, "ingest", "diagnostics.jsonl"), encoding="utf-8") as handle:
        diags = [json.loads(line) for line in handle]
    got = [(d["line"], d["reason"]) for d in diags]
    require(got == injected, f"diagnostics list {len(got)} lines, {len(injected)} injected; "
            f"first difference {next((p for p in zip(got, injected) if p[0] != p[1]), None)}")

    validation = read_json(os.path.join(work, "ingest", "validation.json"))
    for key, want in truth["tallies"].items():
        require(validation.get(key) == want, f"validation {key} {validation.get(key)!r} != {want!r}")

    links = fold_links(rows)
    mutual = mutual_top_pairs(links)
    header, pair_rows = read_csv(os.path.join(work, "pairs", "pairs.csv"))
    require(header[:2] == ["first", "second"], "pairs.csv header")
    require([tuple(r[:2]) for r in pair_rows] == mutual,
            f"pairs.csv has {len(pair_rows)} pairs, the fold finds {len(mutual)} mutual pairs")
    planted = {(p[0], p[1]): p for p in truth["planted"]}
    share = len(planted.keys() & set(mutual)) / len(planted)
    require(share >= 0.99, f"pairs.csv holds {share:.4f} of planted pairs, below 0.99")
    for r in pair_rows:
        link = links[(r[0], r[1])]
        months = sum(c > 0 for c in link[3])
        require([int(v) for v in r[2:6]] == [link[0], link[1], link[2], months],
                f"pairs.csv counters for {r[:2]} differ from the fold")
        p = planted.get((r[0], r[1]))
        want = ("", "") if p is None else (paper_code(p[3], p[4], p[5], p[6]), str(min(p[3], p[5])))
        require((r[6], r[7]) == want, f"label of {r[:2]} is {r[6:8]}, demographics give {want}")

    from linkcdr.manifest import FEATURE_NAMES

    header, feature_rows = read_csv(os.path.join(work, "features", "features.csv"))
    require(header == ["first", "second", *FEATURE_NAMES], "features.csv header is not the manifest")
    require([tuple(r[:2]) for r in feature_rows] == mutual, "features.csv rows are not pairs.csv")
    values = np.asarray([[float(v) for v in r[2:]] for r in feature_rows])
    require(values.shape == (len(mutual), 175), f"features.csv shape {values.shape}")
    require(bool(np.isfinite(values).all()), "features.csv holds a non-finite value")
    check_feature_sample(rows, links, mutual, values, truth["seed"])


def check_feature_sample(rows, links, pairs, values, seed: int) -> None:
    """A seeded sample of rows against ``tests/oracles.feature_vector_oracle``."""
    from linkcdr.ingest import CdrEvent, EventKind, ObservationWindow
    from oracles import feature_vector_oracle

    rng = np.random.default_rng([seed, 3])
    picks = sorted(rng.choice(len(pairs), size=min(ORACLE_SAMPLE, len(pairs)), replace=False))
    wanted = {pairs[i]: i for i in picks}
    events: dict[tuple, list] = {key: [] for key in wanted}
    for caller, callee, ts, is_call, dur in rows:
        key = (caller, callee) if caller < callee else (callee, caller)
        if key in events:
            kind = EventKind.CALL if is_call else EventKind.TEXT
            events[key].append(CdrEvent(caller, callee, ts, kind, dur))
    ranked = ranked_alters(links)
    window = ObservationWindow.default()
    for key, i in wanted.items():
        want = np.asarray(feature_vector_oracle(events[key], window, 0, common_contacts(ranked, *key)))
        err = np.abs(values[i] - want) / np.maximum(1.0, np.abs(want))
        require(float(err.max()) <= FEATURE_TOL,
                f"feature {int(err.argmax())} of {key} is off the oracle by {float(err.max()):.3g}")


# --- fit-models ---------------------------------------------------------------


def _standardized(values: np.ndarray) -> np.ndarray:
    centered = values - values.mean(axis=0)
    return centered / np.sqrt((centered**2).mean(axis=0))


def brute_loo_1nn_error(z: np.ndarray, y: np.ndarray) -> float:
    errors = 0
    for i in range(len(y)):
        d = ((z - z[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        errors += int(y[int(np.argmin(d))] != y[i])
    return errors / len(y)


def check_fit_models(work: str, inputs: str, truth: dict, n_comp: int, n_test: int) -> None:
    label = {f"{p[0]}|{p[1]}": int(is_ogp(p[2])) for p in truth["planted"]}
    for model in ("lsvm", "logreg", "knn"):
        _, preds = read_csv(os.path.join(work, f"train_{model}", "predictions.csv"))
        require(len(preds) == n_test, f"{model} wrote {len(preds)} predictions, want {n_test}")
        require(len({r[0] for r in preds}) == n_test, f"{model} predicts a row twice")
        require(all(r[0] in label for r in preds), f"{model} predicts unknown rows")
        y = np.asarray([label[r[0]] for r in preds])
        accuracy = float(np.mean(np.asarray([int(r[1]) for r in preds]) == y))
        baseline = max(y.mean(), 1 - y.mean())
        require(accuracy >= baseline + ACCURACY_MARGIN,
                f"{model} accuracy {accuracy:.3f} vs majority baseline {baseline:.3f}")
        probs = [r[2] for r in preds]
        if model == "knn":
            require(all(p == "" for p in probs), "knn wrote probabilities")
        else:
            p = np.asarray([float(v) for v in probs])
            require(bool(((p >= 0) & (p <= 1)).all()), f"{model} probability outside [0, 1]")

    header, feature_rows = read_csv(os.path.join(inputs, "features.csv"))
    values = np.asarray([[float(v) for v in r[2:]] for r in feature_rows])
    z = _standardized(values)
    eigenvalues, vectors = np.linalg.eigh(z.T @ z / len(z))
    top = np.argsort(eigenvalues)[::-1][:n_comp]
    communality = ((vectors[:, top] * np.sqrt(np.clip(eigenvalues[top], 0, None))) ** 2).sum(axis=1)
    _, load_rows = read_csv(os.path.join(work, "pca", "loadings.csv"))
    require([r[0] for r in load_rows] == header[2:], "loadings.csv rows are not the features")
    rotated = np.asarray([[float(v) for v in r[1:]] for r in load_rows])
    require(rotated.shape == (len(header) - 2, n_comp), f"loadings shape {rotated.shape}")
    gap = float(np.abs((rotated**2).sum(axis=1) - communality).max())
    require(gap <= 1e-8, f"loading communalities off the eigendecomposition by {gap:.3g}")
    _, scree = read_csv(os.path.join(work, "pca", "scree.csv"))
    require(abs(float(scree[-1][2]) - 1.0) <= 1e-9, f"scree cumulative ends at {scree[-1][2]}")

    bounds = read_json(os.path.join(work, "bayes", "bounds.json"))
    e = bounds["e_nn"]
    lower = (1 - math.sqrt(1 - 2 * e)) / 2
    for key, want in (("bayes_lower", lower), ("bayes_upper", e),
                      ("max_accuracy_lower", 1 - e), ("max_accuracy_upper", 1 - lower)):
        require(abs(bounds[key] - want) <= 1e-12, f"bounds {key} {bounds[key]} != {want}")
    require(bounds["bayes_lower"] <= bounds["bayes_upper"], "bounds not ordered")
    labeled = [i for i, r in enumerate(feature_rows) if f"{r[0]}|{r[1]}" in label]
    y = np.asarray([label[f"{feature_rows[i][0]}|{feature_rows[i][1]}"] for i in labeled])
    want = brute_loo_1nn_error(_standardized(values[labeled]), y)
    require(e == want, f"bounds e_nn {e} != brute-force leave-one-out 1-NN error {want}")
