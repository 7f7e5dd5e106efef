"""Self-test of the benchmark: a tiny-size pass of every workload, then one
deliberately corrupted output per check, each of which must be rejected.

Run from the root of a checkout: ``python3 perfbench/selftest.py``
(about two minutes on two cores).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402

SEED = 5


@contextmanager
def corrupted(path: str, edit):
    """Rewrite ``path`` as ``edit(lines)`` for the duration of the block."""
    with open(path, encoding="utf-8") as handle:
        original = handle.read()
    lines = original.splitlines()
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join(edit(lines)) + "\n")
    try:
        yield
    finally:
        with open(path, "w", encoding="utf-8") as out:
            out.write(original)


def expect_rejected(check, label: str) -> None:
    try:
        check()
    except CheckFailed as exc:
        print(f"  rejected {label}: {exc}")
        return
    raise AssertionError(f"corrupted output passed the checks: {label}")


def set_field(line: str, index: int, value: str) -> str:
    parts = line.split(",")
    parts[index] = value
    return ",".join(parts)


def edit_json(edit):
    def apply(lines):
        payload = json.loads("\n".join(lines))
        edit(payload)
        return json.dumps(payload).splitlines()

    return apply


def tiny_pass(name: str, trace: bool = False) -> run.Workload:
    work = os.path.join(run.WORK, f"selftest-{name}")
    os.makedirs(work, exist_ok=True)
    workload = run.WORKLOADS[name](work, SEED, run.SIZES["tiny"])
    result = run.measure(workload, 1, trace)
    assert result["correct"], f"{name}: tiny pass failed: {result['problem']}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    expected = set(run.PER_LAYER) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == expected, sorted(set(result["metrics"]) ^ expected)
    print(f"{name}: tiny pass ok ({result['attempted']} stage operations)")
    return workload


def synth_write() -> None:
    wl = tiny_pass("synth-write")
    out = wl.out("generate")
    events, subscribers, truth = (os.path.join(out, f) for f in
                                  ("events.csv", "subscribers.csv", "truth.csv"))
    for label, path, edit in (
        ("malformed event row", events, lambda ls: ls + ["u000001,u000001,1170000000,call,5"]),
        ("timestamp outside the window", events,
         lambda ls: ls[:1] + [set_field(ls[1], 2, "1190000000")] + ls[2:]),
        ("missing subscriber", subscribers, lambda ls: ls[:-1]),
        ("missing truth row", truth, lambda ls: ls[:-1]),
        ("truth code against the age/gender rule", truth,
         lambda ls: ls[:1] + [set_field(ls[1], 2, "L child")] + ls[2:]),
        ("planted pair without events", events,
         lambda ls: [ls[0]] + [ln for ln in ls[1:] if not ln.startswith(("u000000,", "u000001,"))]),
    ):
        with corrupted(path, edit):
            expect_rejected(wl.check, label)


def cdr_extract() -> None:
    wl = tiny_pass("cdr-extract", trace=True)
    diags = os.path.join(wl.out("ingest"), "diagnostics.jsonl")
    validation = os.path.join(wl.out("ingest"), "validation.json")
    pairs = os.path.join(wl.out("pairs"), "pairs.csv")
    features = os.path.join(wl.out("features"), "features.csv")

    def flip_label(lines):
        row = lines[1].split(",")
        row[6] = ("+" if row[6].startswith("-") else "-") + row[6][1:]
        return lines[:1] + [",".join(row)] + lines[2:]

    def perturb(lines):
        out = lines[:1]
        for line in lines[1:]:
            row = line.split(",")
            row[5] = repr(float(row[5]) * (1 + 1e-6) + 1e-6)
            out.append(",".join(row))
        return out

    for label, path, edit in (
        ("dropped diagnostic line", diags, lambda ls: ls[:-1]),
        ("wrong diagnostic reason", diags,
         lambda ls: [ls[0].replace('"reason": "', '"reason": "x')] + ls[1:]),
        ("validation total off by one", validation,
         edit_json(lambda p: p.update(n_calls=p["n_calls"] + 1))),
        ("dropped pair", pairs, lambda ls: ls[:-1]),
        ("pair counter off", pairs,
         lambda ls: ls[:1] + [set_field(ls[1], 2, str(int(ls[1].split(",")[2]) + 1))] + ls[2:]),
        ("flipped label", pairs, flip_label),
        ("features header off the manifest", features,
         lambda ls: [ls[0].replace("common_contacts_all", "common_all")] + ls[1:]),
        ("dropped feature row", features, lambda ls: ls[:-1]),
        ("non-finite feature", features, lambda ls: ls[:1] + [set_field(ls[1], 7, "nan")] + ls[2:]),
        ("perturbed feature value", features, perturb),
    ):
        with corrupted(path, edit):
            expect_rejected(wl.check, label)

    real = wl.truth
    wl.truth = copy.deepcopy(real)
    for pair in wl.truth["planted"][:2]:
        pair[1] = pair[1] + "z"
    expect_rejected(wl.check, "fewer than 99% of planted pairs found")
    wl.truth = real


def fit_models() -> None:
    wl = tiny_pass("fit-models")
    lsvm = os.path.join(wl.out("train_lsvm"), "predictions.csv")
    logreg = os.path.join(wl.out("train_logreg"), "predictions.csv")
    knn = os.path.join(wl.out("train_knn"), "predictions.csv")
    loadings = os.path.join(wl.out("pca"), "loadings.csv")
    scree = os.path.join(wl.out("pca"), "scree.csv")
    bounds = os.path.join(wl.out("bayes"), "bounds.json")

    def flip_all(lines):
        return lines[:1] + [set_field(ln, 1, str(1 - int(ln.split(",")[1]))) for ln in lines[1:]]

    def shift_e_nn(payload):
        e = payload["e_nn"] + 1.0 / payload["n_test"]
        lower = (1 - (1 - 2 * e) ** 0.5) / 2
        payload.update(e_nn=e, bayes_lower=lower, bayes_upper=e,
                       max_accuracy_lower=1 - e, max_accuracy_upper=1 - lower)

    for label, path, edit in (
        ("flipped predictions", lsvm, flip_all),
        ("dropped prediction row", lsvm, lambda ls: ls[:-1]),
        ("repeated prediction row", knn, lambda ls: ls[:-1] + [ls[1]]),
        ("probability above 1", logreg, lambda ls: ls[:1] + [set_field(ls[1], 2, "1.5")] + ls[2:]),
        ("knn with probabilities", knn, lambda ls: ls[:1] + [set_field(ls[1], 2, "0.5")] + ls[2:]),
        ("scaled loading row", loadings,
         lambda ls: ls[:1] + [",".join([ls[1].split(",")[0]] + [repr(float(v) * 1.1) for v in
                                                                 ls[1].split(",")[1:]])] + ls[2:]),
        ("scree cumulative short of 1", scree, lambda ls: ls[:-1] + [set_field(ls[-1], 2, "0.99")]),
        ("bound arithmetic off", bounds,
         edit_json(lambda p: p.update(bayes_lower=p["bayes_lower"] + 0.01))),
        ("e_nn off the brute-force 1-NN", bounds, edit_json(shift_e_nn)),
    ):
        with corrupted(path, edit):
            expect_rejected(wl.check, label)


def missing_layer() -> None:
    """A traced stage in which one wrapped name no longer exists still runs,
    and the round reports every per-layer metric, that layer's at 0."""
    work = os.path.join(run.WORK, "selftest-cdr-extract")
    spans = os.path.join(work, "spans", "missing_ingest.json")
    inputs = os.path.join(work, "inputs")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{run.SRC!r}, {run.HERE!r}]\n"
        "from linkcdr.ingest import EventColumns\n"
        "del EventColumns.from_events\n"
        "import traced_stage\n"
        "sys.exit(traced_stage.main())\n"
    )
    cmd = [sys.executable, "-c", script, spans, "ingest", repr(run._now()), "--", "ingest",
           "--events", os.path.join(inputs, "events.csv"),
           "--subscribers", os.path.join(inputs, "subscribers.csv"),
           "--out", os.path.join(work, "missing_ingest")]
    completed = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               text=True, timeout=run.STAGE_TIMEOUT_S, check=False)
    assert completed.returncode == 0, completed.stderr
    assert "EventColumns.from_events not found" in completed.stderr, completed.stderr
    metrics = run.layer_metrics([run.StageResult("ingest", 0.0, 0.0, 0.0, 0, checks.read_json(spans))])
    expected = {name for name, (_, source) in run.PER_LAYER.items() if source}
    assert set(metrics) == expected, sorted(set(metrics) ^ expected)
    assert metrics["ingest.event_columns_s"] == 0.0, metrics["ingest.event_columns_s"]
    assert metrics["ingest.parse_events_calls"] == 1, metrics["ingest.parse_events_calls"]
    print("missing layer: a traced stage without EventColumns.from_events reports it as 0")


def main() -> int:
    synth_write()
    cdr_extract()
    missing_layer()
    fit_models()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
