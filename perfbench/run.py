"""End-to-end benchmark of the linkcdr CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cdr-extract --seed 1 --seconds 20 --trace 0

Each stage runs the way users run it: a fresh ``python3 -m linkcdr.cli``
process, one at a time. A run sets the workload's inputs up several times
(the median is ``setup_s``), then repeats whole rounds of the workload's
stages while the run, set-ups included, would still end within
``--seconds``, then checks the outputs apart from the program (see
checks.py). With ``--trace 0`` the benchmark, its stages and pace.py's
reference loop share one CPU, and every time is CPU seconds rescaled by the
reference loop's pace (see Pace). ``--trace 1`` alternates untraced rounds
with rounds whose stage processes run under traced_stage.py, and reports
per-layer self time and counts plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import mmap
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
sys.path[:0] = [HERE, SRC, TESTS]

import build_inputs  # noqa: E402
import checks  # noqa: E402
import pace  # noqa: E402

SETUP_REPEATS = 3
# The stages multiply small matrices. With its default two threads on a
# two-core machine OpenBLAS doubles the CPU time and, when any other
# process competes, makes stage times swing by a sixth; one thread is
# faster and steadier.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGE_TIMEOUT_S = 150
# The reference pace, in pace.py chunks per CPU-second, that paced times
# are rescaled to: about what the loop runs on the x86-64 host the
# benchmark was written on while it shares its CPU with a stage.
PACE_CHUNKS_PER_S = 2700.0

# Inputs per workload. "tiny" serves the benchmark's own self-test.
SIZES = {
    "full": {"synth_pairs": 1000, "extract_pairs": 400, "fit_pairs": 250,
             "n_train": 100, "n_test": 50},
    "tiny": {"synth_pairs": 60, "extract_pairs": 60, "fit_pairs": 160,
             "n_train": 80, "n_test": 40},
}
N_COMP = 5

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

STAGE_NAMES = ("generate", "ingest", "pairs", "features", "pca", "train_lsvm",
               "train_logreg", "train_knn", "bayes_bounds")

# Per-layer metric -> (unit, how it is read off the spans of one round).
# "self:<layer>" sums the layer's self time, "calls:<layer>" counts its
# spans, "count:<name>" sums a counter the wrappers keep.
PER_LAYER = {
    "synthgen.generate_s": ("s", "self:synthgen.generate"),
    "synthgen.write_dataset_s": ("s", "self:synthgen.write_dataset"),
    "synthgen.verify_planted_s": ("s", "self:synthgen.verify_planted"),
    "synthgen.events": ("count", "count:synthgen.events"),
    "ingest.parse_events_s": ("s", "self:ingest.parse_events"),
    "ingest.parse_events_calls": ("count", "calls:ingest.parse_events"),
    "ingest.rows_read": ("count", "count:ingest.rows_read"),
    "ingest.rows_rejected": ("count", "count:ingest.rows_rejected"),
    "ingest.event_columns_s": ("s", "self:ingest.event_columns"),
    "ingest.validate_dataset_s": ("s", "self:ingest.validate_dataset"),
    "ingest.parse_subscribers_s": ("s", "self:ingest.parse_subscribers"),
    "pairgraph.build_links_s": ("s", "self:pairgraph.build_links"),
    "pairgraph.build_links_calls": ("count", "calls:pairgraph.build_links"),
    "pairgraph.links": ("count", "count:pairgraph.links"),
    "pairgraph.regularity_filter_s": ("s", "self:pairgraph.regularity_filter"),
    "pairgraph.mutual_top_rank_s": ("s", "self:pairgraph.mutual_top_rank"),
    "pairgraph.links_kept": ("count", "count:pairgraph.links_kept"),
    "pairgraph.pairs": ("count", "count:pairgraph.pairs"),
    "pairgraph.common_contacts_s": ("s", "self:pairgraph.common_contacts"),
    "pairgraph.common_contacts_calls": ("count", "calls:pairgraph.common_contacts"),
    "pairgraph.label_pairs_s": ("s", "self:pairgraph.label_pairs"),
    "features.matrix_s": ("s", "self:features.matrix"),
    "features.rows": ("count", "count:features.rows"),
    "features.scaler_s": ("s", "self:features.scaler"),
    "io_utils.write_features_s": ("s", "self:io_utils.write_features"),
    "io_utils.read_features_s": ("s", "self:io_utils.read_features"),
    "io_utils.read_features_calls": ("count", "calls:io_utils.read_features"),
    "io_utils.pairs_csv_s": ("s", "self:io_utils.pairs_csv"),
    "io_utils.manifest_s": ("s", "self:io_utils.manifest"),
    "io_utils.hashed_bytes": ("bytes", "count:io_utils.hashed_bytes"),
    "decompose.pca_s": ("s", "self:decompose.pca"),
    "decompose.varimax_s": ("s", "self:decompose.varimax"),
    "decompose.varimax_iterations": ("count", "count:decompose.varimax_iterations"),
    "linear.lsvm.fits": ("count", "calls:linear.lsvm.fit"),
    "linear.lsvm.fit_s": ("s", "self:linear.lsvm.fit"),
    "linear.lsvm.iterations": ("count", "count:linear.lsvm.iterations"),
    "linear.lsvm.unconverged": ("count", "count:linear.lsvm.unconverged"),
    "linear.logreg.fits": ("count", "calls:linear.logreg.fit"),
    "linear.logreg.fit_s": ("s", "self:linear.logreg.fit"),
    "linear.logreg.iterations": ("count", "count:linear.logreg.iterations"),
    "linear.logreg.unconverged": ("count", "count:linear.logreg.unconverged"),
    "neighbors.knn_predict_s": ("s", "self:neighbors.knn_predict"),
    "neighbors.knn_predict_calls": ("count", "calls:neighbors.knn_predict"),
    "neighbors.distance_evals": ("count", "count:neighbors.distance_evals"),
    "pipeline.cross_validate_s": ("s", "self:pipeline.cross_validate"),
    "pipeline.seed_ensemble_s": ("s", "self:pipeline.seed_ensemble"),
    "calibration.platt_fit_s": ("s", "self:calibration.platt_fit"),
    "calibration.platt_fits": ("count", "calls:calibration.platt_fit"),
    "evaluation.evaluate_s": ("s", "self:evaluation.evaluate"),
    "bayes.one_nn_s": ("s", "self:bayes.one_nn"),
    "bayes.distance_evals": ("count", "count:bayes.distance_evals"),
    "cli.startup_s": ("s", "startup"),
    "cli.self_s": ("s", "self:cli"),
}
# Untraced stage times and the tracing overhead; measure() fills these in.
for _name in [f"stage.{stage}_s" for stage in STAGE_NAMES] + [
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"
]:
    PER_LAYER[_name] = ("s", "")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class StageResult:
    name: str
    seconds: float
    cpu_s: float
    rss_mb: float
    code: int
    spans: dict | None


class Pace:
    """pace.py's reference loop, sharing the one CPU the benchmark and its
    stages are pinned to.

    The host's throughput for the same code moves by a fifth or more from
    one second to the next, with other tenants' load, and two CPUs of the
    host do not move together. The loop takes its turns on the same CPU
    between a stage's, so chunks per CPU-second over the stage's run track
    the stage's own throughput. CPU seconds times that pace over
    PACE_CHUNKS_PER_S is what the work would have taken at the reference
    pace."""

    def __init__(self, work: str) -> None:
        path = os.path.join(work, "pace.bin")
        with open(path, "wb") as handle:
            handle.write(bytes(pace.RECORD.size))
        with open(path, "r+b") as handle:
            self.counter = mmap.mmap(handle.fileno(), pace.RECORD.size)
        cmd = [sys.executable, os.path.join(HERE, "pace.py"), path]
        self.pid = os.posix_spawn(cmd[0], cmd, os.environ)
        deadline = _now() + 30
        while self.read()[0] == 0:
            if os.waitpid(self.pid, os.WNOHANG)[0]:
                self.pid = 0  # it exited and is reaped
            if not self.pid or _now() > deadline:
                self.close()
                raise RuntimeError("pace.py did not start")
            time.sleep(0.01)

    def read(self) -> tuple[int, int]:
        """Chunks done and the loop's CPU nanoseconds, from one whole record."""
        while True:
            first, cpu_ns, last = pace.RECORD.unpack(self.counter)
            if first == last:
                return first, cpu_ns
            time.sleep(0.001)  # the loop was stopped mid-record; let it finish

    def scale(self, fn):
        """Run ``fn()``; return its result and the factor that turns CPU
        seconds used meanwhile into seconds at the reference pace."""
        chunks, cpu_ns = self.read()
        result = fn()
        chunks_after, cpu_ns_after = self.read()
        if chunks_after == chunks:
            raise RuntimeError("pace.py made no progress while it was timed")
        pace_now = (chunks_after - chunks) / ((cpu_ns_after - cpu_ns) / 1e9)
        return result, pace_now / PACE_CHUNKS_PER_S

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.counter.close()


def run_stage(name: str, argv: list[str], spans_path: str | None = None) -> StageResult:
    """Run one CLI stage in a fresh process and wait for it to end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
               **SINGLE_THREADED)
    spawned = _now()
    if spans_path is None:
        cmd = [sys.executable, "-m", "linkcdr.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_stage.py"), spans_path,
               name, repr(spawned), "--", *argv]
    with open(os.devnull, "wb") as null:
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
        ])
    watchdog = threading.Timer(STAGE_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    seconds = _now() - spawned
    spans = None
    if spans_path is not None and os.path.exists(spans_path):
        spans = checks.read_json(spans_path)
    return StageResult(name, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       os.waitstatus_to_exitcode(status), spans)


# --- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, the timed stages of one round, and the output checks."""

    def __init__(self, work: str, seed: int, size: dict) -> None:
        self.work, self.seed, self.size = work, seed, size
        self.inputs = os.path.join(work, "inputs")
        self.input_ids: dict[str, str] = {}  # input file -> sha256, or the argv

    def setup(self) -> None:
        run_stage("version", ["--version"])

    def stages(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)


class SynthWrite(Workload):
    def setup(self) -> None:
        super().setup()
        self.input_ids = {"argv": " ".join(self.stages()[0][1])}

    def stages(self):
        return [("generate", ["generate", "--preset", "table3-like", "--verify",
                              "--n-pairs", str(self.size["synth_pairs"]),
                              "--seed", str(self.seed), "--out", self.out("generate")])]

    def check(self) -> None:
        checks.check_synth_write(self.out("generate"), self.size["synth_pairs"])


class CdrExtract(Workload):
    def setup(self) -> None:
        super().setup()
        self.truth = build_inputs.build(self.seed, self.size["extract_pairs"], self.inputs)
        self.input_ids = self.truth["sha256"]

    def stages(self):
        events = os.path.join(self.inputs, "events.csv")
        subscribers = os.path.join(self.inputs, "subscribers.csv")
        return [
            ("ingest", ["ingest", "--events", events, "--subscribers", subscribers,
                        "--out", self.out("ingest")]),
            ("pairs", ["pairs", "--events", events, "--subscribers", subscribers,
                       "--out", self.out("pairs")]),
            ("features", ["features", "--events", events,
                          "--pairs", os.path.join(self.out("pairs"), "pairs.csv"),
                          "--out", self.out("features")]),
        ]

    def check(self) -> None:
        checks.check_cdr_extract(self.work, self.inputs, self.truth)


class FitModels(Workload):
    def setup(self) -> None:
        super().setup()
        self.truth = build_inputs.build(self.seed, self.size["fit_pairs"], self.inputs)
        events = os.path.join(self.inputs, "events.csv")
        subscribers = os.path.join(self.inputs, "subscribers.csv")
        for name, argv in (
            ("pairs", ["pairs", "--events", events, "--subscribers", subscribers,
                       "--out", self.inputs]),
            ("features", ["features", "--events", events, "--pairs", self.pairs,
                          "--out", self.inputs]),
        ):
            result = run_stage(name, argv)
            if result.code != 0:
                raise RuntimeError(f"set-up stage {name} exited {result.code}")
        self.input_ids = {**self.truth["sha256"],
                          "features.csv": build_inputs.sha256_of(self.features),
                          "pairs.csv": build_inputs.sha256_of(self.pairs)}

    @property
    def pairs(self) -> str:
        return os.path.join(self.inputs, "pairs.csv")

    @property
    def features(self) -> str:
        return os.path.join(self.inputs, "features.csv")

    def stages(self):
        common = ["--features", self.features, "--pairs", self.pairs, "--task", "ogp"]
        train = ["--n-train", str(self.size["n_train"]), "--n-test", str(self.size["n_test"]),
                 "--seed", str(self.seed)]
        return [
            ("pca", ["pca", "--features", self.features, "--n-comp", str(N_COMP),
                     "--out", self.out("pca")]),
            *(
                (f"train_{model}", ["train", *common, "--model", model, *train,
                                    "--out", self.out(f"train_{model}")])
                for model in ("lsvm", "logreg", "knn")
            ),
            ("bayes_bounds", ["bayes-bounds", *common, "--loo", "--out", self.out("bayes")]),
        ]

    def check(self) -> None:
        checks.check_fit_models(self.work, self.inputs, self.truth, N_COMP, self.size["n_test"])


WORKLOADS = {"synth-write": SynthWrite, "cdr-extract": CdrExtract, "fit-models": FitModels}


# --- measurement --------------------------------------------------------------


def layer_metrics(results: list[StageResult]) -> dict[str, float]:
    """Per-layer self seconds, span counts and counters of one traced round."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    startup = 0.0
    for result in results:
        if result.spans is None:
            continue
        spans = result.spans["spans"]
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (layer, start, end, _), inner in zip(spans, child_time):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - inner)
            calls[layer] = calls.get(layer, 0) + 1
        for name, value in result.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value
        startup += result.spans["startup_s"]
    out = {}
    for metric, (_, source) in PER_LAYER.items():
        kind, _, name = source.partition(":")
        if kind == "self":
            out[metric] = self_s.get(name, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "count":
            out[metric] = counts.get(name, 0)
        elif kind == "startup":
            out[metric] = startup
    return out


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Set up, run timed rounds until ``seconds`` (set-ups included) would
    be exceeded, and check the outputs. Untraced runs pin the benchmark to
    one CPU and time set-ups and stages at the pace of pace.py's loop
    running beside them; traced runs pin nothing, and their span and stage
    times are wall seconds."""
    began = _now()
    cpus = os.sched_getaffinity(0)
    pacer = None
    if not trace:
        os.sched_setaffinity(0, {min(cpus)})  # stage processes inherit it
    try:
        if not trace:
            pacer = Pace(workload.work)
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            if pacer is None:
                workload.setup()
                continue
            cpu = _cpu()
            _, scale = pacer.scale(workload.setup)
            setup_times.append((_cpu() - cpu) * scale)

        stages = workload.stages()
        spans_dir = os.path.join(workload.work, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # (traced, stage results, wall seconds, paced seconds) per round
        rounds: list[tuple[bool, list[StageResult], float, float]] = []
        while True:
            traced = trace and len(rounds) % 2 == 1
            start = _now()
            results, paced = [], 0.0
            for name, argv in stages:
                spans = os.path.join(spans_dir, f"{len(rounds)}_{name}.json") if traced else None
                if pacer is None:
                    results.append(run_stage(name, argv, spans))
                    continue
                result, scale = pacer.scale(functools.partial(run_stage, name, argv, spans))
                results.append(result)
                paced += result.cpu_s * scale
            rounds.append((traced, results, _now() - start, paced))
            elapsed = _now() - began
            last = rounds[-1][2]
            enough = len(rounds) >= (2 if trace else 1)
            if enough and elapsed + last > seconds:
                break
    finally:
        if pacer is not None:
            pacer.close()
        os.sched_setaffinity(0, cpus)

    attempted = sum(len(r) for _, r, _, _ in rounds)
    failed = sum(res.code != 0 for _, r, _, _ in rounds for res in r)
    plain = [r for t, r, _, _ in rounds if not t]
    metrics = {}
    if trace:
        traced_rounds = [r for t, r, _, _ in rounds if t]
        per_round = [layer_metrics(r) for r in traced_rounds]
        for metric in PER_LAYER:
            values = [m[metric] for m in per_round if metric in m]
            if values:
                metrics[metric] = statistics.median(values)
        for stage in STAGE_NAMES:
            times = [res.seconds for r in plain for res in r if res.name == stage]
            metrics[f"stage.{stage}_s"] = statistics.median(times) if times else 0.0
        untraced = statistics.median(sum(res.seconds for res in r) for r in plain)
        traced_wall = statistics.median(sum(res.seconds for res in r) for r in traced_rounds)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["cpu_s"] = statistics.median(p for _, _, _, p in rounds)
        metrics["peak_rss_mb"] = statistics.median(max(res.rss_mb for res in r) for r in plain)
        units = END_TO_END

    correct = failed == 0
    problem = None
    try:
        workload.check()
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        correct, problem = False, f"{type(exc).__name__}: {exc}"
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
        "problem": problem,
        "rounds": len(rounds),
        "round_wall_s": statistics.median(w for _, _, w, _ in rounds),
        "inputs": workload.input_ids,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return measure(WORKLOADS[name](work, seed, SIZES["full"]), seconds, trace)


def report(name: str, result: dict) -> None:
    print(f"[{name}] inputs {json.dumps(result['inputs'], sort_keys=True)}")
    print(f"[{name}] rounds {result['rounds']} (median wall time {result['round_wall_s']:.3f} s), "
          f"stage operations attempted {result['attempted']}, failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    if result["problem"]:
        print(f"[{name}] check failed: {result['problem']}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "linkcdr", "cli.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} not found; run from a linkcdr checkout", file=sys.stderr)
            return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
