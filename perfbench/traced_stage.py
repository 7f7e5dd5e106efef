"""Run one linkcdr CLI stage with a span around every layer call.

Usage: ``python3 traced_stage.py SPANS_JSON PROC_ID SPAWN_TIME -- <linkcdr args>``

Before entering ``linkcdr.cli.main`` it replaces each layer's public
functions with a timing wrapper, at the names the stage code calls them by
(``linkcdr.cli.parse_events``, ``linkcdr.features.common_contacts``, ...).
Spans (layer, start, end, parent) and counters stay in memory and are
written to SPANS_JSON when the stage ends. SPAWN_TIME is the parent's
CLOCK_MONOTONIC reading when it started this process, so the span file
also carries the start-up time up to ``main``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def run(self, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([layer, _now(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = _now()

    def wrap(self, module: str, path: str, layer: str, after) -> bool:
        """Replace ``module.path`` by a wrapper recording a ``layer`` span;
        ``after(tracer, inner, args, kwargs, result)`` updates the counters.
        Returns False, and wraps nothing, if the name does not exist."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        inner = getattr(owner, attr, None)
        if inner is None:
            return False

        def traced(*args, **kwargs):
            result = self.run(layer, inner, *args, **kwargs)
            if after is not None:
                after(self, inner, args, kwargs, result)
            return result

        static = isinstance(inspect.getattr_static(owner, attr), classmethod)
        setattr(owner, attr, staticmethod(traced) if static else traced)
        return True


def _counter(name: str, measure):
    return lambda tracer, inner, args, kwargs, result: tracer.count(
        name, measure(args, kwargs, result)
    )


def _fit_counts(prefix: str):
    def after(tracer, inner, args, kwargs, model):
        tol = kwargs.get("tol", inspect.signature(inner).parameters["tol"].default)
        tracer.count(f"{prefix}.iterations", model.n_iterations)
        # "not <" so that a NaN norm (never measured) counts as unconverged.
        tracer.count(f"{prefix}.unconverged", not model.grad_map_norm < tol)

    return after


def _rows(x) -> int:
    return len(x) if getattr(x, "ndim", 2) > 1 else 1


def install(tracer: Tracer) -> None:
    """Wrap every layer function a stage reaches; see README for the map.

    A name that no longer exists is skipped, so its layer reports 0."""
    parsed = _counter("ingest.rows_read", lambda a, k, r: len(r[0]) + len(r[1]))
    rejected = _counter("ingest.rows_rejected", lambda a, k, r: len(r[1]))
    links = _counter("pairgraph.links", lambda a, k, r: len(r))
    kept = _counter("pairgraph.links_kept", lambda a, k, r: len(r))
    pairs = _counter("pairgraph.pairs", lambda a, k, r: len(r))

    def after_parse(tracer, inner, args, kwargs, result):
        parsed(tracer, inner, args, kwargs, result)
        rejected(tracer, inner, args, kwargs, result)

    table = [
        ("linkcdr.cli", "parse_events", "ingest.parse_events", after_parse),
        ("linkcdr.cli", "parse_subscribers", "ingest.parse_subscribers", None),
        ("linkcdr.cli", "validate_dataset", "ingest.validate_dataset", None),
        ("linkcdr.ingest", "EventColumns.from_events", "ingest.event_columns", None),
        ("linkcdr.cli", "build_links", "pairgraph.build_links", links),
        ("linkcdr.synthgen", "build_links", "pairgraph.build_links", links),
        ("linkcdr.cli", "apply_regularity_filter", "pairgraph.regularity_filter", kept),
        ("linkcdr.synthgen", "apply_regularity_filter", "pairgraph.regularity_filter", kept),
        ("linkcdr.cli", "mutual_top_rank_pairs", "pairgraph.mutual_top_rank", pairs),
        ("linkcdr.synthgen", "mutual_top_rank_pairs", "pairgraph.mutual_top_rank", pairs),
        ("linkcdr.features", "common_contacts", "pairgraph.common_contacts", None),
        ("linkcdr.cli", "label_pairs", "pairgraph.label_pairs", None),
        ("linkcdr.cli", "compute_feature_matrix", "features.matrix",
         _counter("features.rows", lambda a, k, r: r.shape[0])),
        ("linkcdr.cli", "fit_scaler", "features.scaler", None),
        ("linkcdr.cli", "apply_scaler", "features.scaler", None),
        ("linkcdr.cli", "write_features_csv", "io_utils.write_features", None),
        ("linkcdr.cli", "read_features_csv", "io_utils.read_features", None),
        ("linkcdr.cli", "read_pairs_csv", "io_utils.pairs_csv", None),
        ("linkcdr.cli", "write_pairs_csv", "io_utils.pairs_csv", None),
        ("linkcdr.io_utils", "RunManifest.write", "io_utils.manifest", None),
        ("linkcdr.io_utils", "sha256_file", "io_utils.manifest",
         _counter("io_utils.hashed_bytes", lambda a, k, r: os.path.getsize(a[0]))),
        ("linkcdr.cli", "pca", "decompose.pca", None),
        ("linkcdr.cli", "varimax", "decompose.varimax",
         _counter("decompose.varimax_iterations", lambda a, k, r: r.n_iterations)),
        ("linkcdr.learn.pipeline", "train_linear_svm", "linear.lsvm.fit",
         _fit_counts("linear.lsvm")),
        ("linkcdr.learn.pipeline", "train_logreg", "linear.logreg.fit",
         _fit_counts("linear.logreg")),
        ("linkcdr.learn.neighbors", "knn_predict", "neighbors.knn_predict",
         _counter("neighbors.distance_evals", lambda a, k, r: len(a[0]) * _rows(a[2]))),
        ("linkcdr.learn.pipeline", "cross_validate", "pipeline.cross_validate", None),
        ("linkcdr.cli", "seed_ensemble", "pipeline.seed_ensemble", None),
        ("linkcdr.learn.pipeline", "platt_fit", "calibration.platt_fit", None),
        ("linkcdr.cli", "evaluate", "evaluation.evaluate", None),
        ("linkcdr.cli", "one_nn_error_loo", "bayes.one_nn",
         _counter("bayes.distance_evals", lambda a, k, r: len(a[0]) ** 2)),
        ("linkcdr.cli", "one_nn_error", "bayes.one_nn",
         _counter("bayes.distance_evals", lambda a, k, r: len(a[0]) * len(a[2]))),
        ("linkcdr.cli", "generate", "synthgen.generate",
         _counter("synthgen.events", lambda a, k, r: len(r.columns))),
        ("linkcdr.cli", "write_dataset", "synthgen.write_dataset", None),
        ("linkcdr.cli", "verify_planted", "synthgen.verify_planted", None),
    ]
    for module, path, layer, after in table:
        if not tracer.wrap(module, path, layer, after):
            print(f"traced_stage: {module}.{path} not found; {layer} reports 0", file=sys.stderr)


def main() -> int:
    spans_path, proc_id, spawned, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from linkcdr import cli

    tracer = Tracer()
    install(tracer)
    entered = _now()
    code = 1
    try:
        code = tracer.run("cli", cli.main, argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "proc": proc_id,
                    "argv": argv,
                    "startup_s": entered - float(spawned),
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                },
                out,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
