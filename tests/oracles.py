"""Independent brute-force reference implementations used as test oracles.

Everything here avoids the library's vectorized code paths: plain dicts,
datetime arithmetic, and math-module moments, so agreement with the package
is meaningful. The l2 linear-model reference is plain gradient descent on
numpy arrays and shares no code with the library's solvers; the full-space
l2 Newton loop is the trainers' loop as it ran before fits with fewer rows
than features moved to the span of the rows, and holds that path to it;
``objective_value`` and ``smooth_gradient`` state the trainers' objective
and its gradient apart from the solver, which computes both from its own
margin product. The two-Gaussian mixture has a closed-form Bayes error that the 1-NN bounds must
sandwich; the neighbour order is a full stable argsort of explicit
differences.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from linkcdr.errors import DatasetError
from linkcdr.ingest import CdrEvent, EventKind, ObservationWindow
from linkcdr.manifest import FEATURE_NAMES


# --- ingest --------------------------------------------------------------


def _reference_row(line: str, window: ObservationWindow) -> CdrEvent | str:
    """The event a data line encodes, or the reason it is rejected."""
    fields = line.split(",")
    if len(fields) != 5:
        return f"expected 5 fields, got {len(fields)}"
    caller, callee, ts_text, kind, dur_text = fields
    if caller == "" or callee == "":
        return "empty user id"
    if caller == callee:
        return "self-loop"
    try:
        ts = int(ts_text)
    except ValueError:
        return f"bad timestamp {ts_text!r}"
    if ts < window.start or ts >= window.end:
        return f"timestamp {ts} outside window"
    if kind not in ("call", "text"):
        return f"unknown kind {kind!r}"
    if dur_text == "":
        if kind == "text":
            return "text with unknown duration"
        return CdrEvent(caller, callee, ts, EventKind.CALL, None)
    try:
        duration = int(dur_text)
    except ValueError:
        return f"bad duration {dur_text!r}"
    if duration >= 2**63:  # too large for an int64 column
        return f"bad duration {dur_text!r}"
    if duration < 0:
        return f"negative duration {duration}"
    if kind == "text" and duration != 0:
        return "text with nonzero duration"
    return CdrEvent(caller, callee, ts, EventKind(kind), duration)


def parse_events_reference(
    data: bytes, window: ObservationWindow
) -> tuple[list[CdrEvent], list[tuple[int, str]]]:
    """events.csv bytes (header included) parsed from the whole decoded text:
    accepted rows as events, other non-blank lines as (line number, reason).
    Lines end at \\r\\n, \\r or \\n, as in universal-newline reading."""
    lines = re.split(r"\r\n|\r|\n", data.decode("utf-8", errors="replace"))
    assert lines[0] == "caller_id,callee_id,timestamp,kind,duration"
    events: list[CdrEvent] = []
    rejected: list[tuple[int, str]] = []
    for number, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        got = _reference_row(line, window)
        if isinstance(got, str):
            rejected.append((number, got))
        else:
            events.append(got)
    return events, rejected


def month_starts_reference(start: int, end: int) -> list[int]:
    """Epoch seconds of the first instant of every UTC calendar month that
    [start, end) touches, walking one month at a time from start's month."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    first = epoch + timedelta(seconds=start)
    month = datetime(first.year, first.month, 1, tzinfo=timezone.utc)
    starts = []
    while (seconds := (month - epoch) // timedelta(seconds=1)) < end:
        starts.append(seconds)
        month = month.replace(year=month.year + month.month // 12, month=month.month % 12 + 1)
    return starts


# --- synthgen ------------------------------------------------------------


def event_rows_reference(cols) -> bytes:
    """The events.csv data lines of ``cols``: one f-string per row, an empty
    duration field for an unknown (negative) duration, UTF-8 encoded."""
    users = cols.users
    rows = zip(
        cols.caller.tolist(),
        cols.callee.tolist(),
        cols.timestamp.tolist(),
        cols.is_call.tolist(),
        cols.duration.tolist(),
    )
    return "".join(
        f"{users[a]},{users[b]},{t},{'call' if c else 'text'},{'' if d < 0 else d}\n"
        for a, b, t, c, d in rows
    ).encode("utf-8")


# --- graph layer ---------------------------------------------------------


def recount_links(events: list[CdrEvent], window: ObservationWindow) -> dict:
    """Per-pair counters recomputed with plain dict folds."""
    out: dict[tuple[str, str], dict] = {}
    for ev in events:
        key = tuple(sorted((ev.caller_id, ev.callee_id)))
        rec = out.setdefault(
            key,
            {
                "calls_total": 0,
                "texts_total": 0,
                "duration_total": 0,
                "calls_from_first": 0,
                "texts_from_first": 0,
                "duration_from_first": 0,
                "months": [0] * window.n_months,
            },
        )
        from_first = ev.caller_id == key[0]
        if ev.kind is EventKind.CALL:
            rec["calls_total"] += 1
            month = max(
                i for i, start in enumerate(window.month_starts) if start <= ev.timestamp
            )
            rec["months"][month] += 1
            if from_first:
                rec["calls_from_first"] += 1
            if ev.duration is not None:
                rec["duration_total"] += ev.duration
                if from_first:
                    rec["duration_from_first"] += ev.duration
        else:
            rec["texts_total"] += 1
            if from_first:
                rec["texts_from_first"] += 1
    return out


def rank_alters_brute(links: dict, ego: str) -> list[tuple[str, int]]:
    rows = []
    for (a, b), rec in links.items():
        if ego not in (a, b):
            continue
        alter = b if ego == a else a
        rows.append((alter, rec["calls_total"], rec["duration_total"]))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return [(alter, calls) for alter, calls, _ in rows]


def mutual_pairs_brute(links: dict) -> list[tuple[str, str]]:
    users = {u for key in links for u in key}
    tops = {}
    for user in users:
        ranked = rank_alters_brute(links, user)
        if ranked:
            tops[user] = ranked[0][0]
    return sorted(
        (u, t) for u, t in tops.items() if u < t and tops.get(t) == u
    )


def common_contacts_brute(links: dict, a: str, b: str) -> tuple[int, int]:
    def neighbors(user: str) -> set[str]:
        out = set()
        for x, y in links:
            if user == x:
                out.add(y)
            elif user == y:
                out.add(x)
        return out

    exclude = {a, b}
    all_common = len((neighbors(a) - exclude) & (neighbors(b) - exclude))
    top_a = {alter for alter, _ in rank_alters_brute(links, a)[:5]} - exclude
    top_b = {alter for alter, _ in rank_alters_brute(links, b)[:5]} - exclude
    return len(top_a & top_b), all_common


# --- statistics ------------------------------------------------------------


def moment_stats(series) -> tuple[float, float, float, float, float, float, float]:
    """Population moments via plain Python arithmetic."""
    vals = [float(v) for v in series]
    n = len(vals)
    mean = sum(vals) / n
    ordered = sorted(vals)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    var = sum((v - mean) ** 2 for v in vals) / n
    std = math.sqrt(var)
    if std == 0:
        skew = kurt = 0.0
    else:
        skew = sum((v - mean) ** 3 for v in vals) / n / std**3
        kurt = sum((v - mean) ** 4 for v in vals) / n / std**4 - 3.0
    return mean, median, std, min(vals), max(vals), skew, kurt


def _signed_log1p(x: float) -> float:
    return math.copysign(math.log1p(abs(x)), x) if x else 0.0


# --- full feature vector -----------------------------------------------------

WEEKPARTS = ("weekday", "weekend")
DAYPARTS = ("daytime", "evening", "late_night")
STATS = ("mean", "median", "std", "min", "max", "skew", "kurt")


def _local(ts: int, offset: int) -> datetime:
    return datetime.fromtimestamp(ts + offset, tz=timezone.utc)


def _daypart(dt: datetime) -> str:
    if 7 <= dt.hour <= 16:
        return "daytime"
    if 17 <= dt.hour <= 22:
        return "evening"
    return "late_night"


def _weekpart(dt: datetime) -> str:
    return "weekday" if dt.weekday() <= 3 else "weekend"


def feature_vector_oracle(
    events: list[CdrEvent],
    window: ObservationWindow,
    utc_offset: int,
    common: tuple[int, int],
) -> list[float]:
    """Recompute all 175 features with datetime arithmetic and dict folds."""
    values: dict[str, float] = {}

    # full Monday-aligned weeks inside the window (local time)
    start = _local(window.start, utc_offset)
    end = _local(window.end, utc_offset)
    cursor = start
    if cursor.time() != datetime.min.time():
        cursor = datetime.combine(cursor.date() + timedelta(days=1), datetime.min.time(), timezone.utc)
    while cursor.weekday() != 0:
        cursor += timedelta(days=1)
    week_starts = []
    while cursor + timedelta(days=7) <= end:
        week_starts.append(cursor)
        cursor += timedelta(days=7)
    n_weeks = len(week_starts)
    first_week = week_starts[0]

    weekly: dict[tuple[int, str, str, str], float] = {}
    totals: dict[tuple[str, str, str], float] = {}
    active: dict[tuple[str, str, str], set] = {}
    direction = {("calls", True): 0.0, ("calls", False): 0.0, ("duration", True): 0.0,
                 ("duration", False): 0.0, ("texts", True): 0.0, ("texts", False): 0.0}
    call_times: list[int] = []
    text_times: list[int] = []
    first_id = min(min(e.caller_id, e.callee_id) for e in events) if events else ""

    for ev in events:
        dt = _local(ev.timestamp, utc_offset)
        wp, dp = _weekpart(dt), _daypart(dt)
        week_idx = (datetime.combine(dt.date(), datetime.min.time(), timezone.utc)
                    - timedelta(days=dt.weekday()) - first_week).days // 7 if n_weeks else -1
        in_weeks = 0 <= week_idx < n_weeks
        from_first = ev.caller_id == first_id
        if ev.kind is EventKind.CALL:
            call_times.append(ev.timestamp)
            if in_weeks:
                weekly[(week_idx, "calls", wp, dp)] = weekly.get((week_idx, "calls", wp, dp), 0) + 1
            totals[("calls", wp, dp)] = totals.get(("calls", wp, dp), 0) + 1
            active.setdefault(("call", wp, dp), set()).add(dt.date())
            direction[("calls", from_first)] += 1
            if ev.duration is not None:
                if in_weeks:
                    weekly[(week_idx, "duration", wp, dp)] = (
                        weekly.get((week_idx, "duration", wp, dp), 0) + ev.duration
                    )
                totals[("duration", wp, dp)] = totals.get(("duration", wp, dp), 0) + ev.duration
                direction[("duration", from_first)] += ev.duration
        else:
            text_times.append(ev.timestamp)
            if in_weeks:
                weekly[(week_idx, "texts", wp, dp)] = weekly.get((week_idx, "texts", wp, dp), 0) + 1
            totals[("texts", wp, dp)] = totals.get(("texts", wp, dp), 0) + 1
            active.setdefault(("text", wp, dp), set()).add(dt.date())
            direction[("texts", from_first)] += 1

    for qty in ("calls", "duration", "texts"):
        for wp in WEEKPARTS:
            for dp in DAYPARTS:
                series = [weekly.get((w, qty, wp, dp), 0.0) for w in range(n_weeks)]
                stats = moment_stats(series)
                for stat_name, value in zip(STATS, stats):
                    stored = math.log1p(value) if stat_name in STATS[:5] else value
                    values[f"weekly_{qty}_{wp}_{dp}_{stat_name}"] = stored

    for wp in WEEKPARTS:
        for qty in ("calls", "duration", "texts"):
            wp_total = sum(totals.get((qty, wp, dp), 0.0) for dp in DAYPARTS)
            for dp in DAYPARTS:
                frac = totals.get((qty, wp, dp), 0.0) / wp_total if wp_total > 0 else 0.0
                if dp == "late_night" and qty in ("calls", "duration"):
                    frac = math.log1p(frac)
                values[f"frac_{wp}_{qty}_{dp}"] = frac

    for kind in ("call", "text"):
        for wp in WEEKPARTS:
            for dp in DAYPARTS:
                values[f"active_days_{kind}_{wp}_{dp}"] = math.log1p(
                    len(active.get((kind, wp, dp), set()))
                )

    for qty in ("calls", "duration", "texts"):
        out_q = direction[(qty, True)]
        in_q = direction[(qty, False)]
        total = in_q + out_q
        values[f"reciprocity_{qty}"] = abs(in_q - out_q) / total if total else 0.0

    for channel, times in (("calls", call_times), ("texts", text_times)):
        if len(times) < 2:
            stats = [math.log1p(window.end - window.start)] * 5 + [0.0, 0.0]
        else:
            ordered = sorted(times)
            gaps = [b - a for a, b in zip(ordered, ordered[1:])]
            raw = moment_stats(gaps)
            stats = [math.log1p(v) for v in raw[:5]] + [_signed_log1p(v) for v in raw[5:]]
        for stat_name, value in zip(STATS, stats):
            values[f"interevent_{channel}_{stat_name}"] = value

    values["common_contacts_top5"] = float(common[0])
    values["common_contacts_all"] = float(common[1])
    return [values[name] for name in FEATURE_NAMES]


# --- l2 linear models ----------------------------------------------------


def l2_linear_objective(w, b: float, x, y01, kind: str, c: float):
    """(value, w-gradient, b-gradient) of mean loss + ||w||^2 / (2C) with an
    unpenalized bias, for logistic loss or squared hinge on labels {0, 1}."""
    s = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    m = s * (x @ w + b)
    if kind == "logreg":
        loss = np.logaddexp(0.0, -m)
        dloss = -0.5 * (1.0 - np.tanh(0.5 * m))  # -1 / (1 + e^m)
    else:
        hinge = np.maximum(0.0, 1.0 - m)
        loss = hinge * hinge
        dloss = -2.0 * hinge
    coef = dloss * s / len(m)
    return float(loss.mean() + 0.5 * (w @ w) / c), x.T @ coef + w / c, float(coef.sum())


def l2_linear_reference(x, y01, kind: str, c: float, tol: float, max_iter: int):
    """Plain gradient descent with Armijo backtracking on the l2 objective,
    from zero. Returns (value, gradient norm, converged)."""
    w = np.zeros(x.shape[1])
    b = 0.0
    value, gw, gb = l2_linear_objective(w, b, x, y01, kind, c)
    step = 1.0
    for _ in range(max_iter):
        sq = float(gw @ gw) + gb * gb
        if math.sqrt(sq) < tol:
            return value, math.sqrt(sq), True
        step *= 2.0
        while True:
            w_new, b_new = w - step * gw, b - step * gb
            new_value, new_gw, new_gb = l2_linear_objective(w_new, b_new, x, y01, kind, c)
            if new_value <= value - 0.5 * step * sq:
                break
            step *= 0.5
            if step < 1e-20:
                return value, math.sqrt(sq), False
        w, b, value, gw, gb = w_new, b_new, new_value, new_gw, new_gb
    return value, math.sqrt(float(gw @ gw) + gb * gb), False


def _newton_terms(kind: str, margins):
    """Per-sample (loss, dloss/dmargin, d2loss/dmargin2) in the library's own
    expressions; for the squared hinge the generalized curvature."""
    if kind == "logreg":
        loss = np.logaddexp(0.0, -margins)
        dloss = -np.exp(-np.logaddexp(0.0, margins))
        curvature = np.exp(-np.logaddexp(0.0, margins) - np.logaddexp(0.0, -margins))
        return loss, dloss, curvature
    gap = np.maximum(0.0, 1.0 - margins)
    return gap**2, -2.0 * gap, np.where(margins < 1.0, 2.0, 0.0)


def objective_value(weights, bias: float, x, y01, kind: str, penalty: str, c: float) -> float:
    """The exact objective the trainers minimize (mean loss + penalty), in
    the library's loss expressions."""
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    loss = float(_newton_terms(kind, y * (x @ weights + bias))[0].mean())
    if penalty == "l2":
        reg = 0.5 * float(weights @ weights) / c
    elif penalty == "l1":
        reg = float(np.abs(weights).sum()) / c
    else:
        raise DatasetError(f"unknown penalty {penalty!r}")
    return loss + reg


def smooth_gradient(weights, bias: float, x, y01, kind: str, penalty: str, c: float):
    """(w-gradient, b-gradient) of the smooth part of the trainers'
    objective (mean loss, plus the l2 term if any)."""
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    dmargin = _newton_terms(kind, y * (x @ weights + bias))[1] * y / x.shape[0]
    gw = x.T @ dmargin
    gb = float(dmargin.sum())
    if penalty == "l2":
        gw = gw + weights / c
    return gw, gb


def l2_newton_reference(x, y01, kind: str, c: float, max_iter: int = 1000, tol: float = 1e-6):
    """Damped Newton with Armijo backtracking on the l2 objective in the full
    [w, b] space: the trainers' loop before l2 fits with fewer rows than
    features moved to the span of the rows. Returns (w, b, steps, gradient
    norm, objective)."""
    n, d = x.shape
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    xa = np.column_stack([x, np.ones(n)])

    def objective(w, b):
        return float(_newton_terms(kind, y * (x @ w + b))[0].mean()) + 0.5 * float(w @ w) / c

    w, b = np.zeros(d), 0.0
    value = objective(w, b)
    iterations = 0
    while True:
        margins = y * (x @ w + b)
        _, dloss, curvature = _newton_terms(kind, margins)
        dmargin = dloss * y / n
        grad = np.append(x.T @ dmargin + w / c, float(dmargin.sum()))
        grad_norm = math.sqrt(float(grad @ grad))
        if grad_norm < tol or iterations == max_iter:
            break
        hess = (xa.T * (curvature / n)) @ xa + np.diag(np.append(np.full(d, 1.0 / c), 0.0))
        if hess[-1, -1] == 0.0:
            hess[-1, -1] = 1.0
        step = np.linalg.solve(hess, -grad)
        decrease = float(grad @ step)
        t = 1.0
        for _ in range(60):
            w_trial, b_trial = w + t * step[:-1], b + t * float(step[-1])
            trial_value = objective(w_trial, b_trial)
            if trial_value <= value + 1e-4 * t * decrease:
                break
            t *= 0.5
        else:
            break
        w, b, value = w_trial, b_trial, trial_value
        iterations += 1
    return w, b, iterations, grad_norm, value


# --- l1 linear models ----------------------------------------------------


def l1_kkt_residual(w, b: float, x, y01, kind: str, c: float) -> float:
    """How far (w, b) is from the optimality conditions of mean loss +
    ||w||_1 / C with an unpenalized bias: the loss gradient must equal
    -sign(w_j)/C where w_j != 0, lie within [-1/C, 1/C] where w_j == 0, and
    vanish in b. Returns the Euclidean norm of the violations."""
    _, gw, gb = l2_linear_objective(w, b, x, y01, kind, math.inf)  # the loss part
    off = np.where(w != 0, np.abs(gw + np.sign(w) / c), np.maximum(np.abs(gw) - 1.0 / c, 0.0))
    return math.sqrt(float(off @ off) + gb * gb)


def l1_linear_reference(x, y01, kind: str, c: float, tol: float, max_iter: int):
    """Proximal gradient with backtracking on mean loss + ||w||_1 / C, from
    zero: a gradient step on the loss, then soft-thresholding by step / C.
    Returns (value, KKT residual, converged)."""
    w = np.zeros(x.shape[1])
    b = 0.0
    loss, gw, gb = l2_linear_objective(w, b, x, y01, kind, math.inf)
    step = 1.0
    for _ in range(max_iter):
        residual = l1_kkt_residual(w, b, x, y01, kind, c)
        if residual < tol:
            return loss + np.abs(w).sum() / c, residual, True
        step *= 2.0
        while True:
            moved = w - step * gw
            w_new = np.sign(moved) * np.maximum(np.abs(moved) - step / c, 0.0)
            b_new = b - step * gb
            new_loss, new_gw, new_gb = l2_linear_objective(w_new, b_new, x, y01, kind, math.inf)
            dw, db = w_new - w, b_new - b
            # the quadratic upper bound with curvature 1/step must hold
            if new_loss <= loss + gw @ dw + gb * db + (dw @ dw + db * db) / (2.0 * step):
                break
            step *= 0.5
            if step < 1e-20:
                return loss + np.abs(w).sum() / c, residual, False
        w, b, loss, gw, gb = w_new, b_new, new_loss, new_gw, new_gb
    residual = l1_kkt_residual(w, b, x, y01, kind, c)
    return loss + np.abs(w).sum() / c, residual, residual < tol


# --- nearest neighbours ----------------------------------------------------


def neighbor_order_reference(train_x, queries, m: int, exclude_self: bool = False):
    """The first m training rows per query in (squared distance, training
    index) order, by a full stable argsort of distances taken as sums of
    squared differences. With ``exclude_self`` the queries are the training
    rows and each row's own distance is infinite. Exact on data whose squared
    differences add up without rounding, such as small integers."""
    train_x = np.asarray(train_x, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    dists = ((queries[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    if exclude_self:
        dists[np.arange(len(queries)), np.arange(len(queries))] = np.inf
    return np.argsort(dists, axis=1, kind="stable")[:, :m]


# --- Bayes error ---------------------------------------------------------


@dataclass(frozen=True)
class GaussianClassOracle:
    """Two-class mixture of isotropic Gaussians with known parameters."""

    priors: tuple[float, float]
    means: tuple[np.ndarray, np.ndarray]
    sigma: float

    def __post_init__(self) -> None:
        if len(self.priors) != 2 or len(self.means) != 2:
            raise DatasetError("oracle supports exactly two classes")
        if not all(0 < p < 1 for p in self.priors):
            raise DatasetError("priors must lie in (0, 1)")
        if abs(sum(self.priors) - 1.0) > 1e-9:
            raise DatasetError("priors must sum to 1")
        if self.sigma <= 0:
            raise DatasetError("sigma must be positive")
        object.__setattr__(
            self,
            "means",
            tuple(np.asarray(m, dtype=np.float64) for m in self.means),
        )
        if self.means[0].shape != self.means[1].shape:
            raise DatasetError("unsupported covariance structure: mean dimension mismatch")

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        labels = (rng.random(n) < self.priors[1]).astype(np.int64)
        dim = self.means[0].shape[0]
        x = rng.standard_normal((n, dim)) * self.sigma
        x += np.where(labels[:, None] == 1, self.means[1], self.means[0])
        return x, labels


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_bayes_error(oracle: GaussianClassOracle) -> float:
    """Exact Bayes error of the two-Gaussian oracle.

    The optimal rule thresholds the projection onto the mean difference;
    with equal priors this reduces to Phi(-d / (2 sigma)).
    """
    p0, p1 = oracle.priors
    d = float(np.linalg.norm(oracle.means[1] - oracle.means[0]))
    sigma = oracle.sigma
    if d == 0.0:
        return min(p0, p1)
    threshold = -(sigma**2 / d) * math.log(p1 / p0)
    return p0 * _phi(-(threshold + d / 2.0) / sigma) + p1 * _phi((threshold - d / 2.0) / sigma)
