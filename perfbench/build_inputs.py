"""Seeded raw-CDR input builder for the ``cdr-extract`` and ``fit-models``
workloads.

It uses numpy and the standard library only and imports nothing from
``linkcdr``, so a change to the program's own generator cannot change the
bytes a workload measures. It writes ``events.csv`` and ``subscribers.csv``
in the formats ``linkcdr.ingest`` documents, plus ``truth.json`` with what
the builder planted: pairs and demographics, each injected malformed line
with its reason, and the tallies a correct ingest must report.

Run alone: ``python3 perfbench/build_inputs.py --seed 1 --n-pairs 1000 --out DIR``.
"""

from __future__ import annotations

import argparse
import calendar
import hashlib
import json
import math
import os
from statistics import NormalDist

import numpy as np

EVENTS_HEADER = "caller_id,callee_id,timestamp,kind,duration"
SUBSCRIBERS_HEADER = "user_id,age,gender,postcode"

# The program's default observation window: 2007-01-01 to 2007-08-01 UTC.
WINDOW_START = calendar.timegm((2007, 1, 1, 0, 0, 0))
WINDOW_END = calendar.timegm((2007, 8, 1, 0, 0, 0))
MONTH_STARTS = [calendar.timegm((2007, m, 1, 0, 0, 0)) for m in range(1, 8)]
DAY = 86400

# Segment order: weekday day, evening, late night, then the same for the
# weekend. Weekdays are Monday to Thursday, the weekend Friday to Sunday;
# day is 07-17h, evening 17-23h, late night 23-07h (local = UTC here).
_SEGMENTS: list[tuple[np.ndarray, np.ndarray]] = []
for _seg in range(6):
    _weekend, _part = divmod(_seg, 3)
    _starts: list[int] = []
    _lengths: list[int] = []
    for _day in (range(4, 7) if _weekend else range(0, 4)):
        _base = _day * DAY
        if _part == 0:
            _starts.append(_base + 7 * 3600)
            _lengths.append(10 * 3600)
        elif _part == 1:
            _starts.append(_base + 17 * 3600)
            _lengths.append(6 * 3600)
        else:
            _starts += [_base, _base + 23 * 3600]
            _lengths += [7 * 3600, 3600]
    _SEGMENTS.append((np.asarray(_starts, np.int64), np.asarray(_lengths, np.int64)))

# (code, share, younger-age range, age-gap range, gender rule, weekly call
# rates, weekly text rates, log-duration mean, share of events the
# canonical-first user starts). Opposite-gender peers differ from
# same-gender peers in evening, late-night and text activity.
ARCHETYPES: tuple[tuple, ...] = (
    ("-Y peers", 0.20, (18, 28), (0, 19), "opposite",
     (0.8, 2.4, 2.2, 1.0, 2.0, 2.3), (2.2, 2.6, 2.2, 2.0, 2.2, 2.3), 5.1, 0.5),
    ("+Y peers", 0.10, (18, 28), (0, 19), "same",
     (0.9, 1.6, 0.5, 1.1, 1.4, 0.6), (1.1, 1.4, 0.5, 1.0, 1.2, 0.6), 4.3, 0.5),
    ("-M peers", 0.30, (29, 45), (0, 19), "opposite",
     (1.1, 2.3, 0.6, 1.2, 2.0, 0.7), (1.0, 1.4, 0.5, 0.9, 1.2, 0.5), 4.9, 0.5),
    ("+M peers", 0.15, (29, 45), (0, 19), "same",
     (1.2, 1.7, 0.3, 1.3, 1.5, 0.4), (0.6, 0.8, 0.2, 0.5, 0.7, 0.25), 4.2, 0.5),
    ("M child", 0.15, (29, 45), (20, 39), "random",
     (2.2, 1.4, 0.2, 2.0, 1.2, 0.25), (0.4, 0.5, 0.15, 0.35, 0.4, 0.17), 4.1, 0.65),
    ("Y grandchild", 0.10, (18, 28), (40, 60), "random",
     (2.0, 1.2, 0.15, 2.0, 1.1, 0.2), (0.3, 0.35, 0.1, 0.3, 0.3, 0.12), 4.0, 0.65),
)

ACTIVITY_SIGMA = 0.7
DURATION_LOG_STD = 0.9
DURATION_SHIFT_SIGMA = 0.3
SIDE_LINKS = 2
SIDE_RATE = 0.05
MALFORMED_SHARE = 0.001  # of the rows; at least one of each kind below

# Every reason ``parse_events`` rejects a row for.
MALFORMED_KINDS = (
    "field_count",
    "empty_user",
    "self_loop",
    "bad_timestamp",
    "outside_window",
    "unknown_kind",
    "text_unknown_duration",
    "bad_duration",
    "negative_duration",
    "text_nonzero_duration",
)


def _allocate(n: int) -> list[int]:
    """Largest-remainder split of n pairs over the archetype shares."""
    raw = [a[1] * n for a in ARCHETYPES]
    counts = [int(v) for v in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _week_starts() -> np.ndarray:
    first_day = WINDOW_START // DAY
    first_monday = first_day - (first_day + 3) % 7  # epoch day 0 was a Thursday
    return np.arange(first_monday * DAY, WINDOW_END, 7 * DAY, dtype=np.int64)


def _channel_times(rng: np.random.Generator, rates: np.ndarray, weeks: np.ndarray) -> np.ndarray:
    """Timestamps of one channel: Poisson counts per week and segment."""
    chunks = []
    for seg in range(6):
        counts = rng.poisson(rates[seg], size=weeks.size)
        total = int(counts.sum())
        if total == 0:
            continue
        starts, lengths = _SEGMENTS[seg]
        cum = np.cumsum(lengths)
        u = rng.integers(0, int(cum[-1]), size=total)
        slot = np.searchsorted(cum, u, side="right")
        offset = starts[slot] + u - (cum[slot] - lengths[slot])
        chunks.append(np.repeat(weeks, counts) + offset)
    if not chunks:
        return np.empty(0, np.int64)
    ts = np.concatenate(chunks)
    return ts[(ts >= WINDOW_START) & (ts < WINDOW_END)]


def _link_events(rng, a, b, call_rates, text_rates, log_mean, skew, weeks, pool_unknown):
    """(caller, callee, ts, is_call, duration) arrays of one link; -1 = unknown."""
    call_ts = _channel_times(rng, call_rates, weeks)
    text_ts = _channel_times(rng, text_rates, weeks)
    dur = np.maximum(1, np.rint(rng.lognormal(log_mean, DURATION_LOG_STD, call_ts.size)))
    dur = dur.astype(np.int64)
    a_calls = rng.random(call_ts.size) < skew
    a_texts = rng.random(text_ts.size) < skew
    if pool_unknown:
        dur = np.where(a_calls, dur, -1)
    a_starts = np.concatenate([a_calls, a_texts])
    return (
        np.where(a_starts, a, b),
        np.where(a_starts, b, a),
        np.concatenate([call_ts, text_ts]),
        np.concatenate([np.ones(call_ts.size, bool), np.zeros(text_ts.size, bool)]),
        np.concatenate([dur, np.zeros(text_ts.size, np.int64)]),
    )


def _malformed_line(kind: str, rng: np.random.Generator, users: list[str]) -> tuple[str, str]:
    """A rejected row of the given kind and the diagnostic the format implies."""
    a, b = (users[int(i)] for i in rng.choice(len(users), size=2, replace=False))
    ts = int(rng.integers(WINDOW_START, WINDOW_END))
    dur = int(rng.integers(1, 600))
    if kind == "field_count":
        n_fields = int(rng.choice([3, 4, 6]))
        parts = [a, b, str(ts), "call", str(dur), "x"][:n_fields]
        return ",".join(parts), f"expected 5 fields, got {n_fields}"
    if kind == "empty_user":
        return f",{b},{ts},call,{dur}", "empty user id"
    if kind == "self_loop":
        return f"{a},{a},{ts},text,0", "self-loop"
    if kind == "bad_timestamp":
        text = f"{ts}x"
        return f"{a},{b},{text},call,{dur}", f"bad timestamp {text!r}"
    if kind == "outside_window":
        late = WINDOW_END + int(rng.integers(0, 30 * DAY))
        return f"{a},{b},{late},call,{dur}", f"timestamp {late} outside window"
    if kind == "unknown_kind":
        return f"{a},{b},{ts},sms,0", "unknown kind 'sms'"
    if kind == "text_unknown_duration":
        return f"{a},{b},{ts},text,", "text with unknown duration"
    if kind == "bad_duration":
        text = f"{dur}.5"
        return f"{a},{b},{ts},call,{text}", f"bad duration {text!r}"
    if kind == "negative_duration":
        return f"{a},{b},{ts},call,-{dur}", f"negative duration -{dur}"
    if kind == "text_nonzero_duration":
        return f"{a},{b},{ts},text,{dur}", "text with nonzero duration"
    raise ValueError(kind)


def paper_code(age_a: int, gender_a: str, age_b: int, gender_b: str) -> str:
    """Relationship code from the paper's age-gap and gender rule."""
    younger = min(age_a, age_b)
    bracket = next(
        code
        for code, lo, hi in (
            ("<18", 0, 17), ("Y", 18, 28), ("M", 29, 45),
            ("L", 46, 55), ("O", 56, 79), ("80+", 80, 120),
        )
        if lo <= younger <= hi
    )
    gap = abs(age_a - age_b)
    if gap < 20:
        return f"{'+' if gender_a == gender_b else '-'}{bracket} peers"
    return f"{bracket} child" if gap < 40 else f"{bracket} grandchild"


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(seed: int, n_pairs: int, out_dir: str) -> dict:
    """Write events.csv, subscribers.csv and truth.json; returns the truth."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 7001])
    weeks = _week_starts()
    pool_size = max(32, n_pairs // 16)
    users = [f"s{i:06d}" for i in range(2 * n_pairs)] + [f"x{i:05d}" for i in range(pool_size)]

    counts = _allocate(n_pairs)
    arch_of_pair = np.repeat(np.arange(len(ARCHETYPES)), counts)
    # Per-pair activity multipliers: each archetype gets the lognormal's
    # quantiles in a seeded order. The file size, and with it the work, then
    # does not drift with the seed, and every archetype keeps its heaviest
    # pairs, so no feature column comes out constant.
    activity = np.concatenate([
        rng.permutation([math.exp(ACTIVITY_SIGMA * NormalDist().inv_cdf((j + 0.5) / count))
                         for j in range(count)])
        for count in counts
    ])
    activity /= activity.mean()
    parts: list[tuple] = []
    planted = []
    subscriber_rows = []
    for i in range(n_pairs):
        code, _, young_range, gap_range, rule, calls, texts, log_mean, skew = ARCHETYPES[
            arch_of_pair[i]
        ]
        first, second = 2 * i, 2 * i + 1
        younger = int(rng.integers(young_range[0], young_range[1] + 1))
        gap = int(rng.integers(gap_range[0], gap_range[1] + 1))
        ages = (younger, younger + gap) if rng.random() < 0.5 else (younger + gap, younger)
        if rule == "opposite":
            genders = ("F", "M") if rng.random() < 0.5 else ("M", "F")
        elif rule == "same":
            genders = ("F", "F") if rng.random() < 0.5 else ("M", "M")
        else:
            genders = tuple("F" if rng.random() < 0.5 else "M" for _ in range(2))
        shift = DURATION_SHIFT_SIGMA * float(rng.standard_normal())
        call_rates = np.asarray(calls) * activity[i]
        text_rates = np.asarray(texts) * activity[i]
        parts.append(
            _link_events(rng, first, second, call_rates, text_rates, log_mean + shift, skew,
                         weeks, False)
        )
        for user in (first, second):
            for contact in rng.choice(pool_size, size=SIDE_LINKS, replace=False):
                parts.append(
                    _link_events(rng, user, 2 * n_pairs + int(contact), call_rates * SIDE_RATE,
                                 text_rates * SIDE_RATE, log_mean, 0.5, weeks, True)
                )
        planted.append([users[first], users[second], code, ages[0], genders[0], ages[1],
                        genders[1]])
        for user, age, gender in ((first, ages[0], genders[0]), (second, ages[1], genders[1])):
            subscriber_rows.append(f"{users[user]},{age},{gender},{int(rng.integers(10000, 99999))}")

    caller, callee, ts, is_call, dur = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((callee, caller, ts))
    caller, callee, ts, is_call, dur = (c[order] for c in (caller, callee, ts, is_call, dur))
    lines = [
        f"{users[a]},{users[b]},{t},{'call' if c else 'text'},{'' if d < 0 else d}"
        for a, b, t, c, d in zip(
            caller.tolist(), callee.tolist(), ts.tolist(), is_call.tolist(), dur.tolist()
        )
    ]

    n_bad = max(len(MALFORMED_KINDS), int(round(MALFORMED_SHARE * len(lines))))
    kinds = [MALFORMED_KINDS[j % len(MALFORMED_KINDS)] for j in range(n_bad)]
    rng.shuffle(kinds)
    slots = np.sort(rng.choice(len(lines) + n_bad, size=n_bad, replace=False))
    injected = []
    bad_at = {}
    for slot, kind in zip(slots.tolist(), kinds):
        text, reason = _malformed_line(kind, rng, users)
        bad_at[slot] = text
        injected.append({"line": slot + 2, "kind": kind, "reason": reason})
    body = []
    good = iter(lines)
    for pos in range(len(lines) + n_bad):
        body.append(bad_at[pos] if pos in bad_at else next(good))

    events_path = os.path.join(out_dir, "events.csv")
    with open(events_path, "w", encoding="utf-8", newline="\n") as out:
        out.write(EVENTS_HEADER + "\n")
        out.write("\n".join(body))
        out.write("\n")
    subscribers_path = os.path.join(out_dir, "subscribers.csv")
    with open(subscribers_path, "w", encoding="utf-8", newline="\n") as out:
        out.write(SUBSCRIBERS_HEADER + "\n")
        out.write("\n".join(subscriber_rows))
        out.write("\n")

    month = np.searchsorted(np.asarray(MONTH_STARTS), ts, side="right") - 1
    seen = np.unique(np.concatenate([caller, callee]))
    n_subs_seen = int(np.count_nonzero(seen < 2 * n_pairs))
    truth = {
        "seed": seed,
        "n_pairs": n_pairs,
        "pool_size": pool_size,
        "planted": planted,
        "injected": injected,
        "tallies": {
            "n_events": len(lines),
            "n_calls": int(is_call.sum()),
            "n_texts": int((~is_call).sum()),
            "n_users_seen": int(seen.size),
            "n_subscribers_seen": n_subs_seen,
            "n_nonsubscribers_seen": int(seen.size) - n_subs_seen,
            "n_unknown_duration_calls": int((is_call & (dur < 0)).sum()),
            "events_per_month": np.bincount(month, minlength=len(MONTH_STARTS)).tolist(),
            "warnings": [],
            "ok": True,
        },
        "sha256": {
            "events.csv": sha256_of(events_path),
            "subscribers.csv": sha256_of(subscribers_path),
        },
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as out:
        json.dump(truth, out)
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = build(args.seed, args.n_pairs, args.out)
    print(json.dumps({"rows": truth["tallies"]["n_events"] + len(truth["injected"]),
                      "sha256": truth["sha256"]}))


if __name__ == "__main__":
    main()
