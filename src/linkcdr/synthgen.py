"""Seeded synthetic CDR generator with planted relationship archetypes.

Every planted pair calls and texts at archetype-specific weekly rates for
each of the six time segments, scaled by a per-pair activity multiplier and
any configured factor-group multipliers. Each planted user also gets a few
low-rate side links into a shared background pool of non-subscribers so
ranking, top-5 overlap, and unknown-duration handling have something to
work against. A pair's ages and genders are drawn from its archetype's
relationship code (``relations.demographic_law``), so ``label_relationship``
of its two subscribers gives that code back.

All links are drawn at once from one ``default_rng([seed, 1])`` stream: a
(links x 2 channels x 6 segments) rate array gives each cell a Poisson
total over the weeks the window touches, and each of a cell's events gets
a uniform week and a uniform second within the segment's hours of the week
(``manifest.SEGMENT_OF_HOUR``). That is the same law as independent weekly
Poisson counts per segment. Events outside the window are dropped. Call
durations are lognormal, the initiator follows the link's direction skew,
and calls the pool side starts may carry an unknown duration. Output is
fully deterministic given the configuration.

Events are stored in (time, caller, callee) order; events equal in all
three keep their draw order, whatever the platform's quicksort does with
ties (``_event_order``).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .errors import ConfigError
from .ingest import (
    EVENTS_HEADER,
    MAX_EVENTS,
    MAX_USERS,
    SUBSCRIBERS_HEADER,
    EventColumns,
    Gender,
    ObservationWindow,
    SubscriberRecord,
)
from .manifest import MAX_UTC_OFFSET, MONDAY_EPOCH_DAY, SECONDS_PER_DAY, SEGMENT_OF_HOUR
from .pairgraph import apply_regularity_filter, build_links, mutual_top_rank_pairs
from .relations import PairKey, demographic_law

# Every hour of the week, grouped by segment and in time order within each,
# as the shift from its start in that grouping to its start in seconds from
# Monday 00:00; the seconds of each segment; and where each segment's seconds
# start in that grouping.
_HOUR_SHIFT = 3600 * (np.argsort(SEGMENT_OF_HOUR, kind="stable") - np.arange(168)).astype(np.int32)
_SEGMENT_SECONDS = 3600 * np.bincount(SEGMENT_OF_HOUR)
_SEGMENT_FIRST_SECOND = (np.cumsum(_SEGMENT_SECONDS) - _SEGMENT_SECONDS).astype(np.int32)


@dataclass(frozen=True)
class ArchetypeConfig:
    """Behavioural profile of one planted relationship type.

    ``code``, a peer or child code, fixes the ages and genders of its pairs
    (``relations.demographic_law``). Rates are expected events per week for
    each of the six segments, weekday then weekend, each as daytime,
    evening, late night (the segment index of ``manifest.SEGMENT_OF_HOUR``);
    ``direction_skew`` is the probability that the canonical-first user
    initiates an event.
    """

    code: str
    prevalence: float
    call_rates: tuple[float, ...]
    text_rates: tuple[float, ...]
    duration_log_mean: float
    duration_log_std: float
    direction_skew: float


@dataclass(frozen=True)
class FactorGroup:
    """A latent per-pair intensity multiplier applied to some rate cells."""

    name: str
    channel: str  # "calls" | "texts"
    dayparts: tuple[int, ...]
    sigma: float


@dataclass(frozen=True)
class BackgroundConfig:
    side_links: int = 2
    rate_multiplier: float = 0.05
    pool_size: int | None = None  # default: max(32, n_pairs // 16)
    unknown_duration_fraction: float = 1.0

    def pool_for(self, n_pairs: int) -> int:
        """Number of background users for ``n_pairs`` planted pairs."""
        return max(32, n_pairs // 16) if self.pool_size is None else self.pool_size


@dataclass(frozen=True)
class GeneratorConfig:
    n_pairs: int
    seed: int
    archetypes: tuple[ArchetypeConfig, ...]
    window: ObservationWindow = field(default_factory=ObservationWindow.default)
    background: BackgroundConfig = BackgroundConfig()
    utc_offset: int = 0
    pair_activity_sigma: float = 0.35
    duration_jitter_sigma: float = 0.3
    factor_groups: tuple[FactorGroup, ...] = ()

    def validate(self) -> None:
        if self.n_pairs <= 0:
            raise ConfigError("n_pairs must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be non-negative")
        if not -MAX_UTC_OFFSET <= self.utc_offset <= MAX_UTC_OFFSET:
            raise ConfigError(
                f"utc_offset {self.utc_offset} must lie in {-MAX_UTC_OFFSET}..{MAX_UTC_OFFSET}"
            )
        if not self.archetypes:
            raise ConfigError("at least one archetype is required")
        total = sum(a.prevalence for a in self.archetypes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"archetype prevalences sum to {total}, expected 1")
        for arch in self.archetypes:
            if len(arch.call_rates) != 6 or len(arch.text_rates) != 6:
                raise ConfigError(f"{arch.code}: rates must have 6 segments")
            if any(r < 0 for r in arch.call_rates + arch.text_rates):
                raise ConfigError(f"{arch.code}: negative rate")
            if not 0.0 <= arch.direction_skew <= 1.0:
                raise ConfigError(f"{arch.code}: direction skew outside [0, 1]")
            law = demographic_law(arch.code)
            if law is None:
                raise ConfigError(
                    f"{arch.code!r}: not a peer or child code, so it has no age and gender law"
                )
            if law.younger_ages[1] + law.age_gap[1] > 120:
                raise ConfigError(f"{arch.code}: ages can exceed 120")
        background = self.background
        if background.side_links < 0:
            raise ConfigError(f"background side_links {background.side_links} is negative")
        if background.pool_size is not None and background.pool_size < 1:
            raise ConfigError(f"background pool_size {background.pool_size} must be at least 1")
        if background.side_links > background.pool_for(self.n_pairs):
            raise ConfigError(
                f"background side_links {background.side_links} exceeds the pool of "
                f"{background.pool_for(self.n_pairs)} users"
            )
        if not 0.0 <= background.unknown_duration_fraction <= 1.0:
            raise ConfigError(
                f"background.unknown_duration_fraction "
                f"{background.unknown_duration_fraction} must lie in [0, 1]"
            )
        for key, scale in (
            ("pair_activity_sigma", self.pair_activity_sigma),
            ("duration_jitter_sigma", self.duration_jitter_sigma),
            ("background.rate_multiplier", background.rate_multiplier),
        ):
            if not 0.0 <= scale < math.inf:  # NaN fails every comparison
                raise ConfigError(f"{key} {scale} must be finite and nonnegative")
        n_users = 2 * self.n_pairs + background.pool_for(self.n_pairs)
        if n_users > MAX_USERS:
            raise ConfigError(f"{n_users} users: int32 user codes hold at most {MAX_USERS}")
        # generate packs (time - window start, caller) into one int64 sort key
        if self.window.n_seconds * n_users >= 2**63:
            raise ConfigError(
                f"window of {self.window.n_seconds} s times {n_users} users reaches 2**63: "
                "too large for the int64 (time, caller) sort key"
            )
        # multipliers near or above 1 are allowed here; whether planted pairs
        # stay mutual top-rank is checked post-hoc by verify_planted


@dataclass(frozen=True)
class PlantedPair:
    first: str
    second: str
    code: str
    age_first: int
    gender_first: Gender
    age_second: int
    gender_second: Gender


@dataclass
class SyntheticDataset:
    columns: EventColumns
    subscribers: dict[str, SubscriberRecord]
    truth: list[PlantedPair]
    config: GeneratorConfig


def _allocate_counts(prevalences: Sequence[float], n: int) -> list[int]:
    """Largest-remainder allocation of n pairs over the archetypes."""
    raw = [p * n for p in prevalences]
    counts = [int(v) for v in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    if any(c == 0 for c, p in zip(counts, prevalences) if p > 0):
        raise ConfigError(
            "infeasible prevalence rounding: an archetype received zero pairs; "
            "raise n_pairs or merge archetypes"
        )
    return counts


def _week_starts(window: ObservationWindow, utc_offset: int) -> np.ndarray:
    """Local epoch seconds of every Monday whose week intersects the window."""
    start_local = window.start + utc_offset
    end_local = window.end + utc_offset
    first_day = start_local // SECONDS_PER_DAY
    first_monday = first_day - (first_day - MONDAY_EPOCH_DAY) % 7
    starts = np.arange(first_monday * SECONDS_PER_DAY, end_local, 7 * SECONDS_PER_DAY)
    return starts.astype(np.int64)


def _distinct_draws(rng: np.random.Generator, rows: int, k: int, population: int) -> np.ndarray:
    """(rows, k) indices into ``range(population)``, distinct within each row.

    Floyd's algorithm with one vectorized draw per step: step j draws t from
    [0, j] and keeps t unless the row already holds it, then keeps j.
    """
    chosen = np.empty((rows, k), dtype=np.int64)
    for step, j in enumerate(range(population - k, population)):
        t = rng.integers(0, j + 1, size=rows)
        taken = (chosen[:, :step] == t[:, None]).any(axis=1)
        chosen[:, step] = np.where(taken, j, t)
    return chosen


def _event_order(key: np.ndarray, callee: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of events by (``key``, ``callee``), and ``key`` in it,
    sorted in place: one quicksort of ``key``, then one lexsort of only the
    positions whose sorted key equals a neighbour's, by (key, callee, draw
    index). Tie runs are contiguous, so this is the stable sort's order
    whatever order the quicksort left each run in. Sorting ``key`` in place
    holds no second key and is no slower than gathering ``key[order]``."""
    order = np.argsort(key)
    key.sort()
    same = key[1:] == key[:-1]
    at = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    draw = order[at]
    order[at] = draw[np.lexsort((draw, callee[draw], key[at]))]
    return order, key


def generate(config: GeneratorConfig) -> SyntheticDataset:
    """Build the full synthetic dataset for a validated configuration.

    Once the events are drawn, each event-length array is updated in place
    where it can be and deleted as soon as it is used, user codes, link
    indices and the sort order are int32, and the columns are put in order
    one at a time. So generation holds at most about 36 bytes per event (at
    the permutation: the int64 sort key, two copies of the durations, the
    callee, the kinds and the order), and the columns it returns hold 25.
    The draws themselves, their arguments and their order fix the output,
    so none of that bookkeeping moves a byte."""
    config.validate()
    n = config.n_pairs
    archetypes = config.archetypes
    counts = _allocate_counts([a.prevalence for a in archetypes], n)
    arch = np.repeat(np.arange(len(archetypes)), counts)
    background = config.background
    pool_size = background.pool_for(n)
    users = [f"u{i:06d}" for i in range(2 * n)] + [f"b{i:06d}" for i in range(pool_size)]
    rng = np.random.default_rng([config.seed, 1])

    def per_pair(values: Sequence) -> np.ndarray:
        return np.asarray(values)[arch]

    # demographics by each code's law: ages, who is younger, two gender coins
    laws = [demographic_law(a.code) for a in archetypes]
    ages = per_pair([law.younger_ages for law in laws])
    gaps = per_pair([law.age_gap for law in laws])
    younger = rng.integers(ages[:, 0], ages[:, 1] + 1)
    older = younger + rng.integers(gaps[:, 0], gaps[:, 1] + 1)
    first_is_younger = rng.random(n) < 0.5
    age_first = np.where(first_is_younger, younger, older)
    age_second = np.where(first_is_younger, older, younger)
    female = rng.random((n, 2)) < 0.5
    rule = per_pair([law.genders for law in laws])
    female[:, 1] = np.where(
        rule == "opposite", ~female[:, 0], np.where(rule == "same", female[:, 0], female[:, 1])
    )

    # per-pair heterogeneity: activity, duration shift, factor multipliers
    activity = np.exp(config.pair_activity_sigma * rng.standard_normal(n))
    duration_shift = config.duration_jitter_sigma * rng.standard_normal(n)
    pair_rates = per_pair([(a.call_rates, a.text_rates) for a in archetypes]).astype(np.float64)
    pair_rates *= activity[:, None, None]
    factors = rng.standard_normal((n, len(config.factor_groups)))
    for g, group in enumerate(config.factor_groups):
        cells = list(group.dayparts) + [d + 3 for d in group.dayparts]
        channel = 0 if group.channel == "calls" else 1
        pair_rates[:, channel, cells] *= np.exp(group.sigma * factors[:, g])[:, None]
    postcodes = rng.integers(10000, 100000, size=(n, 2))

    # the link table: planted links, then each user's side links in user order
    k = background.side_links
    side_user = np.repeat(np.arange(2 * n), k)
    side_pair = side_user // 2
    log_mean = per_pair([a.duration_log_mean for a in archetypes])
    log_std = per_pair([a.duration_log_std for a in archetypes])
    if n * (1 + 2 * k) > MAX_USERS:
        raise ConfigError(
            f"{n * (1 + 2 * k)} links: an event's int32 link index holds at most {MAX_USERS}"
        )
    link_a = np.concatenate([2 * np.arange(n), side_user]).astype(np.int32)
    link_b = np.concatenate(
        [2 * np.arange(n) + 1, 2 * n + _distinct_draws(rng, 2 * n, k, pool_size).ravel()]
    ).astype(np.int32)
    skew = np.concatenate(
        [per_pair([a.direction_skew for a in archetypes]), np.full(side_user.size, 0.5)]
    )
    mu = np.concatenate([log_mean + duration_shift, log_mean[side_pair]])
    sigma = np.concatenate([log_std, log_std[side_pair]])
    unknown_fraction = np.concatenate(
        [np.zeros(n), np.full(side_user.size, background.unknown_duration_fraction)]
    )
    rates = np.concatenate([pair_rates, pair_rates[side_pair] * background.rate_multiplier])
    del pair_rates

    # events: a Poisson total per (link, channel, segment) cell over all
    # weeks, then a uniform week and a uniform second of the segment each
    week_starts = _week_starts(config.window, config.utc_offset)
    n_weeks = week_starts.size
    total = rng.poisson(rates.ravel() * n_weeks).reshape(-1, 12)
    del rates
    # each event's link and its cell of the link (calls' segments, then texts')
    link = np.repeat(np.arange(len(total), dtype=np.int32), total.sum(axis=1))
    kind = np.repeat(np.tile(np.arange(12, dtype=np.int8), len(total)), total.ravel())
    del total
    # Every remainder is x - (x // d) * d, formed in place: numpy's integer
    # remainder divides one element at a time, while its floor division by
    # a scalar multiplies and shifts.
    seg = kind // 6
    seg *= 6
    np.subtract(kind, seg, out=seg)
    draw = rng.integers(0, (_SEGMENT_SECONDS * n_weeks)[seg])
    seg_seconds = _SEGMENT_SECONDS[seg]
    week = draw // seg_seconds
    draw -= np.multiply(week, seg_seconds, out=seg_seconds)
    del seg_seconds
    draw += _SEGMENT_FIRST_SECOND[seg]  # a second of _HOUR_SHIFT's hours
    del seg
    ts = week_starts[week]
    del week
    ts += draw
    np.floor_divide(draw, 3600, out=draw)
    ts += _HOUR_SHIFT[draw]
    del draw
    ts -= config.utc_offset
    inside = (ts >= config.window.start) & (ts < config.window.end)
    ts, link, kind = ts[inside], link[inside], kind[inside]
    del inside
    if ts.size > MAX_EVENTS:
        raise ConfigError(f"{ts.size} events: int32 event positions hold at most {MAX_EVENTS}")
    is_call = kind < 6
    del kind

    # direction, then durations and unknown flags for calls
    a_initiates = rng.random(ts.size) < skew[link]
    call_link = link[is_call]
    mu_calls, sigma_calls = mu[call_link], sigma[call_link]
    del call_link
    call_duration = rng.lognormal(mu_calls, sigma_calls)
    del mu_calls, sigma_calls
    np.rint(call_duration, out=call_duration)
    duration = np.zeros(ts.size, dtype=np.int64)
    duration[is_call] = np.maximum(call_duration, 1, out=call_duration)
    del call_duration
    from_b = np.flatnonzero(is_call & ~a_initiates)
    duration[from_b[rng.random(from_b.size) < unknown_fraction[link[from_b]]]] = -1
    del from_b
    end_a, callee = link_a[link], link_b[link]
    del link
    caller = np.where(a_initiates, end_a, callee)
    del a_initiates
    callee ^= end_a  # end_a ^ end_b ^ caller, the end that does not call
    callee ^= caller
    del end_a

    # (time, caller, callee) order: each column is permuted in turn and the
    # unordered one freed before the next
    n_users = len(users)
    key = ts  # packed in place as (time - window start) * n_users + caller
    key -= config.window.start
    key *= n_users
    key += caller
    del ts, caller
    order, key = _event_order(key, callee)
    order = order.astype(np.int32)  # 4 bytes less per event while the columns are permuted
    callee = callee[order]
    is_call = is_call[order]
    duration = duration[order]
    del order
    ts = key // n_users
    ts *= n_users
    key -= ts  # the caller
    ts //= n_users
    ts += config.window.start
    caller = key.astype(np.int32)
    del key
    columns = EventColumns(caller, callee, ts, is_call, duration, users, config.window)

    gender_of = (Gender.MALE, Gender.FEMALE)
    subscribers: dict[str, SubscriberRecord] = {}
    truth: list[PlantedPair] = []
    rows = zip(
        age_first.tolist(), age_second.tolist(), female.tolist(), postcodes.tolist(), arch.tolist()
    )
    for i, (age_1, age_2, (female_1, female_2), (post_1, post_2), a) in enumerate(rows):
        first, second = users[2 * i], users[2 * i + 1]
        gender_1, gender_2 = gender_of[female_1], gender_of[female_2]
        subscribers[first] = SubscriberRecord(first, age_1, gender_1, f"{post_1:05d}")
        subscribers[second] = SubscriberRecord(second, age_2, gender_2, f"{post_2:05d}")
        truth.append(
            PlantedPair(first, second, archetypes[a].code, age_1, gender_1, age_2, gender_2)
        )
    return SyntheticDataset(columns, subscribers, truth, config)


TRUTH_HEADER = "first,second,archetype_code,age_first,gender_first,age_second,gender_second"


_TEXT_WORD, _CALL_WORD = np.frombuffer(b"textcall", dtype=np.uint32)


def _digits(out: np.ndarray, keep: np.ndarray, mag: np.ndarray) -> None:
    """Write the decimal digits of the uint64 ``mag`` right-aligned into the
    (rows, width) byte slots ``out`` and mark the significant ones in
    ``keep``: a place is kept while the value left to write is nonzero, and
    the last place always, so 0 is written as ``0``."""
    # 32-bit division is several times faster; ``left`` is always a copy
    left = mag.astype(np.uint32 if int(mag.max()) < 1 << 32 else np.uint64)
    quot, tens = np.empty_like(left), np.empty_like(left)
    for place in range(out.shape[1] - 1, -1, -1):
        np.not_equal(left, 0, out=keep[:, place])
        np.floor_divide(left, 10, out=quot)
        np.multiply(quot, 10, out=tens)
        np.subtract(left, tens, out=tens)  # the digit
        np.add(tens, 48, out=out[:, place], casting="unsafe")
        left, quot = quot, left
    keep[:, -1] = True


def _write_event_rows(out: BinaryIO, cols: EventColumns, block_rows: int = 16384) -> None:
    """Write the events.csv data lines of ``cols`` as UTF-8 bytes,
    ``block_rows`` rows at a time, with no Python object per row.

    Each block is one uint8 matrix with a fixed slot per byte a row can
    have, each row a whole number of 8-byte words: the caller id and its
    comma (``width`` bytes, whole words), the callee id and its comma,
    unused bytes that put the kind on a 4-byte boundary, a sign slot, the
    timestamp digits, ``,``, ``call`` or ``text`` (one 4-byte word),
    ``,``, the duration digits, ``\\n`` and unused bytes to the end of the
    word. A bool matrix of the same shape marks the bytes that are
    written: id bytes below the id's length and its comma, the sign only
    for a negative timestamp, each number's significant digits, and no
    duration digits for an unknown (negative) duration. ``mat[keep]``
    read in row order is the block's text. Each block starts from one row
    of the fixed bytes. The ids with their commas and their byte masks are
    packed once per file as zero-padded uint64 words and copied by code a
    word at a time."""
    if not len(cols):
        return
    encoded = [u.encode("utf-8") + b"," for u in cols.users]
    width = 8 * ((max(map(len, encoded)) + 7) // 8)
    words = width // 8
    id_bytes = np.frombuffer(b"".join(e.ljust(width, b"\0") for e in encoded), dtype=np.uint64)
    id_bytes = id_bytes.reshape(len(encoded), words)
    id_len = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    id_mask = (np.arange(width) < id_len[:, None]).view(np.uint64)
    for lo in range(0, len(cols), block_rows):
        block = slice(lo, lo + block_rows)
        caller, callee = cols.caller[block], cols.callee[block]
        ts, dur = cols.timestamp[block], cols.duration[block]
        ts_mag = np.abs(ts).astype(np.uint64)  # -2**63 wraps to 2**63
        dur_mag = np.maximum(dur, 0).astype(np.uint64)
        tw, dw = len(str(int(ts_mag.max()))), len(str(int(dur_mag.max())))
        t0 = 2 * width + 1 + (-(tw + 2)) % 4  # first timestamp digit
        k0 = t0 + tw + 1  # kind word
        d0 = k0 + 5  # first duration digit
        end = d0 + dw + 1
        fixed = np.zeros(8 * ((end + 7) // 8), dtype=np.uint8)
        fixed[[t0 - 1, t0 + tw, k0 + 4, end - 1]] = np.frombuffer(b"-,,\n", dtype=np.uint8)
        written = np.zeros(fixed.size, dtype=bool)
        written[t0 - 1 : end] = True
        mat = np.empty((len(ts), fixed.size), dtype=np.uint8)
        keep = np.empty(mat.shape, dtype=bool)
        mat[:] = fixed
        keep[:] = written
        mat_words, keep_words = mat.view(np.uint64), keep.view(np.uint64)
        mat_words[:, :words] = id_bytes[caller]
        keep_words[:, :words] = id_mask[caller]
        mat_words[:, words : 2 * words] = id_bytes[callee]
        keep_words[:, words : 2 * words] = id_mask[callee]
        keep[:, t0 - 1] = ts < 0
        _digits(mat[:, t0 : t0 + tw], keep[:, t0 : t0 + tw], ts_mag)
        mat.view(np.uint32)[:, k0 // 4] = np.where(cols.is_call[block], _CALL_WORD, _TEXT_WORD)
        _digits(mat[:, d0 : end - 1], keep[:, d0 : end - 1], dur_mag)
        keep[dur < 0, d0 : end - 1] = False
        out.write(mat[keep])


def write_dataset(dataset: SyntheticDataset, out_dir: str) -> dict[str, str]:
    """Write events.csv, subscribers.csv, and truth.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "events": os.path.join(out_dir, "events.csv"),
        "subscribers": os.path.join(out_dir, "subscribers.csv"),
        "truth": os.path.join(out_dir, "truth.csv"),
    }

    with open(paths["events"], "wb") as out:
        out.write(EVENTS_HEADER.encode("utf-8") + b"\n")
        _write_event_rows(out, dataset.columns)

    with open(paths["subscribers"], "w", encoding="utf-8", newline="\n") as out:
        out.write(SUBSCRIBERS_HEADER + "\n")
        for uid in sorted(dataset.subscribers):
            rec = dataset.subscribers[uid]
            out.write(f"{rec.user_id},{rec.age},{rec.gender.value},{rec.postcode or ''}\n")

    with open(paths["truth"], "w", encoding="utf-8", newline="\n") as out:
        out.write(TRUTH_HEADER + "\n")
        for p in dataset.truth:
            out.write(
                f"{p.first},{p.second},{p.code},{p.age_first},{p.gender_first.value},"
                f"{p.age_second},{p.gender_second.value}\n"
            )
    return paths


@dataclass
class PlantedReport:
    n_planted: int
    n_recovered: int
    n_extra: int
    recovered_fraction: float
    missing: list[str]

    @property
    def ok(self) -> bool:
        return self.recovered_fraction >= 0.99

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_planted(
    columns: EventColumns, truth: Sequence[PlantedPair], min_months: int = 5
) -> PlantedReport:
    """Run pair extraction and report the planted-pair recovery fraction."""
    graph = build_links(columns)
    kept = apply_regularity_filter(graph, min_months)
    recovered = set(mutual_top_rank_pairs(graph, kept))
    planted = {PairKey.of(p.first, p.second) for p in truth}
    missing = sorted(planted - recovered)
    n_recovered = len(planted & recovered)
    return PlantedReport(
        n_planted=len(planted),
        n_recovered=n_recovered,
        n_extra=len(recovered - planted),
        recovered_fraction=n_recovered / len(planted) if planted else 1.0,
        missing=[f"{k.first}|{k.second}" for k in missing[:20]],
    )
