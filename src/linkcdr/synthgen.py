"""Seeded synthetic CDR generator with planted relationship archetypes.

Every planted pair draws its events from a piecewise-homogeneous Poisson
process per week x time-segment at archetype-specific rates; call durations
are lognormal, initiator direction follows a configured skew, and ages and
genders follow the archetype's sampling rule. Each planted user also gets a
few low-rate side links into a shared background pool of non-subscribers so
ranking, top-5 overlap, and unknown-duration handling have something to
work against. Output is fully deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ingest import EventColumns, Gender, ObservationWindow, SubscriberRecord
from .pairgraph import PairKey, apply_regularity_filter, build_links, mutual_top_rank_pairs

SECONDS_PER_DAY = 86400

# (start offset within week, length) of each segment's intervals, local
# seconds from Monday 00:00; late night spans both edges of each day.
_SEGMENT_INTERVALS: list[tuple[np.ndarray, np.ndarray]] = []
for _seg in range(6):
    _weekpart, _daypart = divmod(_seg, 3)
    _days = range(0, 4) if _weekpart == 0 else range(4, 7)
    _starts: list[int] = []
    _lengths: list[int] = []
    for _day in _days:
        _base = _day * SECONDS_PER_DAY
        if _daypart == 0:
            _starts.append(_base + 7 * 3600)
            _lengths.append(10 * 3600)
        elif _daypart == 1:
            _starts.append(_base + 17 * 3600)
            _lengths.append(6 * 3600)
        else:
            _starts.append(_base)
            _lengths.append(7 * 3600)
            _starts.append(_base + 23 * 3600)
            _lengths.append(3600)
    _SEGMENT_INTERVALS.append(
        (np.asarray(_starts, dtype=np.int64), np.asarray(_lengths, dtype=np.int64))
    )


@dataclass(frozen=True)
class ArchetypeConfig:
    """Behavioural profile of one planted relationship type.

    Rates are expected events per week for each of the six segments in
    SEGMENT_ORDER; ``direction_skew`` is the probability that the
    canonical-first user initiates an event.
    """

    code: str
    prevalence: float
    call_rates: tuple[float, ...]
    text_rates: tuple[float, ...]
    duration_log_mean: float
    duration_log_std: float
    direction_skew: float
    younger_age_range: tuple[int, int]
    age_gap_range: tuple[int, int]
    gender_rule: str  # "opposite" | "same" | "random"


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
            if arch.younger_age_range[1] + arch.age_gap_range[1] > 120:
                raise ConfigError(f"{arch.code}: ages can exceed 120")
            if arch.gender_rule not in ("opposite", "same", "random"):
                raise ConfigError(f"{arch.code}: unknown gender rule {arch.gender_rule!r}")
        if not 0.0 <= self.background.unknown_duration_fraction <= 1.0:
            raise ConfigError("unknown_duration_fraction outside [0, 1]")
        if self.background.rate_multiplier < 0:
            raise ConfigError("background rate multiplier must be nonnegative")
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


class _EventBuffer:
    """Accumulates event columns before the final merge."""

    def __init__(self) -> None:
        self.caller: list[np.ndarray] = []
        self.callee: list[np.ndarray] = []
        self.ts: list[np.ndarray] = []
        self.is_call: list[np.ndarray] = []
        self.duration: list[np.ndarray] = []

    def add(
        self,
        caller: np.ndarray,
        callee: np.ndarray,
        ts: np.ndarray,
        is_call: np.ndarray,
        duration: np.ndarray,
    ) -> None:
        if ts.size:
            self.caller.append(caller)
            self.callee.append(callee)
            self.ts.append(ts)
            self.is_call.append(is_call)
            self.duration.append(duration)


def _week_starts(window: ObservationWindow, utc_offset: int) -> np.ndarray:
    """Local epoch seconds of every Monday whose week intersects the window."""
    start_local = window.start + utc_offset
    end_local = window.end + utc_offset
    first_day = start_local // SECONDS_PER_DAY
    first_monday = first_day - (first_day + 3) % 7
    starts = np.arange(first_monday * SECONDS_PER_DAY, end_local, 7 * SECONDS_PER_DAY)
    return starts.astype(np.int64)


def _draw_channel_events(
    rng: np.random.Generator,
    rates: np.ndarray,
    week_starts: np.ndarray,
    window: ObservationWindow,
    utc_offset: int,
) -> np.ndarray:
    """UTC timestamps of one channel's events over all weeks and segments."""
    n_weeks = week_starts.shape[0]
    chunks: list[np.ndarray] = []
    for seg in range(6):
        rate = float(rates[seg])
        counts = rng.poisson(rate, size=n_weeks) if rate > 0 else np.zeros(n_weeks, np.int64)
        total = int(counts.sum())
        if total == 0:
            continue
        starts, lengths = _SEGMENT_INTERVALS[seg]
        cum = np.cumsum(lengths)
        u = rng.random(total) * cum[-1]
        slot = np.searchsorted(cum, u, side="right")
        offset = (starts[slot] + (u - (cum[slot] - lengths[slot]))).astype(np.int64)
        ts_local = np.repeat(week_starts, counts) + offset
        ts = ts_local - utc_offset
        chunks.append(ts[(ts >= window.start) & (ts < window.end)])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _emit_link_events(
    rng: np.random.Generator,
    buffer: _EventBuffer,
    user_a: int,
    user_b: int,
    skew_toward_a: float,
    call_rates: np.ndarray,
    text_rates: np.ndarray,
    duration_log_mean: float,
    duration_log_std: float,
    week_starts: np.ndarray,
    window: ObservationWindow,
    utc_offset: int,
    unknown_fraction_from_b: float = 0.0,
) -> None:
    call_ts = _draw_channel_events(rng, call_rates, week_starts, window, utc_offset)
    text_ts = _draw_channel_events(rng, text_rates, week_starts, window, utc_offset)
    n_calls, n_texts = call_ts.size, text_ts.size

    durations = np.maximum(
        1, np.rint(rng.lognormal(duration_log_mean, duration_log_std, size=n_calls))
    ).astype(np.int64)
    a_initiates_call = rng.random(n_calls) < skew_toward_a
    a_initiates_text = rng.random(n_texts) < skew_toward_a
    if unknown_fraction_from_b > 0 and n_calls:
        unknown = (~a_initiates_call) & (rng.random(n_calls) < unknown_fraction_from_b)
        durations = np.where(unknown, -1, durations)

    caller = np.where(a_initiates_call, user_a, user_b).astype(np.int64)
    callee = np.where(a_initiates_call, user_b, user_a).astype(np.int64)
    buffer.add(caller, callee, call_ts, np.ones(n_calls, dtype=bool), durations)

    t_caller = np.where(a_initiates_text, user_a, user_b).astype(np.int64)
    t_callee = np.where(a_initiates_text, user_b, user_a).astype(np.int64)
    buffer.add(
        t_caller, t_callee, text_ts, np.zeros(n_texts, dtype=bool), np.zeros(n_texts, np.int64)
    )


def generate(config: GeneratorConfig) -> SyntheticDataset:
    """Build the full synthetic dataset for a validated configuration."""
    config.validate()
    n = config.n_pairs
    counts = _allocate_counts([a.prevalence for a in config.archetypes], n)
    pair_archetype: list[int] = []
    for arch_idx, count in enumerate(counts):
        pair_archetype.extend([arch_idx] * count)

    pool_size = config.background.pool_size or max(32, n // 16)
    users = [f"u{i:06d}" for i in range(2 * n)] + [f"b{i:06d}" for i in range(pool_size)]
    week_starts = _week_starts(config.window, config.utc_offset)

    buffer = _EventBuffer()
    subscribers: dict[str, SubscriberRecord] = {}
    truth: list[PlantedPair] = []

    for i in range(n):
        arch = config.archetypes[pair_archetype[i]]
        rng = np.random.default_rng([config.seed, 1, i])
        first, second = 2 * i, 2 * i + 1

        # demographic attributes
        younger = int(rng.integers(arch.younger_age_range[0], arch.younger_age_range[1] + 1))
        gap = int(rng.integers(arch.age_gap_range[0], arch.age_gap_range[1] + 1))
        first_is_younger = bool(rng.random() < 0.5)
        age_first = younger if first_is_younger else younger + gap
        age_second = younger + gap if first_is_younger else younger
        if arch.gender_rule == "opposite":
            first_female = bool(rng.random() < 0.5)
            genders = (Gender.FEMALE, Gender.MALE) if first_female else (Gender.MALE, Gender.FEMALE)
        elif arch.gender_rule == "same":
            both = Gender.FEMALE if rng.random() < 0.5 else Gender.MALE
            genders = (both, both)
        else:
            genders = tuple(
                Gender.FEMALE if rng.random() < 0.5 else Gender.MALE for _ in range(2)
            )

        # per-pair heterogeneity (rng draws unconditionally to keep the
        # stream layout stable across configuration changes)
        activity = float(np.exp(config.pair_activity_sigma * rng.standard_normal()))
        duration_shift = config.duration_jitter_sigma * float(rng.standard_normal())
        call_rates = np.asarray(arch.call_rates, dtype=np.float64) * activity
        text_rates = np.asarray(arch.text_rates, dtype=np.float64) * activity
        for group in config.factor_groups:
            mult = float(np.exp(group.sigma * rng.standard_normal()))
            target = call_rates if group.channel == "calls" else text_rates
            for daypart in group.dayparts:
                target[daypart] *= mult
                target[daypart + 3] *= mult

        _emit_link_events(
            rng,
            buffer,
            first,
            second,
            arch.direction_skew,
            call_rates,
            text_rates,
            arch.duration_log_mean + duration_shift,
            arch.duration_log_std,
            week_starts,
            config.window,
            config.utc_offset,
        )

        for user_code, age, gender in (
            (first, age_first, genders[0]),
            (second, age_second, genders[1]),
        ):
            postcode = f"{int(rng.integers(10000, 100000)):05d}"
            subscribers[users[user_code]] = SubscriberRecord(
                users[user_code], age, gender, postcode
            )

        # low-rate side links into the shared background pool
        for user_code in (first, second):
            side_rng = np.random.default_rng([config.seed, 2, user_code])
            contacts = side_rng.choice(pool_size, size=config.background.side_links, replace=False)
            for contact in contacts:
                _emit_link_events(
                    side_rng,
                    buffer,
                    user_code,
                    2 * n + int(contact),
                    0.5,
                    call_rates * config.background.rate_multiplier,
                    text_rates * config.background.rate_multiplier,
                    arch.duration_log_mean,
                    arch.duration_log_std,
                    week_starts,
                    config.window,
                    config.utc_offset,
                    unknown_fraction_from_b=config.background.unknown_duration_fraction,
                )

        truth.append(
            PlantedPair(
                users[first], users[second], arch.code, age_first, genders[0], age_second, genders[1]
            )
        )

    if buffer.ts:
        caller = np.concatenate(buffer.caller)
        callee = np.concatenate(buffer.callee)
        ts = np.concatenate(buffer.ts)
        is_call = np.concatenate(buffer.is_call)
        duration = np.concatenate(buffer.duration)
    else:
        caller = callee = ts = duration = np.empty(0, dtype=np.int64)
        is_call = np.empty(0, dtype=bool)
    order = np.lexsort((callee, caller, ts))
    columns = EventColumns(
        caller[order], callee[order], ts[order], is_call[order], duration[order], users
    )
    return SyntheticDataset(columns, subscribers, truth, config)


TRUTH_HEADER = "first,second,archetype_code,age_first,gender_first,age_second,gender_second"


def write_dataset(dataset: SyntheticDataset, out_dir: str) -> dict[str, str]:
    """Write events.csv, subscribers.csv, and truth.csv; returns the paths."""
    import os

    from .ingest import EVENTS_HEADER, SUBSCRIBERS_HEADER

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "events": os.path.join(out_dir, "events.csv"),
        "subscribers": os.path.join(out_dir, "subscribers.csv"),
        "truth": os.path.join(out_dir, "truth.csv"),
    }

    cols = dataset.columns
    users = cols.users
    with open(paths["events"], "w", encoding="utf-8", newline="\n") as out:
        out.write(EVENTS_HEADER + "\n")
        rows = zip(
            cols.caller.tolist(),
            cols.callee.tolist(),
            cols.timestamp.tolist(),
            cols.is_call.tolist(),
            cols.duration.tolist(),
        )
        out.writelines(
            f"{users[a]},{users[b]},{t},{'call' if c else 'text'},{'' if d < 0 else d}\n"
            for a, b, t, c, d in rows
        )

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


def read_truth_csv(path: str) -> list[PlantedPair]:
    from .errors import ParseError

    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != TRUTH_HEADER:
            raise ParseError(f"truth header mismatch: got {header!r}")
        out = []
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            first, second, code, a1, g1, a2, g2 = line.split(",")
            out.append(PlantedPair(first, second, code, int(a1), Gender(g1), int(a2), Gender(g2)))
    return out


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
        return {
            "n_planted": self.n_planted,
            "n_recovered": self.n_recovered,
            "n_extra": self.n_extra,
            "recovered_fraction": self.recovered_fraction,
            "missing": self.missing,
            "ok": self.ok,
        }


def verify_planted(
    columns: EventColumns,
    truth: Sequence[PlantedPair],
    window: ObservationWindow,
    min_months: int = 5,
) -> PlantedReport:
    """Run pair extraction and report the planted-pair recovery fraction."""
    graph = build_links(columns, window)
    filtered = apply_regularity_filter(graph, window, min_months)
    recovered = set(mutual_top_rank_pairs(filtered))
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
