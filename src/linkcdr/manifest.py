"""The fixed 175-feature manifest: names, order, transforms, groups.

Feature order is frozen; downstream artifacts (feature CSVs, scaler files,
trained models) reference this order and carry its hash. The vector is laid
out as six groups:

    weekly_stats       126  3 quantities x 6 time segments x 7 statistics
    daypart_fractions   18  2 weekparts x 3 quantities x 3 dayparts
    active_days         12  2 channels x 6 time segments
    reciprocity          3  calls, call duration, texts
    interevent          14  2 channels x 7 statistics
    common_contacts      2  top-5 and all-alter overlap

The local time model is defined here too: ``SEGMENT_OF_HOUR`` gives the
time segment (weekpart * 3 + daypart) of every local hour of a
Monday-aligned week to the feature kernel, the generator and the feature
descriptions.

Counts and durations live on heavy-tailed scales, so most magnitude-like
values are stored log1p-transformed; statistics that may be negative
(inter-event skewness/kurtosis) use the signed log sgn(x) * log1p(|x|).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

QUANTITIES = ("calls", "duration", "texts")
WEEKPARTS = ("weekday", "weekend")
DAYPARTS = ("daytime", "evening", "late_night")
STATS = ("mean", "median", "std", "min", "max", "skew", "kurt")
CHANNELS = ("calls", "texts")
SCALE_STATS = ("mean", "median", "std", "min", "max")

SECONDS_PER_DAY = 86400
MONDAY_EPOCH_DAY = 4  # 1970-01-05, the first Monday of the epoch
WEEKEND_FIRST_DAY = 4  # Friday, counting from Monday = 0
MAX_UTC_OFFSET = 14 * 3600  # a UTC offset lies in -14 h..+14 h, the civil time zones' span
# The local hour each daypart starts, in DAYPARTS order, which is clock
# order; a daypart runs to the next one's start, the last past midnight.
DAYPART_START_HOURS = (7, 17, 23)
# The segment index (weekpart * 3 + daypart) of each local hour of a week,
# from Monday 00:00.
SEGMENT_OF_HOUR: tuple[int, ...] = tuple(
    3 * (day >= WEEKEND_FIRST_DAY) + (bisect.bisect(DAYPART_START_HOURS, hour) - 1) % 3
    for day in range(7)
    for hour in range(24)
)

TRANSFORM_NONE = "none"
TRANSFORM_LOG1P = "log1p"
TRANSFORM_SIGNED_LOG1P = "signed_log1p"

_QUANTITY_TEXT = {
    "calls": "number of calls",
    "duration": "call duration (s)",
    "texts": "number of texts",
}
_DAY_TEXT = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_DAYPART_TEXT = {
    dp: f"{dp.replace('_', ' ')} ({start:02d}:00-{DAYPART_START_HOURS[(i + 1) % 3] - 1:02d}:59)"
    for i, (dp, start) in enumerate(zip(DAYPARTS, DAYPART_START_HOURS))
}
_WEEKPART_TEXT = {
    "weekday": f"{_DAY_TEXT[0]}-{_DAY_TEXT[WEEKEND_FIRST_DAY - 1]}",
    "weekend": f"{_DAY_TEXT[WEEKEND_FIRST_DAY]}-{_DAY_TEXT[-1]}",
}


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    group: str
    transform: str
    description: str


def _build_specs() -> tuple[FeatureSpec, ...]:
    specs: list[FeatureSpec] = []

    for qty in QUANTITIES:
        for wp in WEEKPARTS:
            for dp in DAYPARTS:
                for stat in STATS:
                    transform = TRANSFORM_LOG1P if stat in SCALE_STATS else TRANSFORM_NONE
                    specs.append(
                        FeatureSpec(
                            name=f"weekly_{qty}_{wp}_{dp}_{stat}",
                            group="weekly_stats",
                            transform=transform,
                            description=(
                                f"{stat} over Monday-aligned full weeks of the weekly "
                                f"{_QUANTITY_TEXT[qty]} on {_WEEKPART_TEXT[wp]} "
                                f"{_DAYPART_TEXT[dp]}"
                            ),
                        )
                    )

    for wp in WEEKPARTS:
        for qty in QUANTITIES:
            for dp in DAYPARTS:
                late_count_or_duration = dp == "late_night" and qty in ("calls", "duration")
                specs.append(
                    FeatureSpec(
                        name=f"frac_{wp}_{qty}_{dp}",
                        group="daypart_fractions",
                        transform=TRANSFORM_LOG1P if late_count_or_duration else TRANSFORM_NONE,
                        description=(
                            f"fraction of total {_WEEKPART_TEXT[wp]} {_QUANTITY_TEXT[qty]} "
                            f"falling in {_DAYPART_TEXT[dp]} (0 when the weekpart total is 0)"
                        ),
                    )
                )

    for kind in ("call", "text"):
        for wp in WEEKPARTS:
            for dp in DAYPARTS:
                specs.append(
                    FeatureSpec(
                        name=f"active_days_{kind}_{wp}_{dp}",
                        group="active_days",
                        transform=TRANSFORM_LOG1P,
                        description=(
                            f"number of distinct local days with at least one {kind} "
                            f"on {_WEEKPART_TEXT[wp]} {_DAYPART_TEXT[dp]}"
                        ),
                    )
                )

    for qty in QUANTITIES:
        specs.append(
            FeatureSpec(
                name=f"reciprocity_{qty}",
                group="reciprocity",
                transform=TRANSFORM_NONE,
                description=(
                    f"|in - out| / (in + out) of the {_QUANTITY_TEXT[qty]} "
                    "between the two directions (0 when the pair total is 0)"
                ),
            )
        )

    for channel in CHANNELS:
        for stat in STATS:
            transform = TRANSFORM_LOG1P if stat in SCALE_STATS else TRANSFORM_SIGNED_LOG1P
            specs.append(
                FeatureSpec(
                    name=f"interevent_{channel}_{stat}",
                    group="interevent",
                    transform=transform,
                    description=(
                        f"{stat} of the gaps (s) between successive {channel}; with fewer "
                        "than two events the scale statistics fall back to the window "
                        "length and skew/kurt to 0"
                    ),
                )
            )

    specs.append(
        FeatureSpec(
            name="common_contacts_top5",
            group="common_contacts",
            transform=TRANSFORM_NONE,
            description="common alters within both users' top-5 most called alters",
        )
    )
    specs.append(
        FeatureSpec(
            name="common_contacts_all",
            group="common_contacts",
            transform=TRANSFORM_NONE,
            description="common alters among all alters of the two users",
        )
    )
    return tuple(specs)


FEATURE_SPECS: tuple[FeatureSpec, ...] = _build_specs()
FEATURE_NAMES: tuple[str, ...] = tuple(spec.name for spec in FEATURE_SPECS)
N_FEATURES = len(FEATURE_NAMES)

GROUP_SIZES = {
    "weekly_stats": 126,
    "daypart_fractions": 18,
    "active_days": 12,
    "reciprocity": 3,
    "interevent": 14,
    "common_contacts": 2,
}

assert N_FEATURES == sum(GROUP_SIZES.values()) == 175


def manifest_hash() -> str:
    """Stable digest of the ordered feature names, embedded in artifacts."""
    return hashlib.sha256("\n".join(FEATURE_NAMES).encode()).hexdigest()
