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

Counts and durations live on heavy-tailed scales, so most magnitude-like
values are stored log1p-transformed; statistics that may be negative
(inter-event skewness/kurtosis) use the signed log sgn(x) * log1p(|x|).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

QUANTITIES = ("calls", "duration", "texts")
WEEKPARTS = ("weekday", "weekend")
DAYPARTS = ("daytime", "evening", "late_night")
STATS = ("mean", "median", "std", "min", "max", "skew", "kurt")
CHANNELS = ("calls", "texts")
SCALE_STATS = ("mean", "median", "std", "min", "max")

TRANSFORM_NONE = "none"
TRANSFORM_LOG1P = "log1p"
TRANSFORM_SIGNED_LOG1P = "signed_log1p"

_QUANTITY_TEXT = {
    "calls": "number of calls",
    "duration": "call duration (s)",
    "texts": "number of texts",
}
_DAYPART_TEXT = {
    "daytime": "daytime (07:00-16:59)",
    "evening": "evening (17:00-22:59)",
    "late_night": "late night (23:00-06:59)",
}
_WEEKPART_TEXT = {"weekday": "Mon-Thu", "weekend": "Fri-Sun"}


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


def feature_index(name: str) -> int:
    return FEATURE_NAMES.index(name)


def manifest_hash() -> str:
    """Stable digest of the ordered feature names, embedded in artifacts."""
    return hashlib.sha256("\n".join(FEATURE_NAMES).encode()).hexdigest()
