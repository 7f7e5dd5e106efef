"""Stock generator configurations.

``table3-like`` plants the eleven relationship archetypes at realistic
prevalences with behaviour profiles chosen so the opposite-gender-peer and
younger-user-age tasks are learnable: younger opposite-gender peers lean on
evening/late-night calls, texting, and long calls; older and parent-child
pairs concentrate in the daytime with fewer texts; older opposite-gender
peers deliberately resemble their same-gender counterparts except for
modest text and duration differences. All rates here are constructions for
pipeline verification, not measurements.

``planted-factors`` drives one archetype with five independent lognormal
intensity factors (daytime/evening/late-night calls, daytime+evening texts,
late-night texts) so the feature matrix has a known five-factor structure.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .ingest import ObservationWindow, window_from_texts
from .synthgen import ArchetypeConfig, BackgroundConfig, FactorGroup, GeneratorConfig

# segment order: wd-day, wd-eve, wd-late, we-day, we-eve, we-late

_TABLE3_ARCHETYPES: tuple[ArchetypeConfig, ...] = (
    ArchetypeConfig(
        code="-Y peers",
        prevalence=13.8,
        call_rates=(0.8, 2.2, 1.6, 0.7, 1.9, 1.7),
        text_rates=(1.6, 2.4, 1.7, 1.4, 2.0, 1.8),
        duration_log_mean=5.1,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="+Y peers",
        prevalence=4.3,
        call_rates=(0.9, 1.7, 0.55, 0.8, 1.5, 0.65),
        text_rates=(1.1, 1.5, 0.55, 1.0, 1.3, 0.6),
        duration_log_mean=4.3,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="-M peers",
        prevalence=36.4,
        call_rates=(1.1, 2.3, 0.55, 0.9, 2.0, 0.65),
        text_rates=(1.0, 1.4, 0.45, 0.9, 1.2, 0.5),
        duration_log_mean=4.9,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="+M peers",
        prevalence=10.6,
        call_rates=(1.2, 1.8, 0.3, 1.0, 1.6, 0.4),
        text_rates=(0.65, 0.8, 0.22, 0.55, 0.7, 0.25),
        duration_log_mean=4.2,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="-L peers",
        prevalence=7.1,
        call_rates=(1.5, 1.9, 0.28, 1.3, 1.7, 0.35),
        text_rates=(0.5, 0.6, 0.18, 0.45, 0.55, 0.2),
        duration_log_mean=4.7,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="+L peers",
        prevalence=3.2,
        call_rates=(1.6, 1.6, 0.2, 1.4, 1.4, 0.28),
        text_rates=(0.38, 0.45, 0.14, 0.33, 0.4, 0.16),
        duration_log_mean=4.1,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="-O peers",
        prevalence=3.3,
        call_rates=(1.9, 1.4, 0.16, 1.6, 1.2, 0.2),
        text_rates=(0.3, 0.34, 0.12, 0.27, 0.3, 0.13),
        duration_log_mean=4.8,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="+O peers",
        prevalence=1.8,
        call_rates=(1.9, 1.3, 0.13, 1.6, 1.1, 0.17),
        text_rates=(0.2, 0.24, 0.09, 0.18, 0.21, 0.1),
        duration_log_mean=4.0,
        duration_log_std=0.9,
        direction_skew=0.5,
    ),
    ArchetypeConfig(
        code="Y child",
        prevalence=6.3,
        call_rates=(1.1, 1.5, 0.25, 0.95, 1.3, 0.3),
        text_rates=(0.55, 0.65, 0.2, 0.5, 0.6, 0.22),
        duration_log_mean=3.9,
        duration_log_std=0.8,
        direction_skew=0.65,
    ),
    ArchetypeConfig(
        code="M child",
        prevalence=9.6,
        call_rates=(1.3, 1.4, 0.2, 1.1, 1.2, 0.25),
        text_rates=(0.4, 0.48, 0.15, 0.35, 0.42, 0.17),
        duration_log_mean=4.15,
        duration_log_std=0.8,
        direction_skew=0.65,
    ),
    ArchetypeConfig(
        code="L child",
        prevalence=1.3,
        call_rates=(1.5, 1.3, 0.17, 1.3, 1.1, 0.2),
        text_rates=(0.3, 0.36, 0.12, 0.27, 0.32, 0.13),
        duration_log_mean=4.25,
        duration_log_std=0.8,
        direction_skew=0.65,
    ),
)


def _normalized(archetypes: tuple[ArchetypeConfig, ...]) -> tuple[ArchetypeConfig, ...]:
    total = sum(a.prevalence for a in archetypes)
    return tuple(replace(a, prevalence=a.prevalence / total) for a in archetypes)


def table3_like(
    n_pairs: int, seed: int, window: ObservationWindow | None = None
) -> GeneratorConfig:
    return GeneratorConfig(
        n_pairs=n_pairs,
        seed=seed,
        archetypes=_normalized(_TABLE3_ARCHETYPES),
        window=window or ObservationWindow.default(),
        background=BackgroundConfig(),
        pair_activity_sigma=0.6,
        duration_jitter_sigma=0.3,
    )


_FACTOR_GROUPS: tuple[FactorGroup, ...] = (
    FactorGroup("calls_daytime", "calls", (0,), 0.9),
    FactorGroup("calls_evening", "calls", (1,), 0.9),
    FactorGroup("calls_late_night", "calls", (2,), 0.9),
    FactorGroup("texts_day_evening", "texts", (0, 1), 0.9),
    FactorGroup("texts_late_night", "texts", (2,), 0.9),
)


def planted_factors(
    n_pairs: int, seed: int, window: ObservationWindow | None = None
) -> GeneratorConfig:
    base = ArchetypeConfig(
        code="-M peers",
        prevalence=1.0,
        call_rates=(1.2, 1.2, 1.0, 1.2, 1.2, 1.0),
        text_rates=(1.2, 1.2, 1.0, 1.2, 1.2, 1.0),
        duration_log_mean=4.6,
        duration_log_std=0.7,
        direction_skew=0.5,
    )
    return GeneratorConfig(
        n_pairs=n_pairs,
        seed=seed,
        archetypes=(base,),
        window=window or ObservationWindow.default(),
        background=BackgroundConfig(),
        pair_activity_sigma=0.0,
        duration_jitter_sigma=0.2,
        factor_groups=_FACTOR_GROUPS,
    )


PRESETS = {
    "table3-like": table3_like,
    "planted-factors": planted_factors,
}


# The --config keys that override a preset's scalar knobs, with their types;
# a ``background.`` key overrides a field of the preset's BackgroundConfig.
OVERRIDES = {
    "utc_offset": int,
    "pair_activity_sigma": float,
    "duration_jitter_sigma": float,
    "background.side_links": int,
    "background.rate_multiplier": float,
    "background.pool_size": int,
    "background.unknown_duration_fraction": float,
}


def load_generator_config(path: str) -> GeneratorConfig:
    """Build a GeneratorConfig from a flat key-value text file.

    Lines are ``key = value``; ``#`` starts a comment. ``preset``,
    ``n_pairs``, and ``seed`` are required; ``window_start`` and
    ``window_end`` set the window, and the keys of ``OVERRIDES`` override
    the preset's scalar knobs.
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

    known = {"preset", "n_pairs", "seed", "window_start", "window_end", *OVERRIDES}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    for required in ("preset", "n_pairs", "seed"):
        if required not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")
    builder = PRESETS.get(values["preset"])
    if builder is None:
        raise ConfigError(f"{path}: unknown preset {values['preset']!r}")

    window = window_from_texts(
        values.get("window_start"),
        values.get("window_end"),
        f"{path}:window_start",
        f"{path}:window_end",
    )

    def number(key: str, cast: type = int):
        try:
            return cast(values[key])
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise ConfigError(f"{path}:{key}: {values[key]!r} is not {kind}") from None

    config = builder(number("n_pairs"), number("seed"), window)

    scalar, background_overrides = {}, {}
    for key, cast in OVERRIDES.items():
        if key in values:
            owner, _, name = key.rpartition(".")
            (background_overrides if owner else scalar)[name] = number(key, cast)
    if background_overrides:
        scalar["background"] = replace(config.background, **background_overrides)
    if scalar:
        config = replace(config, **scalar)
    return config
