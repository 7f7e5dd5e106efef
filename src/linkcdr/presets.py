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

from .ingest import ObservationWindow
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

