"""Manifest integrity and the committed FEATURES.md document."""

from __future__ import annotations

from pathlib import Path

from linkcdr.manifest import (
    FEATURE_NAMES,
    FEATURE_SPECS,
    GROUP_SIZES,
    N_FEATURES,
    manifest_hash,
)


def test_names_unique_and_counted():
    assert len(FEATURE_NAMES) == N_FEATURES == 175
    assert len(set(FEATURE_NAMES)) == 175
    by_group = {}
    for spec in FEATURE_SPECS:
        by_group[spec.group] = by_group.get(spec.group, 0) + 1
    assert by_group == GROUP_SIZES


def test_transform_footnotes():
    by_name = {spec.name: spec for spec in FEATURE_SPECS}
    assert by_name["weekly_calls_weekday_daytime_mean"].transform == "log1p"
    assert by_name["weekly_calls_weekday_daytime_skew"].transform == "none"
    assert by_name["frac_weekday_calls_late_night"].transform == "log1p"
    assert by_name["frac_weekday_texts_late_night"].transform == "none"
    assert by_name["frac_weekend_duration_late_night"].transform == "log1p"
    assert by_name["frac_weekday_calls_daytime"].transform == "none"
    assert by_name["active_days_text_weekend_evening"].transform == "log1p"
    assert by_name["interevent_calls_mean"].transform == "log1p"
    assert by_name["interevent_calls_kurt"].transform == "signed_log1p"
    assert by_name["reciprocity_duration"].transform == "none"
    assert by_name["common_contacts_all"].transform == "none"


def test_hash_is_stable_within_session():
    assert manifest_hash() == manifest_hash()
    assert len(manifest_hash()) == 64


def test_committed_features_md_is_current():
    committed = (Path(__file__).parent.parent / "FEATURES.md").read_text()
    assert committed == render_markdown()


def render_markdown() -> str:
    """FEATURES.md content: one table row per feature, in vector order."""
    lines = [
        "# Feature manifest",
        "",
        f"The pair feature vector has {N_FEATURES} entries in the fixed order below.",
        "Stored values are post-transform: `log1p` is ln(1+x), `signed_log1p` is",
        "sgn(x)·ln(1+|x|), `none` stores the raw value. Standardization to mean 0 /",
        "std 1 happens separately at training time and is recorded in `scaler.json`.",
        "",
        "Group sizes: "
        + ", ".join(f"{g} {n}" for g, n in GROUP_SIZES.items())
        + f" (total {N_FEATURES}).",
        "",
        f"Manifest hash: `{manifest_hash()}`",
        "",
        "| # | name | group | transform | definition |",
        "|---|------|-------|-----------|------------|",
    ]
    for i, spec in enumerate(FEATURE_SPECS):
        lines.append(
            f"| {i} | `{spec.name}` | {spec.group} | {spec.transform} | {spec.description} |"
        )
    lines.append("")
    return "\n".join(lines)
