"""Generator determinism, planted structure, and event-law checks."""

from __future__ import annotations

import numpy as np
import pytest

from linkcdr.errors import ConfigError
from linkcdr.features import WeekGrid, _local_parts
from linkcdr.ingest import parse_events, validate_dataset
from linkcdr.presets import PRESETS, planted_factors, table3_like
from linkcdr.synthgen import (
    ArchetypeConfig,
    BackgroundConfig,
    GeneratorConfig,
    generate,
    read_truth_csv,
    verify_planted,
    write_dataset,
)


def small_archetype(**overrides) -> ArchetypeConfig:
    base = dict(
        code="-M peers",
        prevalence=1.0,
        call_rates=(1.0, 1.5, 0.5, 1.0, 1.2, 0.5),
        text_rates=(1.0, 1.0, 0.5, 0.8, 0.8, 0.4),
        duration_log_mean=4.5,
        duration_log_std=0.8,
        direction_skew=0.5,
        younger_age_range=(29, 45),
        age_gap_range=(0, 19),
        gender_rule="opposite",
    )
    base.update(overrides)
    return ArchetypeConfig(**base)


def small_config(n_pairs=40, seed=5, **overrides) -> GeneratorConfig:
    base = dict(
        n_pairs=n_pairs,
        seed=seed,
        archetypes=(small_archetype(),),
        background=BackgroundConfig(side_links=2, rate_multiplier=0.05),
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        for run in ("a", "b"):
            write_dataset(generate(small_config()), tmp_path / run)
        for name in ("events.csv", "subscribers.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        write_dataset(generate(small_config(seed=5)), tmp_path / "a")
        write_dataset(generate(small_config(seed=6)), tmp_path / "b")
        assert (tmp_path / "a" / "events.csv").read_bytes() != (
            tmp_path / "b" / "events.csv"
        ).read_bytes()

    def test_truth_row_count(self):
        dataset = generate(small_config(n_pairs=100))
        assert len(dataset.truth) == 100

    def test_truth_round_trip(self, tmp_path):
        dataset = generate(small_config())
        paths = write_dataset(dataset, tmp_path)
        assert read_truth_csv(paths["truth"]) == dataset.truth

    def test_generated_events_parse_cleanly(self, tmp_path):
        config = small_config()
        dataset = generate(config)
        paths = write_dataset(dataset, tmp_path)
        with open(paths["events"], "rb") as handle:
            cols, diagnostics = parse_events(handle, config.window)
        assert diagnostics == []
        assert len(cols) == len(dataset.columns)
        report = validate_dataset(cols, dataset.subscribers, config.window)
        assert report.ok
        assert report.n_unknown_duration_calls > 0  # background calls arrive unknown

    def test_text_events_have_zero_duration(self):
        dataset = generate(small_config())
        texts = ~dataset.columns.is_call
        assert (dataset.columns.duration[texts] == 0).all()

    def test_unknown_durations_only_from_background_callers(self):
        dataset = generate(small_config())
        unknown = dataset.columns.duration < 0
        callers = [dataset.columns.users[c] for c in dataset.columns.caller[unknown]]
        assert callers and all(c.startswith("b") for c in callers)

    def test_unknown_duration_fraction_zero(self):
        config = small_config(
            background=BackgroundConfig(side_links=2, rate_multiplier=0.05,
                                        unknown_duration_fraction=0.0)
        )
        dataset = generate(config)
        assert (dataset.columns.duration >= 0).all()

    def test_ages_respect_archetype_ranges(self):
        dataset = generate(small_config(n_pairs=80))
        for planted in dataset.truth:
            younger = min(planted.age_first, planted.age_second)
            gap = abs(planted.age_first - planted.age_second)
            assert 29 <= younger <= 45
            assert 0 <= gap <= 19
            assert planted.gender_first != planted.gender_second

    def test_poisson_weekly_mean(self):
        # pooled weekday-daytime call counts over full weeks obey the rate
        rate = 4.0
        config = small_config(
            n_pairs=60,
            archetypes=(small_archetype(call_rates=(rate, 0, 0, 0, 0, 0),
                                        text_rates=(0, 0, 0, 0, 0, 0)),),
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0),
            pair_activity_sigma=0.0,
        )
        dataset = generate(config)
        cols = dataset.columns
        grid = WeekGrid.from_window(config.window, 0)
        day, weekday, seg = _local_parts(cols.timestamp, 0)
        widx = grid.week_index(day, weekday)
        in_full_weeks = (widx >= 0) & cols.is_call
        n_cells = 60 * grid.n_weeks
        mean_count = in_full_weeks.sum() / n_cells
        tolerance = 3 * np.sqrt(rate / n_cells)
        assert abs(mean_count - rate) < tolerance
        assert (seg[in_full_weeks] == 0).all()

    def test_prevalence_allocation_exact(self):
        archetypes = (
            small_archetype(code="a", prevalence=0.61),
            small_archetype(code="b", prevalence=0.29),
            small_archetype(code="c", prevalence=0.10),
        )
        dataset = generate(small_config(n_pairs=2000, archetypes=archetypes))
        codes = [p.code for p in dataset.truth]
        for code, want in (("a", 0.61), ("b", 0.29), ("c", 0.10)):
            share = codes.count(code) / 2000
            assert abs(share - want) <= 0.02

    def test_infeasible_prevalence_rounding(self):
        archetypes = (
            small_archetype(code="a", prevalence=0.999),
            small_archetype(code="b", prevalence=0.001),
        )
        with pytest.raises(ConfigError, match="rounding"):
            generate(small_config(n_pairs=3, archetypes=archetypes))

    def test_prevalences_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            generate(small_config(archetypes=(small_archetype(prevalence=0.5),)))


class TestVerifyPlanted:
    def test_no_background_gives_full_recovery(self):
        config = small_config(
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0)
        )
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth, config.window)
        assert report.recovered_fraction == 1.0
        assert report.ok

    def test_default_preset_recovery(self):
        config = table3_like(400, seed=2)
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth, config.window)
        assert report.recovered_fraction >= 0.99
        assert report.ok

    def test_pathological_multiplier_flagged(self):
        config = small_config(
            n_pairs=30,
            background=BackgroundConfig(side_links=3, rate_multiplier=10.0),
        )
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth, config.window)
        assert report.recovered_fraction < 0.99
        assert not report.ok
        assert report.missing


class TestPresets:
    def test_preset_registry(self):
        assert set(PRESETS) == {"table3-like", "planted-factors"}

    def test_table3_prevalences_normalized(self):
        config = table3_like(100, seed=0)
        assert sum(a.prevalence for a in config.archetypes) == pytest.approx(1.0, abs=1e-12)
        codes = [a.code for a in config.archetypes]
        assert "-Y peers" in codes and "L child" in codes

    def test_planted_factors_has_five_groups(self):
        config = planted_factors(100, seed=0)
        assert len(config.factor_groups) == 5
        assert config.pair_activity_sigma == 0.0

    def test_membership_names_are_valid(self):
        from linkcdr.presets import planted_factor_membership

        groups = planted_factor_membership()
        assert len(groups) == 5
        assert sum(len(v) for v in groups.values()) == 60


class TestGeneratorConfigFile:
    def test_round_trip_matches_flag_invocation(self, tmp_path):
        from linkcdr.presets import load_generator_config

        config_path = tmp_path / "gen.cfg"
        config_path.write_text(
            "# generator settings\n"
            "preset = table3-like\n"
            "n_pairs = 150\n"
            "seed = 5\n"
            "background.side_links = 1\n"
            "background.rate_multiplier = 0.03\n"
            "pair_activity_sigma = 0.4\n"
        )
        config = load_generator_config(str(config_path))
        assert config.n_pairs == 150
        assert config.seed == 5
        assert config.background.side_links == 1
        assert config.background.rate_multiplier == 0.03
        assert config.pair_activity_sigma == 0.4
        # untouched knobs keep the preset values
        assert config.duration_jitter_sigma == 0.3
        generate(config)  # builds without error

    def test_unknown_key_rejected(self, tmp_path):
        from linkcdr.presets import load_generator_config

        config_path = tmp_path / "gen.cfg"
        config_path.write_text("preset = table3-like\nn_pairs = 10\nseed = 1\nbogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_generator_config(str(config_path))

    def test_missing_required_key(self, tmp_path):
        from linkcdr.presets import load_generator_config

        config_path = tmp_path / "gen.cfg"
        config_path.write_text("preset = table3-like\nseed = 1\n")
        with pytest.raises(ConfigError, match="n_pairs"):
            load_generator_config(str(config_path))

    def test_window_override(self, tmp_path):
        from linkcdr.presets import load_generator_config

        config_path = tmp_path / "gen.cfg"
        config_path.write_text(
            "preset = planted-factors\nn_pairs = 20\nseed = 2\n"
            "window_start = 2007-01-01\nwindow_end = 2007-04-01\n"
        )
        config = load_generator_config(str(config_path))
        assert config.window.n_months == 3
