import re
from datetime import timedelta

import numpy as np
import pytest
from helpers import observation_records, reference_combined

from probfcast.exceptions import DataError
from probfcast.ingest import Dataset, ScenarioWindow, format_hour, hour_index, slice_scenario
from probfcast.pipeline import (
    RunConfig,
    admissible_origins,
    draw_origins,
    run_scenario,
    run_scenarios,
    score_scenario,
)
from probfcast.scoring import Scores, aggregate_by_lead
from probfcast.synth import ModelSpec, SynthConfig, synthesize_dataset

SMALL = RunConfig(
    num_trees=60,
    sample_count=96,
    n_scenarios=3,
    seed=5,
    draws=200,
    min_training_rows=500,
)


# Beyond the mid-range model's 48 h only one model covers an hour.
NARROW_ROSTER = (
    ModelSpec("solo", 12, 168, 0.5, 0.6),
    ModelSpec("duo", 6, 48, 0.3, 0.5),
)
NARROW = RunConfig(num_trees=40, sample_count=64, n_scenarios=1, seed=3, min_training_rows=100)


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(SynthConfig(span_days=45), seed=6)


@pytest.fixture(scope="module")
def narrow_dataset():
    return synthesize_dataset(SynthConfig(span_days=45, models=NARROW_ROSTER), seed=2)


class TestOrigins:
    def test_reproducible_given_seed(self, dataset):
        assert draw_origins(dataset, SMALL) == draw_origins(dataset, SMALL)

    def test_admissible_bounds(self, dataset):
        obs = observation_records(dataset.observations)
        start, end = obs[0].valid_time, obs[-1].valid_time
        for origin in admissible_origins(dataset, SMALL):
            assert origin - timedelta(days=SMALL.train_days, hours=168) >= start
            assert origin + timedelta(hours=168) <= end

    def test_dataset_too_short(self):
        tiny = synthesize_dataset(SynthConfig(span_days=15), seed=1)
        with pytest.raises(DataError, match="admissible origin"):
            admissible_origins(tiny, SMALL)


class TestRunScenario:
    def test_every_hour_scored_exactly_once(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        res = score_scenario(run_scenario(dataset, origin, SMALL), SMALL, 0)
        assert sorted(res.scores.lead_hours.tolist()) == list(range(1, 169))
        assert res.unscored_hours == 0
        assert len(res.raw_scores) == len(res.scores)
        np.testing.assert_array_equal(res.raw_scores.valid_hours, res.scores.valid_hours)
        assert res.scores.valid_hours[0] == hour_index(origin) + 1

    def test_no_leakage(self, dataset):
        for origin in admissible_origins(dataset, SMALL)[:5]:
            train, _ = slice_scenario(dataset, ScenarioWindow(origin, SMALL.train_days))
            assert max(o.valid_time for o in observation_records(train.observations)) < origin

    def test_deterministic(self, dataset):
        origin = admissible_origins(dataset, SMALL)[1]
        a = score_scenario(run_scenario(dataset, origin, SMALL, scenario_index=1), SMALL, 1)
        b = score_scenario(run_scenario(dataset, origin, SMALL, scenario_index=1), SMALL, 1)
        np.testing.assert_array_equal(a.scores.crps, b.scores.crps)

    def test_insufficient_training_rows(self, dataset):
        strict = RunConfig(
            num_trees=10, sample_count=32, min_training_rows=10_000_000, seed=0
        )
        origin = admissible_origins(dataset, strict)[0]
        with pytest.raises(DataError, match="insufficient training data"):
            run_scenario(dataset, origin, strict)

    def test_model_missing_from_training_window_is_data_error(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        fc = dataset.forecasts
        # eur_uk keeps its runs from the origin on but loses every training row
        gone = (fc.model == fc.models.index("eur_uk")) & (fc.init < hour_index(origin))
        gapped = Dataset(fc.take(~gone), dataset.observations, dataset.site_id)
        with pytest.raises(DataError, match=rf"eur_uk .*origin {format_hour(origin)}"):
            run_scenario(gapped, origin, SMALL)

    def test_horizon_without_scoring(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        horizon = run_scenario(dataset, origin, SMALL)
        assert horizon.origin == origin
        assert horizon.lead_hours.tolist() == list(range(1, 169))
        assert horizon.quantiles.shape == (168, SMALL.levels.size)
        assert len(horizon.distributions) == len(horizon.members) == 168
        assert [m.size for m in horizon.members] == horizon.contributors.tolist()
        assert np.all(horizon.contributors >= 1)
        assert np.all(np.isfinite(horizon.observations))
        assert set(horizon.timings) == {"prepare", "train", "predict", "score"}
        for d, row in zip(horizon.distributions, horizon.quantiles):
            np.testing.assert_array_equal(d.quantile(SMALL.levels), row)

    def test_contributor_counts_fall_with_lead(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        horizon = run_scenario(dataset, origin, SMALL)
        counts = dict(zip(horizon.lead_hours.tolist(), horizon.contributors.tolist()))
        assert counts[3] > counts[100]
        assert counts[168] >= 1

    def test_missing_observation_names_the_first_unobserved_hour(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        obs = dataset.observations
        gone = np.isin(obs.hour, hour_index(origin) + np.array([40, 7, 90]))
        gapped = Dataset(dataset.forecasts, obs.take(~gone), dataset.site_id)
        horizon = run_scenario(gapped, origin, SMALL)
        assert np.isnan(horizon.observations).sum() == 3
        first = (origin + timedelta(hours=7)).isoformat()
        with pytest.raises(DataError, match=re.escape(f"no observation to score at {first}")):
            score_scenario(horizon, SMALL, 0)


class TestStageTwo:
    """run_scenario's column stage 2 against the per-record reference, bit for bit."""

    @staticmethod
    def check(ds, cfg, origin):
        horizon = run_scenario(ds, origin, cfg)
        expected = reference_combined(ds, origin, cfg)
        assert horizon.lead_hours.tolist() == sorted(expected)
        for lead, values, count in zip(
            horizon.lead_hours.tolist(), horizon.quantiles, horizon.contributors.tolist()
        ):
            np.testing.assert_array_equal(values, expected[lead][0])
            assert count == expected[lead][1]
        return horizon.contributors.tolist()

    def test_matches_per_record_reference(self, dataset):
        for origin in admissible_origins(dataset, SMALL)[:2]:
            counts = self.check(dataset, SMALL, origin)
            assert max(counts) >= 3

    def test_matches_per_record_reference_narrow_roster(self, narrow_dataset):
        origin = admissible_origins(narrow_dataset, NARROW)[0]
        counts = self.check(narrow_dataset, NARROW, origin)
        assert counts[-1] == 1


class TestRunScenarios:
    def test_full_lead_axis_aggregates(self, dataset):
        results = run_scenarios(dataset, SMALL)
        rows = aggregate_by_lead(Scores.concat([res.scores for res in results]))
        assert sorted({row[0] for row in rows}) == list(range(1, 169))
        assert all(row[4] == SMALL.n_scenarios for row in rows if row[1] == "crps")

    def test_parallel_matches_serial(self, dataset):
        serial = run_scenarios(dataset, SMALL)
        parallel = run_scenarios(
            dataset,
            RunConfig(
                num_trees=SMALL.num_trees,
                sample_count=SMALL.sample_count,
                n_scenarios=SMALL.n_scenarios,
                seed=SMALL.seed,
                draws=SMALL.draws,
                min_training_rows=SMALL.min_training_rows,
                jobs=2,
            ),
        )
        for a, b in zip(serial, parallel):
            assert a.origin == b.origin
            np.testing.assert_array_equal(a.scores.crps, b.scores.crps)

    def test_raw_log_score_absent_for_single_member_hours(self, narrow_dataset):
        raw = run_scenarios(narrow_dataset, NARROW)[0].raw_scores
        far = raw.log_score[raw.lead_hours > 60]
        assert far.size and np.all(np.isnan(far))
        near = raw.log_score[(raw.lead_hours >= 2) & (raw.lead_hours <= 40)]
        assert np.any(np.isfinite(near))
