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
)
from probfcast.scoring import aggregate_by_lead
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
        res = run_scenario(dataset, origin, SMALL)
        leads = [r.lead_hours for r in res.records]
        assert sorted(leads) == list(range(1, 169))
        assert res.unscored_hours == 0
        assert len(res.raw_records) == len(res.records)

    def test_no_leakage(self, dataset):
        for origin in admissible_origins(dataset, SMALL)[:5]:
            train, _ = slice_scenario(dataset, ScenarioWindow(origin, SMALL.train_days))
            assert max(o.valid_time for o in observation_records(train.observations)) < origin

    def test_deterministic(self, dataset):
        origin = admissible_origins(dataset, SMALL)[1]
        a = run_scenario(dataset, origin, SMALL, scenario_index=1)
        b = run_scenario(dataset, origin, SMALL, scenario_index=1)
        np.testing.assert_array_equal(
            [r.crps for r in a.records], [r.crps for r in b.records]
        )

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

    def test_products_without_scoring(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        res = run_scenario(dataset, origin, SMALL, products_only=True)
        assert res.records == []
        assert len(res.products) == 168
        for hp in res.products:
            assert hp.samples.size == SMALL.draws
            assert 0.0 <= hp.prob_below <= 1.0
            assert 0.0 <= hp.prob_below_sampled <= 1.0
            assert hp.combined.contributing_count >= 1

    def test_contributor_counts_fall_with_lead(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        res = run_scenario(dataset, origin, SMALL, products_only=True)
        counts = {hp.lead_hours: hp.combined.contributing_count for hp in res.products}
        assert counts[3] > counts[100]
        assert counts[168] >= 1


class TestStageTwo:
    """run_scenario's column stage 2 against the per-record reference, bit for bit."""

    @staticmethod
    def check(ds, cfg, origin):
        res = run_scenario(ds, origin, cfg, products_only=True)
        expected = reference_combined(ds, origin, cfg)
        assert [hp.lead_hours for hp in res.products] == sorted(expected)
        for hp in res.products:
            values, count = expected[hp.lead_hours]
            np.testing.assert_array_equal(hp.combined.quantiles.values, values)
            assert hp.combined.contributing_count == count
            assert hp.combined.valid_time == origin + timedelta(hours=hp.lead_hours)
        return [hp.combined.contributing_count for hp in res.products]

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
        records = [r for res in results for r in res.records]
        aggs = aggregate_by_lead(records)
        assert len(aggs) == 168
        assert all(a.n == SMALL.n_scenarios for a in aggs)

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
            np.testing.assert_array_equal(
                [r.crps for r in a.records], [r.crps for r in b.records]
            )

    def test_raw_log_score_absent_for_single_member_hours(self, narrow_dataset):
        res = run_scenarios(narrow_dataset, NARROW)[0]
        far = [r for r in res.raw_records if r.lead_hours > 60]
        assert far and all(np.isnan(r.log_score) for r in far)
        near = [r for r in res.raw_records if 2 <= r.lead_hours <= 40]
        assert any(np.isfinite(r.log_score) for r in near)
