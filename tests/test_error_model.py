from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import (
    ErrorSample,
    ForecastRecord,
    ObservationRecord,
    dataset_from_records,
    forecast_records,
    forecasts_from_records,
    observation_records,
    table_from_samples,
    table_samples,
)

from probfcast.error_model import build_error_table, rank_label_members
from probfcast.exceptions import DataError
from probfcast.ingest import Dataset
from probfcast.synth import SynthConfig, synthesize_dataset

UTC = timezone.utc
T0 = datetime(2020, 1, 5, tzinfo=UTC)


def rank(records):
    return forecast_records(rank_label_members(forecasts_from_records(records)))


def member_records(values, model="enuk", valid=None):
    valid = valid or T0 + timedelta(hours=6)
    return [
        ForecastRecord(model, k, T0, valid, v) for k, v in enumerate(values)
    ]


class TestRankLabelling:
    def test_ranks_follow_values(self):
        out = rank(member_records([2.0, 1.0, 3.0]))
        assert [r.model_id for r in out] == ["enuk_r2", "enuk_r1", "enuk_r3"]

    def test_twelve_members_get_twelve_distinct_labels(self):
        out = rank(member_records(list(np.random.default_rng(1).normal(size=12))))
        labels = {r.model_id for r in out}
        assert labels == {f"enuk_r{k}" for k in range(1, 13)}

    def test_ties_break_by_member_index(self):
        out = rank(member_records([1.0, 1.0]))
        assert [r.model_id for r in out] == ["enuk_r1", "enuk_r2"]

    def test_deterministic_records_pass_through(self):
        rec = ForecastRecord("glm", None, T0, T0 + timedelta(hours=3), 5.0)
        assert rank([rec]) == [rec]

    def test_idempotent(self):
        once = rank(member_records([3.0, 1.0, 2.0]))
        twice = rank(once)
        assert once == twice

    def test_value_multiset_preserved_and_cardinality(self):
        records = member_records([4.0, -1.0, 4.0, 0.5])
        out = rank(records)
        assert len(out) == len(records)
        assert Counter(r.value for r in out) == Counter(r.value for r in records)

    def test_groups_keyed_by_init_and_valid(self):
        a = member_records([5.0, 4.0], valid=T0 + timedelta(hours=1))
        b = member_records([1.0, 2.0], valid=T0 + timedelta(hours=2))
        out = rank(a + b)
        assert out[0].model_id == "enuk_r2" and out[1].model_id == "enuk_r1"
        assert out[2].model_id == "enuk_r1" and out[3].model_id == "enuk_r2"

    def test_single_member_group_gets_rank_one(self):
        out = rank([ForecastRecord("enuk", 7, T0, T0, 1.0)])
        assert out[0].model_id == "enuk_r1"
        assert out[0].member is None


    def test_rank_label_equal_to_a_model_id_is_data_error(self):
        # enuk_r1 would pool the deterministic model with enuk's rank-1 members.
        valid = T0 + timedelta(hours=6)
        clash = ForecastRecord("enuk_r1", None, T0, valid, 9.0)
        with pytest.raises(DataError, match="'enuk_r1' equals a rank label of ensemble 'enuk'"):
            rank(member_records([2.0, 1.0]) + [clash])
        # enuk_r3 names no rank of a two-member ensemble.
        spare = ForecastRecord("enuk_r3", None, T0, valid, 9.0)
        out = rank(member_records([2.0, 1.0]) + [spare])
        assert [r.model_id for r in out] == ["enuk_r2", "enuk_r1", "enuk_r3"]


class TestBuildErrorTable:
    def obs(self, hours, values):
        return [
            ObservationRecord(T0 + timedelta(hours=h), v) for h, v in zip(hours, values)
        ]

    def test_error_is_observation_minus_forecast(self):
        ds = dataset_from_records(
            [ForecastRecord("glm", None, T0, T0 + timedelta(hours=2), 5.0)],
            self.obs([2], [3.5]),
        )
        table = build_error_table(ds)
        assert table.errors[0] == -1.5

    def test_zero_error_when_forecast_matches(self):
        ds = dataset_from_records(
            [ForecastRecord("glm", None, T0, T0 + timedelta(hours=1), 3.5)],
            self.obs([1], [3.5]),
        )
        assert build_error_table(ds).errors[0] == 0.0

    def test_one_row_per_forecast_observation_pair(self):
        fcs = [
            ForecastRecord("glm", None, T0 - timedelta(hours=lead - 3), T0 + timedelta(hours=3), 1.0)
            for lead in (3, 15, 27)
        ]
        table = build_error_table(dataset_from_records(fcs, self.obs([3], [2.0])))
        assert table.n_rows == 3

    def test_missing_observations_skipped_and_counted(self):
        fcs = [
            ForecastRecord("glm", None, T0, T0 + timedelta(hours=h), 1.0) for h in (1, 2, 3)
        ]
        table = build_error_table(dataset_from_records(fcs, self.obs([2], [2.0])))
        assert table.n_rows == 1
        assert table.skipped == 2

    def test_no_overlap_is_an_error(self):
        fcs = [ForecastRecord("glm", None, T0, T0 + timedelta(hours=1), 1.0)]
        with pytest.raises(DataError, match="no overlap"):
            build_error_table(dataset_from_records(fcs, self.obs([5], [2.0])))

    def test_row_count_matches_matching_records_on_synthetic_data(self):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=21)
        obs_times = {o.valid_time for o in observation_records(ds.observations)}
        labelled = rank_label_members(ds.forecasts)
        expected = sum(1 for f in forecast_records(labelled) if f.valid_time in obs_times)
        table = build_error_table(Dataset(labelled, ds.observations))
        assert table.n_rows == expected
        assert table.skipped == len(labelled) - expected

    def test_samples_round_trip(self):
        samples = [ErrorSample(3, "glm", -1.0), ErrorSample(4, "ukv", 0.5)]
        table = table_from_samples(samples)
        assert table_samples(table) == samples


