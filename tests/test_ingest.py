from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import reference_error_table, reference_rank_label, reference_slice
from hypothesis import given, strategies as st

from probfcast.error_model import build_error_table, rank_label_members
from probfcast.exceptions import DataError
from probfcast.ingest import (
    Dataset,
    ForecastRecord,
    ObservationRecord,
    ScenarioWindow,
    load_forecasts,
    load_observations,
    slice_scenario,
    write_forecasts,
    write_observations,
)
from probfcast.pipeline import RunConfig, admissible_origins
from probfcast.synth import SynthConfig, synthesize_dataset

UTC = timezone.utc


def ts(day, hour=0):
    return datetime(2020, 1, day, hour, tzinfo=UTC)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


FC_HEADER = "model_id,member,init_time,valid_time,value_degC\n"
OBS_HEADER = "valid_time,value_degC\n"


class TestLoadForecasts:
    def test_parses_deterministic_row(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "glm,,2020-01-01T00:00Z,2020-01-01T12:00Z,4.5\n",
        )
        (rec,) = load_forecasts(p).records()
        assert rec.model_id == "glm"
        assert rec.member is None
        assert rec.lead_hours == 12
        assert rec.value == 4.5

    def test_negative_lead_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "glm,,2020-01-02T00:00Z,2020-01-01T00:00Z,4.5\n",
        )
        with pytest.raises(DataError, match="negative lead time"):
            load_forecasts(p)

    def test_three_rows_sorted(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER
            + "ukv,,2020-01-01T00:00Z,2020-01-01T03:00Z,1.0\n"
            + "glm,,2020-01-01T00:00Z,2020-01-01T02:00Z,2.0\n"
            + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,3.0\n",
        )
        recs = load_forecasts(p).records()
        assert len(recs) == 3
        assert [r.model_id for r in recs] == ["glm", "glm", "ukv"]
        assert recs[0].valid_time < recs[1].valid_time

    def test_lead_beyond_week_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "glm,,2020-01-01T00:00Z,2020-01-08T01:00Z,4.5\n",
        )
        with pytest.raises(DataError, match=r"lead hour 169 outside \[0, 168\]"):
            load_forecasts(p)

    def test_subhourly_timestamp_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "glm,,2020-01-01T00:30Z,2020-01-01T12:30Z,4.5\n",
        )
        with pytest.raises(DataError, match="not hour-aligned"):
            load_forecasts(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER
            + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n"
            + "glm,,not-a-time,2020-01-01T01:00Z,1.0\n",
        )
        with pytest.raises(DataError, match=":3:"):
            load_forecasts(p)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER
            + "enuk,3,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n"
            + "enuk,4,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n"
            + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,2.0\n"
            + "enuk,3,2020-01-01T00:00Z,2020-01-01T01:00Z,1.5\n",
        )
        with pytest.raises(
            DataError,
            match=r":5: duplicate forecast enuk member 3 init 2020-01-01T00:00Z"
            r" valid 2020-01-01T01:00Z \(first seen on line 2\)",
        ):
            load_forecasts(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER
            + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n"
            + "glm,,2020-01-01T00:00Z,2020-01-01T02:00Z,-inf\n",
        )
        with pytest.raises(DataError, match=r":3: value_degC must be finite"):
            load_forecasts(p)

    def test_negative_member_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "enuk,-1,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n",
        )
        with pytest.raises(DataError, match="member"):
            load_forecasts(p)


class TestLoadObservations:
    def test_duplicate_valid_time_names_timestamp(self, tmp_path):
        p = write(
            tmp_path,
            "o.csv",
            OBS_HEADER + "2020-01-01T00:00Z,2.5\n2020-01-01T00:00Z,2.6\n",
        )
        with pytest.raises(DataError, match="2020-01-01T00:00Z"):
            load_observations(p)

    def test_empty_file_with_header(self, tmp_path):
        p = write(tmp_path, "o.csv", OBS_HEADER)
        assert len(load_observations(p)) == 0

    def test_parses_value(self, tmp_path):
        p = write(tmp_path, "o.csv", OBS_HEADER + "2020-01-01T00:00Z,2.5\n")
        (rec,) = load_observations(p).records()
        assert rec.value == 2.5
        assert rec.valid_time == ts(1)


class TestRoundTrip:
    def test_dataset_round_trips_exactly(self, tmp_path):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=4)
        write_forecasts(tmp_path / "f.csv", ds.forecasts)
        write_observations(tmp_path / "o.csv", ds.observations)
        fc = load_forecasts(tmp_path / "f.csv")
        obs = load_observations(tmp_path / "o.csv")
        assert sorted(fc.records(), key=repr) == sorted(ds.forecasts.records(), key=repr)
        assert obs.records() == ds.observations.records()


def tiny_dataset():
    """Two models, runs at 00Z and 12Z daily over 6 days, hourly obs."""
    obs = [ObservationRecord(ts(1) + timedelta(hours=h), float(h % 10)) for h in range(144)]
    fcs = []
    for day in range(1, 6):
        for hour in (0, 12):
            init = ts(day, hour)
            for model, max_lead in (("glm", 36), ("ukv", 12)):
                for lead in range(0, max_lead + 1):
                    fcs.append(
                        ForecastRecord(model, None, init, init + timedelta(hours=lead), 1.0)
                    )
    return Dataset.from_records(fcs, obs, "tiny")


class TestSliceScenario:
    def test_eval_observations_after_origin(self):
        ds = tiny_dataset()
        origin = ts(3, 12)
        train, evaluation = slice_scenario(ds, ScenarioWindow(origin, 2, 24))
        assert all(o.valid_time >= origin for o in evaluation.observations.records())
        assert all(o.valid_time < origin for o in train.observations.records())
        assert all(f.valid_time < origin for f in train.forecasts.records())
        assert all(f.init_time < origin for f in train.forecasts.records())

    def test_latest_run_selected(self):
        ds = tiny_dataset()
        origin = ts(3, 13)  # runs exist at 00:00 and 12:00; 13:00 keeps the 12:00 one
        _, evaluation = slice_scenario(ds, ScenarioWindow(origin, 2, 24))
        inits = {f.init_time for f in evaluation.forecasts.records() if f.model_id == "glm"}
        assert inits == {ts(3, 12)}

    def test_window_not_covered(self):
        ds = tiny_dataset()
        with pytest.raises(DataError, match="window not covered"):
            slice_scenario(ds, ScenarioWindow(ts(2), 14, 24))

    def test_no_leakage_over_random_origins(self):
        ds = synthesize_dataset(SynthConfig(span_days=20), seed=9)
        rng = np.random.default_rng(0)
        start = ds.observations.records()[0].valid_time
        for _ in range(100):
            origin = start + timedelta(hours=int(rng.integers(3 * 24, 18 * 24)))
            train, _ = slice_scenario(ds, ScenarioWindow(origin, 3, 24))
            assert max(o.valid_time for o in train.observations.records()) < origin
            assert max(f.valid_time for f in train.forecasts.records()) < origin

    def test_default_window_yields_desk_scale_error_rows(self):
        ds = synthesize_dataset(SynthConfig(span_days=40), seed=1)
        origin = admissible_origins(ds, RunConfig())[0]
        train, _ = slice_scenario(ds, ScenarioWindow(origin))
        table = build_error_table(
            Dataset(rank_label_members(train.forecasts), train.observations)
        )
        # 14 days of hourly data with ~150 forecasts covering each hour
        assert 45_000 <= table.n_rows <= 58_000
        per_hour = table.n_rows / (14 * 24)
        assert 130 <= per_hour <= 170


HOUR = timedelta(hours=1)
VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 3.25])  # few values, so ranks tie


@st.composite
def record_datasets(draw):
    """Records of two deterministic models and two ensembles with missing
    members, runs scattered so a model can miss a window, in shuffled order,
    plus hourly observations with gaps."""
    T0 = ts(1)
    fcs = []
    names = st.sampled_from(["a", "b", "ens", "ens2"])
    for model in draw(st.lists(names, min_size=1, unique=True)):
        for init in draw(st.lists(st.integers(0, 90), min_size=1, max_size=4, unique=True)):
            members = [None]
            if model.startswith("ens"):
                members = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True))
            for lead in draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True)):
                for m in members:
                    valid = T0 + (init + lead) * HOUR
                    fcs.append(ForecastRecord(model, m, T0 + init * HOUR, valid, draw(VALUES)))
    fcs = [fcs[i] for i in draw(st.permutations(range(len(fcs))))]
    first, last = draw(st.integers(0, 10)), draw(st.integers(60, 100))
    gaps = set(draw(st.lists(st.integers(0, 100), max_size=10)))
    obs = [
        ObservationRecord(T0 + h * HOUR, draw(VALUES))
        for h in range(first, last + 1)
        if h not in gaps
    ]
    train_days = draw(st.integers(1, 2))
    earliest = first + 24 * train_days
    # the covered range, plus its edges and one hour beyond each
    edges = st.sampled_from([earliest - 1, earliest, last + 1, last + 2])
    origin = T0 + draw(st.integers(earliest, last + 1) | edges) * HOUR
    window = ScenarioWindow(origin, train_days, draw(st.integers(1, 48)))
    return fcs, obs, window


class TestColumnsMatchRecordLoops:
    @given(record_datasets())
    def test_slice_rank_and_table_equal_reference(self, drawn):
        fcs, obs, window = drawn
        ds = Dataset.from_records(fcs, obs)
        assert rank_label_members(ds.forecasts).records() == reference_rank_label(fcs)
        try:
            ref = reference_slice(fcs, obs, window)
        except DataError:
            with pytest.raises(DataError):
                slice_scenario(ds, window)
            return
        train, evaluation = slice_scenario(ds, window)
        assert train.forecasts.records() == ref[0]
        assert train.observations.records() == ref[1]
        assert evaluation.forecasts.records() == ref[2]
        assert evaluation.observations.records() == ref[3]
        assert rank_label_members(evaluation.forecasts).records() == reference_rank_label(ref[2])

        ranked = rank_label_members(train.forecasts)
        ref_ranked = reference_rank_label(ref[0])
        assert ranked.records() == ref_ranked
        try:
            lead, code, err, label_set, skipped = reference_error_table(ref_ranked, ref[1])
        except DataError:
            with pytest.raises(DataError):
                build_error_table(Dataset(ranked, train.observations))
            return
        table = build_error_table(Dataset(ranked, train.observations))
        assert table.label_set == label_set
        assert table.skipped == skipped
        np.testing.assert_array_equal(table.lead_hours, lead)
        np.testing.assert_array_equal(table.label_codes, code)
        assert table.errors.tobytes() == err.tobytes()


class TestLeadHours:
    def test_lead_hours_exact_over_synthetic_slices(self):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=8)
        for f in ds.forecasts.records()[:5000]:
            assert f.valid_time == f.init_time + timedelta(hours=f.lead_hours)


class TestScenarioWindow:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            ScenarioWindow(ts(5), train_days=0)
        with pytest.raises(ValueError):
            ScenarioWindow(ts(5), horizon_hours=0)

    def test_intervals_disjoint(self):
        w = ScenarioWindow(ts(5), 2, 24)
        assert w.train_start == ts(3)
        assert w.eval_end == ts(6)
