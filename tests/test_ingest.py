import csv
import io
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import (
    ForecastRecord,
    ObservationRecord,
    dataset_from_records,
    forecast_records,
    observation_records,
    reference_error_table,
    reference_rank_label,
    reference_slice,
)
from hypothesis import given, settings, strategies as st

from probfcast import ingest
from probfcast.error_model import build_error_table, rank_label_members
from probfcast.exceptions import DataError
from probfcast.ingest import (
    Dataset,
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
HUGE = ("1.7e308", "-1.7e308", "1000000.5", "-2e6", "1e7")  # finite, past MAX_ABS_VALUE


class TestLoadForecasts:
    def test_parses_deterministic_row(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "glm,,2020-01-01T00:00Z,2020-01-01T12:00Z,4.5\n",
        )
        (rec,) = forecast_records(load_forecasts(p))
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
        recs = forecast_records(load_forecasts(p))
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

    @pytest.mark.parametrize("text", HUGE)
    def test_value_past_the_bound_rejected_with_line(self, tmp_path, text):
        # The canonical shape, so the fast path must decline the file for the
        # row parser to name the line; values of exactly 1e6 in magnitude load.
        later = GOOD_ROWS[0][:3] + ["2000-02-29T07:00Z", "1.5"]
        rows = [GOOD_ROWS[1][:4] + ["-1e6"], GOOD_ROWS[0][:4] + [text], later]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows, "\r\n"), newline="")
        assert ingest._forecast_columns(path) is None
        message = f"{path}:3: value_degC must be at most 1e+06 in magnitude, got {text!r}"
        with pytest.raises(DataError) as info:
            load_forecasts(path)
        assert str(info.value) == message
        rows[1][4] = "1000000"
        path.write_text(csv_text(rows, "\r\n"), newline="")
        assert ingest._forecast_columns(path) is not None
        assert sorted(load_forecasts(path).value.tolist()) == [-1e6, 1.5, 1e6]

    def test_negative_member_rejected(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER + "enuk,-1,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n",
        )
        with pytest.raises(DataError, match="member"):
            load_forecasts(p)

    @pytest.mark.parametrize(
        "member", ["999999999999999999", "1000000000000000000", "99999999999999999999"]
    )
    def test_member_of_more_than_18_digits_rejected(self, tmp_path, member):
        p = write(
            tmp_path,
            "f.csv",
            FC_HEADER
            + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n"
            + f"enuk,{member},2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n",
        )
        if len(member) <= 18:
            assert forecast_records(load_forecasts(p))[0].member == int(member)
        else:
            with pytest.raises(DataError, match=f":3: member {member} has more than 18 digits"):
                load_forecasts(p)


    @pytest.mark.parametrize("model_id, end", [("", "\r\n"), ('""', "\r\n"), ('""', "\n")])
    def test_empty_model_id_rejected_with_line(self, tmp_path, model_id, end):
        # The first file has the canonical shape but for the empty field, so the
        # fast path must decline it; the quoted ones go to the row parser anyway.
        rows = [GOOD_ROWS[1], [model_id, "", "2020-01-01T00:00Z", "2020-01-01T03:00Z", "1"]]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows, end), newline="")
        assert ingest._forecast_columns(path) is None
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:3: empty model_id$"):
            load_forecasts(path)


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

    @pytest.mark.parametrize("text", HUGE)
    def test_value_past_the_bound_names_line(self, tmp_path, text):
        rows = f"2020-01-01T00:00Z,1e6\n2020-01-01T01:00Z,-1e6\n2020-01-01T02:00Z,{text}\n"
        p = write(tmp_path, "o.csv", OBS_HEADER + rows)
        with pytest.raises(DataError) as info:
            load_observations(p)
        assert str(info.value) == (
            f"{p}:4: value_degC must be at most 1e+06 in magnitude, got {text!r}"
        )

    def test_parses_value(self, tmp_path):
        p = write(tmp_path, "o.csv", OBS_HEADER + "2020-01-01T00:00Z,2.5\n")
        (rec,) = observation_records(load_observations(p))
        assert rec.value == 2.5
        assert rec.valid_time == ts(1)


class TestRoundTrip:
    def test_dataset_round_trips_exactly(self, tmp_path):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=4)
        write_forecasts(tmp_path / "f.csv", ds.forecasts)
        write_observations(tmp_path / "o.csv", ds.observations)
        fc = load_forecasts(tmp_path / "f.csv")
        obs = load_observations(tmp_path / "o.csv")
        expected = sorted(forecast_records(ds.forecasts), key=repr)
        assert sorted(forecast_records(fc), key=repr) == expected
        assert observation_records(obs) == observation_records(ds.observations)

    def test_years_before_1000_round_trip(self, tmp_path):
        text = (
            FC_HEADER
            + "glm,,0999-01-01T00:00Z,0999-01-01T01:00Z,1.5\n"
            + "enuk,3,0999-01-01T00:00Z,0999-01-01T02:00Z,2.5\n"
        )
        fc = load_forecasts(write(tmp_path, "f.csv", text))
        write_forecasts(tmp_path / "again.csv", fc)
        assert "0999-01-01T02:00Z" in (tmp_path / "again.csv").read_text()
        again = load_forecasts(tmp_path / "again.csv")
        assert forecast_records(again) == forecast_records(fc)
        dup = write(tmp_path, "dup.csv", text + "glm,,0999-01-01T00:00Z,0999-01-01T01:00Z,3.5\n")
        with pytest.raises(
            DataError,
            match=r":4: duplicate forecast glm init 0999-01-01T00:00Z valid 0999-01-01T01:00Z",
        ):
            load_forecasts(dup)


def csv_module_text(rows):
    """``rows`` as the ``csv`` module's default writer writes them."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


FREE_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "é", "雪", "a", "_"]))


class TestCsvWriter:
    def test_float_texts_are_repr_or_empty_for_nan(self):
        values = np.array([[1.5, np.nan, -0.0], [np.inf, 1e-300, 0.1 + 0.2]])
        expected = ["1.5", "", "-0.0", "inf", "1e-300", "0.30000000000000004"]
        assert ingest.float_texts(values) == expected
        assert ingest.float_texts([np.nan]) == [""]

    # A row of one empty field is the csv module's one special case ('""'); no
    # file the program writes has fewer than two columns.
    @given(st.lists(st.lists(FREE_TEXT, min_size=2, max_size=4), min_size=1, max_size=4))
    def test_quoted_lines_equal_the_csv_module(self, rows):
        width = min(map(len, rows))
        rows = [row[:width] for row in rows]
        columns = [[ingest.quote_field(text) for text in column] for column in zip(*rows)]
        assert ingest._csv_lines(*columns) == csv_module_text(rows)

    def test_model_id_with_comma_and_quotes_round_trips(self, tmp_path):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=4)
        write_forecasts(tmp_path / "plain.csv", ds.forecasts)
        quoted = tmp_path / "quoted.csv"
        text = (tmp_path / "plain.csv").read_bytes()
        quoted.write_bytes(text.replace(b"\nglu,", b'\n"eur,""uk""",'))
        fc = load_forecasts(quoted)
        assert 'eur,"uk"' in fc.models and "glu" not in fc.models
        path = tmp_path / "written.csv"
        write_forecasts(path, fc)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert path.read_bytes() == csv_module_text(rows).encode()
        again = load_forecasts(path)
        assert forecast_records(again) == forecast_records(fc)
        write_forecasts(tmp_path / "again.csv", again)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


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
    return dataset_from_records(fcs, obs)


class TestSliceScenario:
    def test_eval_observations_after_origin(self):
        ds = tiny_dataset()
        origin = ts(3, 12)
        train, evaluation = slice_scenario(ds, origin, 2, 24)
        assert all(o.valid_time >= origin for o in observation_records(evaluation.observations))
        assert all(o.valid_time < origin for o in observation_records(train.observations))
        assert all(f.valid_time < origin for f in forecast_records(train.forecasts))
        assert all(f.init_time < origin for f in forecast_records(train.forecasts))

    def test_latest_run_selected(self):
        ds = tiny_dataset()
        origin = ts(3, 13)  # runs exist at 00:00 and 12:00; 13:00 keeps the 12:00 one
        _, evaluation = slice_scenario(ds, origin, 2, 24)
        rows = forecast_records(evaluation.forecasts)
        inits = {f.init_time for f in rows if f.model_id == "glm"}
        assert inits == {ts(3, 12)}

    def test_window_not_covered(self):
        ds = tiny_dataset()
        with pytest.raises(DataError, match="window not covered"):
            slice_scenario(ds, ts(2), 14, 24)

    def test_no_leakage_over_random_origins(self):
        ds = synthesize_dataset(SynthConfig(span_days=20), seed=9)
        rng = np.random.default_rng(0)
        start = observation_records(ds.observations)[0].valid_time
        for _ in range(100):
            origin = start + timedelta(hours=int(rng.integers(3 * 24, 18 * 24)))
            train, _ = slice_scenario(ds, origin, 3, 24)
            assert max(o.valid_time for o in observation_records(train.observations)) < origin
            assert max(f.valid_time for f in forecast_records(train.forecasts)) < origin

    def test_default_window_yields_desk_scale_error_rows(self):
        ds = synthesize_dataset(SynthConfig(span_days=40), seed=1)
        origin = admissible_origins(ds, RunConfig())[0]
        train, _ = slice_scenario(ds, origin)
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
    return fcs, obs, (origin, train_days, draw(st.integers(1, 48)))


class TestColumnsMatchRecordLoops:
    @given(record_datasets())
    def test_slice_rank_and_table_equal_reference(self, drawn):
        fcs, obs, window = drawn
        ds = dataset_from_records(fcs, obs)
        assert forecast_records(rank_label_members(ds.forecasts)) == reference_rank_label(fcs)
        try:
            ref = reference_slice(fcs, obs, *window)
        except DataError:
            with pytest.raises(DataError):
                slice_scenario(ds, *window)
            return
        train, evaluation = slice_scenario(ds, *window)
        assert forecast_records(train.forecasts) == ref[0]
        assert observation_records(train.observations) == ref[1]
        assert forecast_records(evaluation.forecasts) == ref[2]
        assert observation_records(evaluation.observations) == ref[3]
        ranked = forecast_records(rank_label_members(evaluation.forecasts))
        assert ranked == reference_rank_label(ref[2])

        ranked = rank_label_members(train.forecasts)
        ref_ranked = reference_rank_label(ref[0])
        assert forecast_records(ranked) == ref_ranked
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
        for f in forecast_records(ds.forecasts)[:5000]:
            assert f.valid_time == f.init_time + timedelta(hours=f.lead_hours)


class TestScenarioWindow:
    """The training window and horizon lengths slice_scenario takes."""

    def test_rejects_nonpositive_fields(self):
        ds = tiny_dataset()
        for days, hours in ((0, 24), (-1, 24), (2, 0), (2, -3)):
            with pytest.raises(ValueError, match="must be positive"):
                slice_scenario(ds, ts(3, 12), train_days=days, horizon_hours=hours)


# Faults injected into canonically shaped forecasts.csv files.  Each but a
# duplicate key hands the file to the row parser: to be rejected with the
# parser's message or, for a space or an offset in a time or a quoted model
# id, to load.
BAD_STAMPS = (
    "not-a-time",
    "2020-13-01T00:00Z",
    "2020-01-01T24:00Z",
    "2020-01-01 06:00Z",
    "2020-01-01T06:00+01:00",
    "0000-01-01T00:00Z",
    "2020-1-01T00:00Z",
    "2020-01-01T06:00:00Z",
)
SUB_HOURLY_STAMPS = ("2020-01-01T06:30Z", "2020-01-01T06:01Z")
IMPOSSIBLE_DATES = (
    "2021-02-29T00:00Z",
    "1900-02-29T06:00Z",
    "2100-02-29T00:00Z",
    "2020-04-31T00:00Z",
    "2020-02-30T12:00Z",
    "2020-00-10T00:00Z",
    "2020-06-00T00:00Z",
)
BAD_MEMBERS = ("+3", "-0", " 2", "1_0", "-1", "-12")
BAD_LEADS = (-1, -30, 169, 200)
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999")
FAULTS = (
    "bad timestamp",
    "sub-hourly timestamp",
    "impossible date",
    "bad member",
    "lead outside range",
    "non-finite value",
    "huge value",
    "duplicate key",
    "quoted model id",
    "empty model id",
    "blank line",
    "four fields",
    "six fields",
)
VALUE_TEXTS = st.floats(-ingest.MAX_ABS_VALUE, ingest.MAX_ABS_VALUE).map(repr) | st.sampled_from(
    ["0", "-0", "+1.5", "1.", ".5", "1e3", "1E-3", "-2.50", "007", "1e6", "-1000000"]
)
MODEL_IDS = st.sampled_from(["glu", "ukv", "enuk", "a b", "m-1"])  # "": the "empty model id" fault
# Hours since 2000-01-01: around the 2000 leap day and the end of 2000.
INIT_HOURS = st.sampled_from([0, 1404, 1416, 8772, 8778]) | st.integers(0, 9000)
EPOCH_2000 = datetime(2000, 1, 1, tzinfo=UTC)


def stamp(hour):
    return (EPOCH_2000 + timedelta(hours=hour)).strftime("%Y-%m-%dT%H:%MZ")


def csv_text(rows, end, blank_at=None):
    lines = [FC_HEADER.strip()] + [",".join(r) for r in rows]
    if blank_at is not None:
        lines.insert(blank_at, "")
    return end.join(lines) + end


@st.composite
def forecast_files(draw):
    """(text of a forecasts.csv, fault or None), rows in shuffled order."""
    rows = []
    for model in draw(st.lists(MODEL_IDS, min_size=1, max_size=3, unique=True)):
        members = [""]
        if model == "enuk":
            member_ids = st.integers(0, 40).map(str)
            members = draw(st.lists(member_ids, min_size=1, max_size=3, unique=True))
        for init in draw(st.lists(INIT_HOURS, min_size=1, max_size=3, unique=True)):
            for lead in draw(st.lists(st.integers(0, 168), min_size=1, max_size=4, unique=True)):
                for m in members:
                    rows.append([model, m, stamp(init), stamp(init + lead), draw(VALUE_TEXTS)])
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    fault = draw(st.none() | st.sampled_from(FAULTS))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    times = draw(st.sampled_from([slice(2, 3), slice(3, 4), slice(2, 4)]))
    if fault == "bad timestamp":
        row[times] = [draw(st.sampled_from(BAD_STAMPS))] * len(row[times])
    elif fault == "sub-hourly timestamp":
        row[3] = row[3].replace(":00Z", draw(st.sampled_from([":30Z", ":01Z"])))
    elif fault == "impossible date":
        row[times] = [draw(st.sampled_from(IMPOSSIBLE_DATES))] * len(row[times])
    elif fault == "bad member":
        row[1] = draw(st.sampled_from(BAD_MEMBERS))
    elif fault == "lead outside range":
        init = (datetime.fromisoformat(row[2].replace("Z", "+00:00")) - EPOCH_2000) // HOUR
        row[3] = stamp(init + draw(st.sampled_from(BAD_LEADS)))
    elif fault == "non-finite value":
        row[4] = draw(st.sampled_from(NON_FINITE))
    elif fault == "huge value":
        row[4] = draw(st.sampled_from(HUGE))
    elif fault == "duplicate key":
        rows.insert(draw(st.integers(0, len(rows))), row[:4] + [draw(VALUE_TEXTS)])
    elif fault == "quoted model id":
        row[0] = f'"{row[0]}"'
    elif fault == "empty model id":
        row[0] = ""
    elif fault == "four fields":
        del row[draw(st.integers(0, 4))]
    elif fault == "six fields":
        row.insert(draw(st.integers(0, 5)), "1")
    blank_at = draw(st.integers(1, len(rows) + 1)) if fault == "blank line" else None
    return csv_text(rows, draw(st.sampled_from(["\r\n", "\n"])), blank_at), fault


GOOD_ROWS = [
    ["enuk", "3", "2000-02-28T18:00Z", "2000-02-29T06:00Z", "1.5"],
    ["glu", "", "2000-12-31T12:00Z", "2001-01-01T00:00Z", "-0.25"],
]


def faulty_rows():
    """Rows each with one listed fault."""
    for t in (*BAD_STAMPS, *SUB_HOURLY_STAMPS, *IMPOSSIBLE_DATES):
        yield ["glu", "", t, "2020-01-02T00:00Z", "1"]
        yield ["glu", "", "2020-01-01T00:00Z", t, "1"]
        yield ["glu", "", t, t, "1"]  # lead 0: only the time itself is wrong
    for k in BAD_MEMBERS:
        yield ["enuk", k, "2020-01-01T00:00Z", "2020-01-01T03:00Z", "1"]
    for lead in BAD_LEADS:
        yield ["glu", "", stamp(100), stamp(100 + lead), "1"]
    for x in NON_FINITE + HUGE:
        yield ["glu", "", "2020-01-01T00:00Z", "2020-01-01T03:00Z", x]
    yield GOOD_ROWS[0][:4] + ["2.5"]
    yield ['"glu"', "", "2020-01-01T00:00Z", "2020-01-01T03:00Z", "1"]
    yield ["", "", "2020-01-01T00:00Z", "2020-01-01T03:00Z", "1"]
    yield ["glu", "", "2020-01-01T00:00Z", "2020-01-01T03:00Z"]
    yield ["glu", "", "2020-01-01T00:00Z", "2020-01-01T03:00Z", "1", "2"]


def load_outcome(load, path):
    """Columns as (dtype, bytes) pairs, or the DataError text."""
    try:
        fc = load(path)
    except DataError as exc:
        return str(exc)
    cols = (fc.model, fc.member, fc.init, fc.valid, fc.value)
    return fc.models, [(c.dtype.str, c.tobytes()) for c in cols]


def assert_loads_as_row_parser(path):
    got = load_outcome(load_forecasts, path)
    assert got == load_outcome(ingest._load_forecast_rows, path)
    return got


def hour_of(text):
    return ingest.hour_index(ingest.parse_hour(text))


def assert_canonical_order(fc, rows):
    """``fc`` holds the text ``rows``, stably sorted by model, member (none
    first), init and valid."""
    want = [(r[0], int(r[1] or -1), hour_of(r[2]), hour_of(r[3]), float(r[4])) for r in rows]
    want.sort(key=lambda r: r[:4])
    got = zip(fc.model.tolist(), fc.member.tolist(), fc.init.tolist(), fc.valid.tolist())
    assert [(fc.models[m], k, i, v) for m, k, i, v in got] == [r[:4] for r in want]
    assert fc.value.tolist() == [r[4] for r in want]


class TestFastPathMatchesRowParser:
    """load_forecasts gives the row parser's columns, bit for bit, or its
    DataError text, whichever path it takes."""

    @given(forecast_files())
    @settings(max_examples=200)
    def test_same_columns_or_same_error(self, tmp_path_factory, drawn):
        text, fault = drawn
        path = tmp_path_factory.mktemp("fast") / "forecasts.csv"
        path.write_bytes(text.encode())
        got = assert_loads_as_row_parser(path)
        if fault in (None, "duplicate key"):
            assert ingest._forecast_columns(path) is not None
        if fault is None:
            assert not isinstance(got, str)

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    def test_each_listed_fault(self, tmp_path, end):
        good = GOOD_ROWS
        path = tmp_path / "f.csv"
        path.write_text(csv_text(good, end), newline="")
        assert ingest._forecast_columns(path) is not None
        assert not isinstance(assert_loads_as_row_parser(path), str)
        for row in faulty_rows():
            for at in range(3):
                path.write_text(csv_text(good[:at] + [row] + good[at:], end), newline="")
                assert_loads_as_row_parser(path)
        path.write_text(csv_text(good, end, blank_at=2), newline="")
        assert_loads_as_row_parser(path)

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    def test_synthetic_set_takes_the_fast_path(self, tmp_path, end):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=4)
        path = tmp_path / "f.csv"
        write_forecasts(path, ds.forecasts)
        path.write_bytes(path.read_bytes().replace(b"\r\n", end.encode()))
        assert ingest._forecast_columns(path) is not None
        assert_loads_as_row_parser(path)

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    def test_runs_and_a_duplicate_across_blocks(self, tmp_path, monkeypatch, end):
        # Blocks of 7 lines: the 40-row glu run, its init date and the 24-hour
        # runs of its valid dates cross block edges, and so do enuk's.
        monkeypatch.setattr(ingest, "_BLOCK_LINES", 7)
        rows = [["glu", "", stamp(0), stamp(lead), f"{lead}.5"] for lead in range(40)]
        rows += [["enuk", k, stamp(18), stamp(18 + lead), "1"] for k in "01" for lead in range(9)]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows, end), newline="")
        assert ingest._forecast_columns(path) is not None
        assert_loads_as_row_parser(path)
        assert_canonical_order(load_forecasts(path), rows)
        # Line 2's key again on line 60, eight blocks later.
        path.write_text(csv_text(rows + [rows[0][:4] + ["9"]], end), newline="")
        assert ingest._forecast_columns(path) is not None
        got = assert_loads_as_row_parser(path)
        assert got.startswith(f"{path}:60: duplicate forecast glu init") and "line 2)" in got

    def test_sort_keeps_line_order_among_equal_keys(self, tmp_path):
        # Every key twice, the second half in reverse: line n + 2 repeats line
        # n + 1, and only a stable sort keeps each first occurrence first.
        keys = [(h // 100 * 24, h // 100 * 24 + h % 100) for h in range(3000)]
        rows = [["glu", "", stamp(i), stamp(v), "1"] for i, v in keys]
        rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows + rows[::-1], "\n"), newline="")
        got = assert_loads_as_row_parser(path)
        assert got.startswith(f"{path}:3002: duplicate") and got.endswith("on line 3001)")

    def test_rows_in_reverse_canonical_order(self, tmp_path):
        ds = synthesize_dataset(SynthConfig(span_days=3), seed=4)
        path = tmp_path / "f.csv"
        write_forecasts(path, ds.forecasts)
        write_forecasts(path, load_forecasts(path))
        header, *lines = path.read_bytes().split(b"\r\n")[:-1]
        path.write_bytes(b"\r\n".join([header, *lines[::-1], b""]))
        assert ingest._forecast_columns(path) is not None
        assert_loads_as_row_parser(path)
        assert_canonical_order(load_forecasts(path), [x.decode().split(",") for x in lines])

    def test_members_and_calendar_edges(self, tmp_path):
        # IMPOSSIBLE_DATES holds the invalid leap days, 1900-02-29 and 2100-02-29.
        rows = [
            ["enuk", "123456789", "2000-02-28T12:00Z", "2000-02-29T06:00Z", "1"],
            ["enuk", "007", "0001-01-01T00:00Z", "0001-01-01T05:00Z", "2"],
            ["enuk", "0", "9999-12-31T00:00Z", "9999-12-31T23:00Z", "3"],
            ["glu", "", "2000-02-29T23:00Z", "2000-03-01T00:00Z", "4"],
        ]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows, "\n"), newline="")
        assert ingest._forecast_columns(path) is not None
        assert_loads_as_row_parser(path)
        assert_canonical_order(load_forecasts(path), rows)

    def test_key_spans_past_int64_sort_the_columns(self, tmp_path, monkeypatch):
        # Members up to 999,999,999 and inits from year 1 to 9999: the packed
        # key's span, 1e9 x 8.8e7 hours x 169 leads, passes 2**63.
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        rows = [
            ["enuk", "999999999", "9999-12-31T00:00Z", "9999-12-31T01:00Z", "1"],
            ["enuk", "0", "9999-12-31T00:00Z", "9999-12-31T01:00Z", "2"],
            ["enuk", "999999999", "0001-01-01T00:00Z", "0001-01-01T03:00Z", "3"],
            ["enuk", "999999999", "0001-01-01T00:00Z", "0001-01-01T02:00Z", "4"],
            ["glu", "", "5000-06-15T12:00Z", "5000-06-15T12:00Z", "5"],
        ]
        path = tmp_path / "f.csv"
        path.write_text(csv_text(rows, "\r\n"), newline="")
        assert ingest._forecast_columns(path) is not None
        assert_canonical_order(load_forecasts(path), rows)
        assert calls
        path.write_text(csv_text(rows + [rows[2][:4] + ["6"]], "\r\n"), newline="")
        got = assert_loads_as_row_parser(path)
        assert got.startswith(f"{path}:7: duplicate forecast enuk member 999999999")

    @pytest.mark.parametrize(
        "text",
        [
            FC_HEADER + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0",  # no final newline
            FC_HEADER + "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\r\n",  # mixed endings
            FC_HEADER + "g\rm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n",  # lone CR
            FC_HEADER + "glü,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.0\n",  # not ASCII
            FC_HEADER,  # no rows
        ],
    )
    def test_other_shapes_take_the_row_parser(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        assert ingest._forecast_columns(path) is None
        assert_loads_as_row_parser(path)
