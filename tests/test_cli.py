import csv
import dataclasses
import filecmp
import hashlib
import io
import shutil
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    forecast_records,
    reference_build_cdf,
    reference_prob_below,
    reference_quantile,
    reference_sample,
)

from probfcast import cli, pipeline, qrf
from probfcast.cli import _run_config, build_parser, main
from probfcast.combine import DEFAULT_LEVELS
from probfcast.ingest import (
    Dataset,
    format_hour,
    hour_index,
    load_forecasts,
    load_observations,
    parse_hour,
    write_forecasts,
    write_observations,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["generate", "--out", str(out), "--seed", "12", "--span-days", "40"])
    assert rc == 0
    return out


def run_args(data_dir, out, extra=()):
    return [
        "--forecasts",
        str(data_dir / "forecasts.csv"),
        "--observations",
        str(data_dir / "observations.csv"),
        "--out",
        str(out),
        "--trees",
        "40",
        "--sample-count",
        "64",
        "--seed",
        "4",
        *extra,
    ]


class TestGenerate:
    def test_outputs_parse_cleanly(self, data_dir):
        fc = load_forecasts(data_dir / "forecasts.csv")
        obs = load_observations(data_dir / "observations.csv")
        assert len(obs) == 40 * 24
        assert len(fc) > 100_000

    def test_deterministic_bytes(self, tmp_path, data_dir):
        rc = main(["generate", "--out", str(tmp_path), "--seed", "12", "--span-days", "40"])
        assert rc == 0
        assert filecmp.cmp(tmp_path / "forecasts.csv", data_dir / "forecasts.csv", shallow=False)

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("span_days=3\nmodels=glm,ukv\nseed=5\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        fc = load_forecasts(tmp_path / "forecasts.csv")
        assert {r.model_id for r in forecast_records(fc)} == {"glm", "ukv"}


class TestTrain:
    def test_saves_forest_and_oob_table(self, data_dir, tmp_path):
        rc = main(
            ["train", *run_args(data_dir, tmp_path, ["--dump-errors", str(tmp_path / "err.csv")])]
        )
        assert rc == 0
        forest = qrf.load_forest(tmp_path / "forest.npz")
        assert forest.num_trees == 40
        oob_rows = read_csv(tmp_path / "oob_coverage.csv")
        leads = {int(r["lead_hours"]) for r in oob_rows}
        observed = set(forest.table.lead_hours.tolist())
        assert leads <= observed
        assert set(oob_rows[0].keys()) == {"lead_hours", "n", "cov50", "cov80", "cov90", "cov95"}
        err_rows = read_csv(tmp_path / "err.csv")
        assert set(err_rows[0].keys()) == {"lead_hours", "model_label", "error_degC"}
        assert len(err_rows) == forest.table.n_rows

    def test_min_training_rows_enforced(self, data_dir, tmp_path, capsys):
        extra = ["--train-days", "7", "--trees", "5", "--min-training-rows", "10000000"]
        rc = main(["train", *run_args(data_dir, tmp_path, extra)])
        assert rc == 2
        assert "insufficient training data" in capsys.readouterr().err
        assert not (tmp_path / "forest.npz").exists()

    def test_saved_forest_reproduces_predictions(self, data_dir, tmp_path):
        rc = main(["train", *run_args(data_dir, tmp_path)])
        assert rc == 0
        forest = qrf.load_forest(tmp_path / "forest.npz")
        again = qrf.train(forest.table, forest.config)
        leads = list(range(0, 169, 13))
        labels = [forest.table.label_set[0]] * len(leads)
        np.testing.assert_array_equal(
            qrf.predict_quantiles_batch(forest, leads, labels, DEFAULT_LEVELS),
            qrf.predict_quantiles_batch(again, leads, labels, DEFAULT_LEVELS),
        )

    @pytest.mark.parametrize("flag, name", [("--dump-errors", "x.csv"), ("--save", "f.npz")])
    def test_output_file_in_missing_directory_is_config_error(self, tmp_path, capsys, flag, name):
        # The inputs are absent too: reading them first would exit 2.
        path, absent = tmp_path / "missing" / name, str(tmp_path / "absent.csv")
        argv = ["train", "--forecasts", absent, "--observations", absent]
        assert main([*argv, "--out", str(tmp_path / "out"), flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{flag} {path}" in err and "does not exist" in err
        assert not (tmp_path / "out").exists()  # checked before --out is made

    def test_output_files_may_go_in_the_out_directory_it_creates(
        self, data_dir, tmp_path, monkeypatch
    ):
        # --out is relative and the file paths spell the same directory
        # differently; it does not exist until train makes it.
        monkeypatch.chdir(tmp_path)
        extra = ["--trees", "5", "--train-days", "7"]
        extra += ["--dump-errors", "run/errors.csv", "--save", str(tmp_path / "run" / "f.npz")]
        assert main(["train", *run_args(data_dir, "run", extra)]) == 0
        assert {p.name for p in (tmp_path / "run").iterdir()} >= {"errors.csv", "f.npz"}

    def test_error_dump_quotes_labels_as_the_csv_module(self, data_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        text = (data_dir / "forecasts.csv").read_bytes()
        (data / "forecasts.csv").write_bytes(text.replace(b"\nglu,", b'\n"eur,""uk""",'))
        shutil.copy(data_dir / "observations.csv", data / "observations.csv")
        dump = tmp_path / "out" / "errors.csv"
        extra = ["--trees", "5", "--train-days", "7", "--dump-errors", str(dump)]
        assert main(["train", *run_args(data, tmp_path / "out", extra)]) == 0
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert 'eur,"uk"' in {row[1] for row in rows[1:]}
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows(rows)
        assert dump.read_bytes() == buffer.getvalue().encode()


class TestForecast:
    def test_products_written(self, data_dir, tmp_path):
        rc = main(
            [
                "forecast",
                *run_args(data_dir, tmp_path),
                "--origin",
                "2020-02-05T00:00Z",
                "--draws",
                "250",
                "--dump-cdf-hour",
                "50",
            ]
        )
        assert rc == 0
        intervals = read_csv(tmp_path / "intervals.csv")
        assert set(intervals[0].keys()) == {"valid_time", "median", "lo80", "hi80", "lo95", "hi95"}
        assert len(intervals) == 168
        samples = read_csv(tmp_path / "samples.csv")
        assert len(samples) == 168 * 250
        probs = read_csv(tmp_path / "prob_below.csv")
        for row in probs:
            assert 0.0 <= float(row["prob_below"]) <= 1.0
        quantiles = read_csv(tmp_path / "quantiles.csv")
        assert len(quantiles) == 168 * DEFAULT_LEVELS.size
        cdf_rows = read_csv(tmp_path / "cdf_probe.csv")
        ps = [float(r["cdf"]) for r in cdf_rows]
        assert ps == sorted(ps)

    def test_quantiles_csv_equals_horizon_quantiles(self, data_dir, tmp_path):
        args = run_args(data_dir, tmp_path, ["--origin", "2020-02-05T00:00Z", "--draws", "10"])
        assert main(["forecast", *args]) == 0
        config = _run_config(build_parser().parse_args(["forecast", *args]))
        dataset = Dataset(
            load_forecasts(data_dir / "forecasts.csv"),
            load_observations(data_dir / "observations.csv"),
        )
        origin = parse_hour("2020-02-05T00:00Z")
        horizon = pipeline.run_scenario(dataset, origin, config)
        rows = read_csv(tmp_path / "quantiles.csv")
        values = np.array([float(r["value_degC"]) for r in rows])
        assert values.tobytes() == horizon.cdfs.values.ravel().tobytes()
        levels = [float(r["level"]) for r in rows]
        assert levels == np.tile(config.levels, len(horizon.lead_hours)).tolist()
        times = [r["valid_time"] for r in rows[:: config.levels.size]]
        leads = horizon.lead_hours.tolist()
        assert times == [format_hour(origin + timedelta(hours=h)) for h in leads]

    @pytest.mark.parametrize("draws, hours, block", [(1000, 168, None), (300, 24, 256)])
    def test_products_equal_per_hour_reference(
        self, data_dir, tmp_path, monkeypatch, draws, hours, block
    ):
        # Hours are drawn and written in blocks: several here, the last one
        # short; with block=256 each block is one hour of more draws than that.
        if block is not None:
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK_ENTRIES", block)
        assert draws * hours > cli._SAMPLE_BLOCK_ENTRIES
        extra = ["--origin", "2020-02-05T00:00Z", "--draws", str(draws)]
        extra += ["--horizon", str(hours), "--threshold", "3.5"]
        args = run_args(data_dir, tmp_path, extra)
        assert main(["forecast", *args]) == 0
        config = _run_config(build_parser().parse_args(["forecast", *args]))
        origin = parse_hour("2020-02-05T00:00Z")
        knots = {}
        for r in read_csv(tmp_path / "quantiles.csv"):
            knots.setdefault(r["valid_time"], []).append(float(r["value_degC"]))
        assert len(knots) == hours
        draws_of = {}
        with open(tmp_path / "samples.csv", newline="") as fh:
            rows = csv.reader(fh)
            assert next(rows) == ["valid_time", "draw", "value_degC"]
            for t, k, value in rows:
                got = draws_of.setdefault(t, [])
                assert int(k) == len(got)
                got.append(float(value))
        intervals = {r["valid_time"]: r for r in read_csv(tmp_path / "intervals.csv")}
        probs = {r["valid_time"]: r for r in read_csv(tmp_path / "prob_below.csv")}
        for t, values in knots.items():
            h = (parse_hour(t) - origin) // timedelta(hours=1)
            ref = reference_build_cdf(config.levels, values)
            expected = reference_sample(ref, draws, config.seed + 7 * h + 1)
            assert np.array(draws_of[t]).tobytes() == expected.tobytes(), t
            assert float(probs[t]["prob_below"]) == reference_prob_below(ref, 3.5)
            assert float(probs[t]["prob_below_sampled"]) == float(np.mean(expected < 3.5))
            for column, level in cli._INTERVAL_COLUMNS.items():
                assert float(intervals[t][column]) == reference_quantile(ref, [level])[0]

    @pytest.mark.parametrize("hour, flags", [("0", []), ("500", []), ("25", ["--horizon", "24"])])
    def test_probe_hour_outside_horizon_exits_before_reading(self, tmp_path, hour, flags):
        out = tmp_path / "out"
        argv = ["forecast", "--forecasts", str(tmp_path / "absent.csv")]
        argv += ["--observations", str(tmp_path / "absent_obs.csv"), "--out", str(out)]
        argv += ["--origin", "2020-02-05T00:00Z", "--dump-cdf-hour", hour, *flags]
        assert main(argv) == 1
        assert not out.exists()

    def test_uncovered_probe_hour_writes_no_products(self, data_dir, tmp_path, capsys):
        # No model runs beyond 168 h, so hours 169..200 of this horizon are uncovered.
        extra = ["--origin", "2020-02-05T00:00Z", "--horizon", "200", "--dump-cdf-hour", "190"]
        assert main(["forecast", *run_args(data_dir, tmp_path / "out", extra)]) == 2
        assert "no forecast product at lead hour 190" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_origin_required(self, data_dir, tmp_path):
        rc = main(["forecast", *run_args(data_dir, tmp_path)])
        assert rc == 1

    def test_products_pass_through_tied_knots(self, tmp_path):
        # On the 90-day seed-55 set this origin has, at 2020-04-03T11:00Z, equal
        # 0.025 and 0.03 knots just above the threshold.
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["generate", "--seed", "55", "--span-days", "90", "--out", str(data)]) == 0
        argv = ["forecast", "--forecasts", str(data / "forecasts.csv")]
        argv += ["--observations", str(data / "observations.csv"), "--out", str(out)]
        assert main([*argv, "--origin", "2020-03-27T18:00Z", "--threshold", "14.3"]) == 0
        knots = {}
        for r in read_csv(out / "quantiles.csv"):
            knots.setdefault(r["valid_time"], {})[float(r["level"])] = float(r["value_degC"])
        tied = knots["2020-04-03T11:00Z"]
        assert tied[0.025] == tied[0.03] > 14.3
        prob = {r["valid_time"]: float(r["prob_below"]) for r in read_csv(out / "prob_below.csv")}
        levels, values = zip(*sorted(tied.items()))
        assert prob["2020-04-03T11:00Z"] == pytest.approx(
            np.interp(14.3, values, levels), rel=1e-9
        )
        columns = {"median": 0.5, "lo80": 0.1, "hi80": 0.9, "lo95": 0.025, "hi95": 0.975}
        for r in read_csv(out / "intervals.csv"):
            for column, level in columns.items():
                assert float(r[column]) == knots[r["valid_time"]][level], (r["valid_time"], column)


class TestEvaluate:
    def evaluate(self, data_dir, out):
        return main(
            [
                "evaluate",
                *run_args(data_dir, out, ["--scenarios", "2", "--min-training-rows", "500"]),
            ]
        )

    def test_report_files(self, data_dir, tmp_path):
        assert self.evaluate(data_dir, tmp_path) == 0
        summary = dict(
            line.split("=", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
        )
        assert summary["n_scenarios"] == "2"
        for key in ("coverage_95", "coverage_80", "mean_crps", "mean_crps_raw"):
            assert key in summary
        aggs = read_csv(tmp_path / "aggregates.csv")
        metrics = {r["metric"] for r in aggs}
        assert {"crps", "log_score", "abs_error_median", "hit95", "raw_crps"} <= metrics
        leads = {int(r["lead_hours"]) for r in aggs}
        assert leads == set(range(1, 169))
        assert (tmp_path / "scenarios" / "scenario_000_scores.csv").exists()
        assert (tmp_path / "scenarios" / "scenario_001_raw.csv").exists()
        assert (tmp_path / "points.csv").exists()

    def test_byte_identical_reports(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.evaluate(data_dir, a) == 0
        assert self.evaluate(data_dir, b) == 0
        for rel in [p.relative_to(a) for p in a.rglob("*.csv")] + [Path("summary.txt")]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


    def test_reports_equal_at_one_and_two_jobs(self, data_dir, tmp_path):
        # Five scenarios split 3 + 2 over two workers, so their chunks of
        # forests grown together differ from the serial run's.
        extra = ["--scenarios", "5", "--min-training-rows", "500", "--trees", "20"]
        for jobs in ("1", "2"):
            argv = run_args(data_dir, tmp_path / jobs, [*extra, "--jobs", jobs])
            assert main(["evaluate", *argv]) == 0
        a, b = tmp_path / "1", tmp_path / "2"
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in files:
            if rel != Path("timings.txt"):
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_failing_scenario_is_reported(self, data_dir, tmp_path, capsys, jobs):
        """Scenario 0 fails in scoring and scenario 1 in preparation: the report
        names scenario 0's failure, as when each scenario runs alone in turn."""
        extra = ["--scenarios", "2", "--min-training-rows", "500", "--jobs", jobs]
        args = build_parser().parse_args(["evaluate", *run_args(data_dir, "", extra)])
        config = _run_config(args)
        fc = load_forecasts(data_dir / "forecasts.csv")
        obs = load_observations(data_dir / "observations.csv")
        first, second = pipeline.draw_origins(Dataset(fc, obs), config)
        assert first != second
        # An hour of scenario 0's horizon loses its observation ...
        missing = first + timedelta(hours=5)
        obs = obs.take(obs.hour != hour_index(missing))
        # ... and eur_uk keeps its runs from scenario 1's origin on, but no training rows.
        gone = (fc.model == fc.models.index("eur_uk")) & (fc.init < hour_index(second))
        fc = fc.take(~gone)
        data = tmp_path / "data"
        data.mkdir()
        write_forecasts(data / "forecasts.csv", fc)
        write_observations(data / "observations.csv", obs)
        assert main(["evaluate", *run_args(data, tmp_path / "out", extra)]) == 2
        err = capsys.readouterr().err
        assert f"no observation to score at {missing.isoformat()}" in err
        assert "eur_uk" not in err


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(
            [
                "evaluate",
                "--forecasts",
                str(tmp_path / "nope.csv"),
                "--observations",
                str(tmp_path / "nope2.csv"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_bad_flag_is_usage_error(self):
        assert main(["evaluate", "--no-such-flag"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_paths_is_config_error(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("levels", ["0.5,1.5", "0,0.5", "nan", "0.5,x"])
    def test_bad_levels_is_config_error(self, data_dir, tmp_path, levels):
        rc = main(["evaluate", *run_args(data_dir, tmp_path, ["--levels", levels])])
        assert rc == 1
        assert not (tmp_path / "summary.txt").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1

    def test_config_file_supplies_defaults_and_flags_override(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"forecasts={data_dir / 'forecasts.csv'}\n"
            f"observations={data_dir / 'observations.csv'}\n"
            "trees=10\n"
            "sample_count=32\n"
            "scenarios=1\n"
            "min_training_rows=500\n"
            "seed=9\n"
        )
        out = tmp_path / "out"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out), "--scenarios", "1"])
        assert rc == 0
        summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert summary["n_scenarios"] == "1"
        assert summary["seed"] == "9"

    def test_unset_flags_keep_run_config_defaults(self):
        default = pipeline.RunConfig()
        for command in ("train", "forecast", "evaluate"):
            got = _run_config(build_parser().parse_args([command]))
            for f in dataclasses.fields(default):
                assert np.array_equal(getattr(got, f.name), getattr(default, f.name)), f.name
        flags = ["--trees", "7", "--scenarios", "3", "--horizon", "24", "--replace"]
        got = _run_config(build_parser().parse_args(["evaluate", *flags]))
        assert (got.num_trees, got.n_scenarios, got.horizon_hours, got.replace) == (7, 3, 24, True)

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("forecast", ["--origin", "2020-02-05T00:00Z", "--draws", "0"]),
            ("forecast", ["--origin", "2020-02-05T00:00Z", "--horizon", "0"]),
            ("evaluate", ["--scenarios", "1", "--train-days", "0"]),
            ("train", ["--train-days", "0"]),
        ],
    )
    def test_out_of_range_run_option_is_config_error(self, data_dir, tmp_path, command, flags):
        out = tmp_path / "out"
        assert main([command, *run_args(data_dir, out, flags)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "forecast", "evaluate"])
    def test_out_that_is_a_file_is_config_error(self, data_dir, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        if command == "generate":
            argv = ["generate", "--out", str(taken), "--span-days", "3"]
        else:
            extra = ["--origin", "2020-02-05T00:00Z"] if command == "forecast" else []
            argv = [command, *run_args(data_dir, taken, extra)]
        assert main(argv) == 1
        assert f"output directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_config_error(self, tmp_path, capsys, via, value):
        # Neither input exists, so reading a CSV first would exit 2.
        out = tmp_path / "out"
        argv = ["forecast", "--forecasts", str(tmp_path / "absent.csv")]
        argv += ["--observations", str(tmp_path / "absent_obs.csv"), "--out", str(out)]
        argv += ["--origin", "2020-02-05T00:00Z"]
        if via == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"threshold={value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += [f"--threshold={value}"]
        assert main(argv) == 1
        assert "threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "bad_file, text",
        [
            (
                "forecasts.csv",
                "model_id,member,init_time,valid_time,value_degC\n"
                "glm,,2020-01-01T00:00Z,2020-01-01T01:00Z,1.5\n"
                "glm,,2020-01-01T00:00Z,2020-01-01T02:00Z,nan\n",
            ),
            (
                "observations.csv",
                "valid_time,value_degC\n2020-01-01T01:00Z,2.0\n2020-01-01T02:00Z,inf\n",
            ),
        ],
    )
    def test_non_finite_value_is_data_error_with_line(
        self, data_dir, tmp_path, capsys, bad_file, text
    ):
        paths = {name: data_dir / name for name in ("forecasts.csv", "observations.csv")}
        paths[bad_file] = tmp_path / bad_file
        paths[bad_file].write_text(text)
        rc = main(
            [
                "train",
                "--forecasts",
                str(paths["forecasts.csv"]),
                "--observations",
                str(paths["observations.csv"]),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert f"{paths[bad_file]}:3: value_degC must be finite" in capsys.readouterr().err


# RunConfig field -> (config key, value); every field has a flag on some command.
RUN_OPTIONS = {
    "num_trees": ("trees", "7"),
    "mtry": ("mtry", "2"),
    "min_node_size": ("min_node_size", "3"),
    "sample_count": ("sample_count", "32"),
    "replace": ("replace", "yes"),
    "n_scenarios": ("scenarios", "3"),
    "train_days": ("train_days", "9"),
    "horizon_hours": ("horizon", "24"),
    "seed": ("seed", "11"),
    "levels": ("levels", "0.9,0.1,0.5"),
    "threshold": ("threshold", "-1.5"),
    "draws": ("draws", "50"),
    "min_training_rows": ("min_training_rows", "700"),
    "jobs": ("jobs", "2"),
}


_COMMON_FIELDS = sorted(
    set(RUN_OPTIONS) - {"n_scenarios", "horizon_hours", "levels", "threshold", "draws"}
)
# The RunConfig fields each command takes a flag for: only those it uses.
RUN_FLAGS_OF = {
    "train": _COMMON_FIELDS,
    "forecast": _COMMON_FIELDS + ["horizon_hours", "levels", "threshold", "draws"],
    "evaluate": _COMMON_FIELDS + ["n_scenarios", "horizon_hours", "levels"],
}
# Flags a command does not use, each with the arguments it needs to exit 0
# when the flag is accepted.
UNUSED_RUN_FLAGS = [
    ("train", "scenarios", "3", []),
    ("train", "horizon", "24", []),
    ("train", "threshold", "1.5", []),
    ("train", "draws", "50", []),
    ("train", "levels", "0.1,0.5,0.9", []),
    ("forecast", "scenarios", "3", ["--origin", "2020-02-05T00:00Z", "--draws", "20"]),
    ("evaluate", "draws", "50", ["--scenarios", "1", "--min-training-rows", "500"]),
    ("evaluate", "threshold", "1.5", ["--scenarios", "1", "--min-training-rows", "500"]),
]


class TestRunConfigFile:
    def test_every_flagged_field_is_listed(self):
        fields = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
        assert set(RUN_OPTIONS) == fields
        assert set().union(*RUN_FLAGS_OF.values()) == fields

    def test_each_command_declares_only_its_run_flags(self):
        fields = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command, expected in RUN_FLAGS_OF.items():
            dests = {a.dest for a in sub.choices[command]._actions}
            assert dests & fields == set(expected), command

    @pytest.mark.parametrize("field", sorted(RUN_OPTIONS))
    def test_file_value_equals_flag(self, tmp_path, field):
        key, value = RUN_OPTIONS[field]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        flag = ["--replace"] if key == "replace" else [f"--{key.replace('_', '-')}", value]
        default = pipeline.RunConfig()
        commands = [c for c, fields in RUN_FLAGS_OF.items() if field in fields]
        assert commands
        for command in commands:
            by_flag = _run_config(build_parser().parse_args([command, *flag]))
            by_file = _run_config(build_parser().parse_args([command, "--config", str(cfg)]))
            assert not np.array_equal(getattr(by_flag, field), getattr(default, field))
            for f in dataclasses.fields(default):
                assert np.array_equal(getattr(by_file, f.name), getattr(by_flag, f.name)), f.name

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value, needed", UNUSED_RUN_FLAGS)
    def test_unused_run_flag_is_usage_error(
        self, data_dir, tmp_path, capsys, via, command, key, value, needed
    ):
        out = tmp_path / "out"
        given = [f"--{key}", value]
        if via == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            given = ["--config", str(cfg)]
        assert main([command, *run_args(data_dir, out, [*needed, *given])]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word, expected", [("On", True), ("1", True), ("off", False)])
    def test_replace_words(self, tmp_path, word, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"replace={word}\n")
        args = build_parser().parse_args(["train", "--config", str(cfg)])
        assert _run_config(args).replace is expected

    def test_flag_wins_in_either_order(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees=9\nreplace=yes\nseed=3\n")
        for argv in (
            ["--config", str(cfg), "--trees", "5", "--no-replace"],
            ["--trees", "5", "--no-replace", "--config", str(cfg)],
        ):
            got = _run_config(build_parser().parse_args(["train", *argv]))
            assert (got.num_trees, got.replace, got.seed) == (5, False, 3)

    @pytest.mark.parametrize(
        "command, text, flags",
        [
            ("train", "replace=ture\n", []),
            ("evaluate", "save=x.npz\n", ["--scenarios", "1"]),
            ("train", "span_days=3\n", []),
            ("train", "trees=abc\n", ["--trees", "5"]),
            ("train", "config=other.cfg\n", []),
            ("train", "train-days=7\n", []),
        ],
    )
    def test_bad_file_is_config_error(self, data_dir, tmp_path, capsys, command, text, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), *run_args(data_dir, out, flags)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and text.split("=")[0] in err
        assert not out.exists()


# sha256 of the outputs written by generate --seed 55 --span-days 30, and of
# train, evaluate and forecast on that set; any change to a number or to row
# order shows here.
GOLDEN = {
    "data/forecasts.csv": "410ea54e16121577bb42ff987db9a4d8915c55994061eddf78fbdcb7fa0b167f",
    "data/observations.csv": "fca215a9e2e88d4af5ac4747be5d60d3d3b86dec0dbae6db70ad879a3610e9f5",
    "train/errors.csv": "eab945fc0ad6300068f599a3ab602066c08a6015f24c5ca6ba07c02f62be1b16",
    "train/oob_coverage.csv": "485fc5e314b7e5030bbeb1002d52cb404026c086bfec66b3272ce71137caa152",
    "evaluate/aggregates.csv": "91790c0ca79a20d09a9c682b4ac7b3235600c427e8423ac40709f1b58a9ebfa3",
    "evaluate/points.csv": "eae832b4061bfa63e8982697e24c762aff6ee22240ede8a4efc4b03adca59eb8",
    "evaluate/scenarios/scenario_000_raw.csv": "329b12e03b8197d7f9b520259b96d14f4f5f0d2d4e40abb840a03115c3862ada",
    "evaluate/scenarios/scenario_000_scores.csv": "09954219a2fd5df309c91478610a091a9567badb9579a2dd5e74564c6a441edc",
    "evaluate/scenarios/scenario_001_raw.csv": "2d7aa81d8586456474f812cffc62ad52ee67dddb82027c31dcc42164d1f3eb5e",
    "evaluate/scenarios/scenario_001_scores.csv": "1d98719c41fed4498d2b031eccb25eb39484af9c614755ae325765266a1bf805",
    "evaluate/summary.txt": "585b78c2bc00f322736d49076167fce4aae6e8e6f3e4e1e0250a0c08f76ce506",
    "forecast/cdf_probe.csv": "cc724a1a9e863164b467f8db390d36ce87f161c8d050908195ea907ab5d8bf18",
    "forecast/intervals.csv": "aa3a9672f974dae9888c62c571646450e5a5f20af641b63f4e5cae858c26bb36",
    "forecast/prob_below.csv": "476e7b5ce67cb37f45086858c5e728f2ba4594018424e0659f18889761ab3451",
    "forecast/quantiles.csv": "64522d0636b9e0ade7c8c55f0e80aae2e9146a66bec31bc8310afa001172d395",
    "forecast/samples.csv": "3bbf5e0904077756b943c08b973d6df9897ab5285eec96ff7420d1a22bad66a7",
}


def test_golden_outputs(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--seed", "55", "--span-days", "30", "--out", str(data)]) == 0
    inputs = [
        "--forecasts",
        str(data / "forecasts.csv"),
        "--observations",
        str(data / "observations.csv"),
    ]
    train = ["train", *inputs, "--train-days", "7", "--trees", "20"]
    train += ["--out", str(tmp_path / "train")]
    train += ["--dump-errors", str(tmp_path / "train" / "errors.csv")]
    assert main(train) == 0
    evaluate = ["evaluate", *inputs, "--scenarios", "2", "--trees", "20", "--train-days", "7"]
    assert main([*evaluate, "--out", str(tmp_path / "evaluate")]) == 0
    forecast = ["forecast", *inputs, "--trees", "20", "--train-days", "7", "--draws", "100"]
    forecast += ["--origin", "2020-01-20T00:00Z", "--threshold", "10", "--dump-cdf-hour", "52"]
    assert main([*forecast, "--out", str(tmp_path / "forecast")]) == 0
    digests = {
        rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in GOLDEN
    }
    assert digests == GOLDEN
