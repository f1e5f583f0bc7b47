"""Metamorphic invariances: a transformed input must give related outputs.

Row order: the loaders sort every row into one canonical order, and that
order fixes every seeded result downstream, so shuffling the data lines of
both CSVs leaves every report and product byte-identical.

Power-of-two scale: multiplying every temperature (and the threshold) by 2
is exact in binary, and the program has no absolute degC constant, so every
value in degC doubles bit for bit, every probability and hit is unchanged,
and every log score (a log density in 1/degC) shifts by ln 2.

Order-preserving rename: labels are coded in sorted order, so prefixing
every model id with one string keeps every code, and every report and
product is byte-identical once the label column and the forest archive's
``labels`` drop the prefix.  A rename that reorders labels is not
invariant: label codes break ties.
"""

import csv
import math
import random
import shutil

import numpy as np
import pytest

from probfcast.cli import main

ORIGIN = "2020-01-25T00:00Z"


def shuffle_lines(src, dst, seed):
    """Copy src to dst with its data lines (not the header) in random order."""
    header, *lines = src.read_bytes().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    dst.write_bytes(header + b"".join(lines))


def scale_values(src, dst, factor):
    """Copy src to dst with the last column (value_degC) of each data line times factor."""
    header, *lines = src.read_bytes().splitlines(keepends=True)
    scaled = []
    for line in lines:
        body = line.rstrip(b"\r\n")
        head, value = body.rsplit(b",", 1)
        scaled.append(head + b"," + repr(factor * float(value)).encode() + line[len(body) :])
    dst.write_bytes(header + b"".join(scaled))


def prefix_model_ids(src, dst, prefix):
    """Copy the forecasts CSV src to dst with prefix before each data line's model id."""
    header, *lines = src.read_bytes().splitlines(keepends=True)
    dst.write_bytes(header + b"".join(prefix + line for line in lines))


def run_commands(data, out, threshold="10"):
    inputs = ["--forecasts", str(data / "forecasts.csv")]
    inputs += ["--observations", str(data / "observations.csv")]
    train = ["train", *inputs, "--train-days", "7", "--trees", "20", "--out", str(out / "train")]
    train += ["--dump-errors", str(out / "train" / "errors.csv")]
    assert main(train) == 0
    evaluate = ["evaluate", *inputs, "--scenarios", "2", "--trees", "20", "--train-days", "7"]
    assert main([*evaluate, "--out", str(out / "evaluate")]) == 0
    forecast = ["forecast", *inputs, "--trees", "20", "--train-days", "7", "--draws", "100"]
    forecast += ["--origin", ORIGIN, "--dump-cdf-hour", "50", "--threshold", threshold]
    forecast += ["--out", str(out / "forecast")]
    assert main(forecast) == 0


def assert_same_outputs(a, b):
    """Every file under a equals its twin under b; timings are skipped and
    forest archives compared member by member (zip headers hold times)."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for rel in files:
        if rel.name == "timings.txt":
            continue
        if rel.suffix == ".npz":
            with np.load(a / rel) as x, np.load(b / rel) as y:
                assert sorted(x.files) == sorted(y.files), rel
                for name in x.files:
                    assert x[name].dtype == y[name].dtype, (rel, name)
                    assert x[name].tobytes() == y[name].tobytes(), (rel, name)
        else:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    root = tmp_path_factory.mktemp("canonical")
    generate = ["generate", "--seed", "55", "--span-days", "30", "--out", str(root / "data")]
    assert main(generate) == 0
    run_commands(root / "data", root / "out")
    return root


def test_row_order_of_both_inputs_changes_no_output(canonical, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for seed, name in enumerate(("forecasts.csv", "observations.csv")):
        shuffle_lines(canonical / "data" / name, data / name, seed)
        assert (data / name).read_bytes() != (canonical / "data" / name).read_bytes()
    run_commands(data, tmp_path / "out")
    assert_same_outputs(canonical / "out", tmp_path / "out")


# Per CSV column: "x2" doubles exactly, "ln2" shifts by ln 2, anything else is unchanged.
SCALED_COLUMNS = {
    "crps": "x2",
    "abs_err_median": "x2",
    "log_score": "ln2",
    "value_degC": "x2",
    "error_degC": "x2",
    "median": "x2",
    "lo80": "x2",
    "hi80": "x2",
    "lo95": "x2",
    "hi95": "x2",
}
# aggregates.csv rows by metric: how mean and sd move
SCALED_METRICS = {
    "crps": ("x2", "x2"),
    "abs_error_median": ("x2", "x2"),
    "log_score": ("ln2", "same"),
}
SCALED_SUMMARY = {
    "mean_crps": "x2",
    "mean_crps_raw": "x2",
    "mean_abs_err_median": "x2",
    "mean_abs_err_median_raw": "x2",
    "mean_log_score": "ln2",
    "mean_log_score_raw": "ln2",
}


def assert_related(a, b, rule, where):
    if rule == "x2":
        assert b == (a if a == "" else repr(2.0 * float(a))), where
    elif rule == "ln2":
        assert (a == "") == (b == ""), where
        if a:
            assert float(b) == pytest.approx(float(a) + math.log(2.0), rel=1e-9), where
    elif rule == "same" and a and b:
        assert float(b) == pytest.approx(float(a), rel=1e-9), where
    else:
        assert a == b, where


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_scaled_outputs(a, b):
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    checked = 0
    for rel in files:
        if rel.name == "timings.txt":
            continue
        if rel.suffix == ".npz":
            with np.load(a / rel) as x, np.load(b / rel) as y:
                assert x.files == y.files
                for name in x.files:
                    # the table's errors are the only degC member; splits are on lead and label
                    expected = 2.0 * x[name] if name == "table_error" else x[name]
                    assert expected.tobytes() == y[name].tobytes(), (rel, name)
            continue
        if rel.name == "summary.txt":
            lines = zip((a / rel).read_text().splitlines(), (b / rel).read_text().splitlines())
            for line_a, line_b in lines:
                key, va = line_a.split("=", 1)
                key_b, vb = line_b.split("=", 1)
                assert key == key_b
                assert_related(va, vb, SCALED_SUMMARY.get(key), (rel, key))
                checked += 1
            continue
        rows_a, rows_b = read_rows(a / rel), read_rows(b / rel)
        header = rows_a[0]
        assert rows_b[0] == header and len(rows_a) == len(rows_b), rel
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            rules = [SCALED_COLUMNS.get(column) for column in header]
            if rel.name == "aggregates.csv":
                metric = row_a[1].removeprefix("raw_")
                rules[2:4] = SCALED_METRICS.get(metric, (None, None))
            elif rel.name == "points.csv":
                rules[3] = "x2"
            elif rel.name == "cdf_probe.csv":
                rules = ["x2", None]
            for column, rule, va, vb in zip(header, rules, row_a, row_b):
                assert_related(va, vb, rule, (rel, column, row_a[0]))
                checked += 1
    assert checked > 100_000


def test_doubling_every_temperature_doubles_every_degc_output(canonical, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("forecasts.csv", "observations.csv"):
        scale_values(canonical / "data" / name, data / name, 2.0)
    run_commands(data, tmp_path / "out", threshold="20")
    assert_scaled_outputs(canonical / "out", tmp_path / "out")


def test_prefixing_every_model_id_changes_no_output_but_the_labels(canonical, tmp_path):
    prefix = "nwp."
    data = tmp_path / "data"
    data.mkdir()
    prefix_model_ids(canonical / "data" / "forecasts.csv", data / "forecasts.csv", prefix.encode())
    shutil.copy(canonical / "data" / "observations.csv", data / "observations.csv")
    out = tmp_path / "out"
    run_commands(data, out)
    # Map the labels back: the error dump's model_label column and the archive's labels.
    errors = read_rows(out / "train" / "errors.csv")
    assert errors[0] == ["lead_hours", "model_label", "error_degC"]
    for row in errors[1:]:
        assert row[1].startswith(prefix), row
        row[1] = row[1].removeprefix(prefix)
    with open(out / "train" / "errors.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(errors)
    archive = out / "train" / "forest.npz"
    with np.load(archive) as z:
        members = {name: z[name] for name in z.files}
    assert all(label.startswith(prefix) for label in members["labels"])
    members["labels"] = np.array([label.removeprefix(prefix) for label in members["labels"]])
    np.savez(archive, **members)
    assert_same_outputs(canonical / "out", out)
