"""Metamorphic invariances: a transformed input must give identical outputs.

Row order: the loaders sort every row into one canonical order, and that
order fixes every seeded result downstream, so shuffling the data lines of
both CSVs leaves every report and product byte-identical.
"""

import random

import numpy as np
import pytest

from probfcast.cli import main

ORIGIN = "2020-01-25T00:00Z"


def shuffle_lines(src, dst, seed):
    """Copy src to dst with its data lines (not the header) in random order."""
    header, *lines = src.read_bytes().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    dst.write_bytes(header + b"".join(lines))


def run_commands(data, out):
    inputs = ["--forecasts", str(data / "forecasts.csv")]
    inputs += ["--observations", str(data / "observations.csv")]
    train = ["train", *inputs, "--train-days", "7", "--trees", "20", "--out", str(out / "train")]
    train += ["--dump-errors", str(out / "train" / "errors.csv")]
    assert main(train) == 0
    evaluate = ["evaluate", *inputs, "--scenarios", "2", "--trees", "20", "--train-days", "7"]
    assert main([*evaluate, "--out", str(out / "evaluate")]) == 0
    forecast = ["forecast", *inputs, "--trees", "20", "--train-days", "7", "--draws", "100"]
    forecast += ["--origin", ORIGIN, "--dump-cdf-hour", "50", "--out", str(out / "forecast")]
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
