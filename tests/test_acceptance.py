"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line.  The calibration gates run on a seeded
90-day synthetic dataset with the seven-model roster (including the
12-member ensemble); oracle gates run against closed forms, Monte Carlo,
and brute-force definitions.
"""

import time

import numpy as np
import pytest
from scipy import stats

from helpers import (
    ErrorSample,
    forecast_records,
    integrate_density,
    ks_statistic,
    observation_records,
    random_quantile_vector,
    table_from_samples,
)
from probfcast.combine import DEFAULT_LEVELS, QuantileVector, vincentize
from probfcast.dist import PiecewiseCDF, build_cdf
from probfcast.error_model import build_error_table, rank_label_members
from probfcast.ingest import Dataset, slice_scenario
from probfcast.pipeline import RunConfig, admissible_origins, draw_origins, run_scenarios
from probfcast.qrf import CovariateVector, ForestConfig, predict_quantiles, predict_weights, train
from probfcast.scoring import Scores, crps, crps_mc, interval_coverage
from probfcast.synth import SynthConfig, synthesize_dataset

DATASET_SEED = 55
EVAL_CONFIG = RunConfig(n_scenarios=50, seed=21)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(SynthConfig(span_days=90), seed=DATASET_SEED)


@pytest.fixture(scope="module")
def evaluation(dataset):
    t0 = time.perf_counter()
    results = run_scenarios(dataset, EVAL_CONFIG)
    wall = time.perf_counter() - t0
    return results, wall


@pytest.fixture(scope="module")
def training_table(dataset):
    origin = admissible_origins(dataset, EVAL_CONFIG)[0]
    train_ds, _ = slice_scenario(dataset, origin)
    return build_error_table(
        Dataset(rank_label_members(train_ds.forecasts), train_ds.observations)
    )


def lead_bin_means(scores):
    leads, vals = scores.lead_hours, scores.crps
    means = []
    for b in range(7):
        m = (leads >= b * 24) & (leads < (b + 1) * 24) if b < 6 else (leads >= 144)
        means.append(float(vals[m].mean()))
    return np.array(means)


def test_criterion_1_calibration_bands(evaluation):
    results, wall = evaluation
    scores = Scores.concat([res.scores for res in results])
    cov95 = interval_coverage(scores, 0.95)
    cov80 = interval_coverage(scores, 0.8)
    ok = 0.92 <= cov95 <= 0.98 and 0.75 <= cov80 <= 0.85 and wall < 300.0
    report(
        "criterion 1 (calibration bands)",
        ok,
        f"95% coverage {cov95:.4f} in [0.92, 0.98]; 80% coverage {cov80:.4f} "
        f"in [0.75, 0.85]; 50-scenario run took {wall:.0f}s (< 300s)",
    )


def test_criterion_2_oob_calibration(training_table):
    forest = train(training_table, ForestConfig(seed=11))
    from probfcast.qrf import oob_coverage

    oob = oob_coverage(forest)
    nominal = np.array(oob.intervals)
    worst = 0.0
    for b in range(7):
        m = (
            (oob.lead_hours >= b * 24) & (oob.lead_hours < (b + 1) * 24)
            if b < 6
            else (oob.lead_hours >= 144)
        )
        n = oob.n_rows[m]
        cov = (oob.coverage[m] * n[:, None]).sum(axis=0) / n.sum()
        worst = max(worst, float(np.abs(cov - nominal).max()))
    report(
        "criterion 2 (OOB coverage per 24h lead bin)",
        worst <= 0.05,
        f"max |coverage - nominal| = {worst:.3f} (<= 0.05) over 7 bins x "
        f"{len(oob.intervals)} intervals on {training_table.n_rows} rows",
    )


def test_criterion_3_training_throughput():
    rng = np.random.default_rng(40)
    n = 50_000
    leads = rng.integers(0, 169, size=n)
    labels = [f"m{int(i)}" for i in rng.integers(0, 18, size=n)]
    errors = rng.normal(0.0, 1.0 + leads / 84.0)
    table = table_from_samples(
        ErrorSample(int(t), lab, float(e)) for t, lab, e in zip(leads, labels, errors)
    )
    t0 = time.perf_counter()
    train(table, ForestConfig(num_trees=250, sample_count=128, min_node_size=1, seed=1))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (training throughput)",
        elapsed < 10.0,
        f"250 trees x 128-row subsamples on {n} rows in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_vincentization_gaussian_oracle():
    a = QuantileVector(DEFAULT_LEVELS, stats.norm.ppf(DEFAULT_LEVELS, 0.0, 1.0))
    b = QuantileVector(DEFAULT_LEVELS, stats.norm.ppf(DEFAULT_LEVELS, 2.0, 3.0))
    out = vincentize(DEFAULT_LEVELS, np.vstack([a.values, b.values])).values
    expected = stats.norm.ppf(DEFAULT_LEVELS, 1.0, 2.0)
    worst = float(np.abs(out - expected).max())
    report(
        "criterion 4 (Vincentization Gaussian oracle)",
        worst <= 1e-9,
        f"max |combined - N(1,2) quantile| = {worst:.2e} (<= 1e-9) "
        f"over the {DEFAULT_LEVELS.size}-level grid",
    )


def test_criterion_5_crps_oracles():
    uniform = PiecewiseCDF.from_knots([0.0, 1.0], [0.0, 1.0])
    uniform_err = abs(crps(uniform, 0.0) - 1.0 / 3.0)

    point = PiecewiseCDF(np.array([2.0]), np.array([1.0]))
    point_exact = crps(point, 5.5) == 3.5 and crps(point, 2.0) == 0.0

    rng = np.random.default_rng(41)
    batches, batch_n = 20, 50_000
    mc_ok = True
    worst_sigma = 0.0
    for i in range(50):
        d = build_cdf(QuantileVector(DEFAULT_LEVELS, random_quantile_vector(rng, DEFAULT_LEVELS)))
        y = float(rng.uniform(d.values[0] - 3, d.values[-1] + 3))
        exact = crps(d, y)
        ests = np.array([crps_mc(d, y, batch_n, seed=1000 * i + b) for b in range(batches)])
        se = float(ests.std(ddof=1) / np.sqrt(batches))
        sigmas = abs(exact - float(ests.mean())) / se
        worst_sigma = max(worst_sigma, sigmas)
        mc_ok = mc_ok and sigmas <= 4.0
    ok = uniform_err <= 1e-9 and point_exact and mc_ok
    report(
        "criterion 5 (CRPS oracles)",
        ok,
        f"uniform error {uniform_err:.2e} (<= 1e-9); point mass exact: {point_exact}; "
        f"closed vs 1e6-draw MC worst deviation {worst_sigma:.2f} se (<= 4) on 50 dists",
    )


def test_criterion_6_distribution_integrity():
    rng = np.random.default_rng(42)
    worst_mass = 0.0
    worst_rt = 0.0
    worst_ks = 0.0
    probe_levels = np.array([0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999])
    for i in range(100):
        d = build_cdf(QuantileVector(DEFAULT_LEVELS, random_quantile_vector(rng, DEFAULT_LEVELS)))
        worst_mass = max(worst_mass, abs(integrate_density(d) - 1.0))
        xs = d.quantile(probe_levels)
        worst_rt = max(worst_rt, float(np.abs(d.cdf(xs) - probe_levels).max()))
        interior = np.linspace(d.values[0], d.values[-1], 31)[1:-1]
        worst_rt = max(worst_rt, float(np.abs(d.quantile(d.cdf(interior)) - interior).max()))
        worst_ks = max(worst_ks, ks_statistic(d, d.sample(100_000, seed=i)))
    ok = worst_mass <= 1e-6 and worst_rt <= 1e-9 and worst_ks < 0.01
    report(
        "criterion 6 (distribution integrity)",
        ok,
        f"over 100 random vectors: worst |mass-1| {worst_mass:.2e} (<= 1e-6); "
        f"worst round-trip {worst_rt:.2e} (<= 1e-9); worst KS {worst_ks:.4f} (< 0.01)",
    )


def test_criterion_7_qrf_correctness():
    rng = np.random.default_rng(43)
    # deterministic label-keyed response, every combination in every sample
    n = 150
    leads = rng.integers(0, 169, size=n)
    labels = [("glm", "ukv", "enuk_r1")[i % 3] for i in range(n)]
    truth = {"glm": 7.0, "ukv": -3.0, "enuk_r1": 0.25}
    table = table_from_samples(
        ErrorSample(int(t), lab, truth[lab]) for t, lab in zip(leads, labels)
    )
    forest = train(table, ForestConfig(num_trees=60, mtry=2, sample_count=n, seed=2))
    recovered = all(
        np.array_equal(
            predict_quantiles(forest, CovariateVector(int(t), lab), DEFAULT_LEVELS).values,
            np.full(DEFAULT_LEVELS.size, truth[lab]),
        )
        for lab in truth
        for t in (0, 17, 84, 168)
    )

    noisy = table_from_samples(
        ErrorSample(int(t), f"m{int(g)}", float(e))
        for t, g, e in zip(
            rng.integers(0, 169, size=3000),
            rng.integers(0, 5, size=3000),
            rng.normal(0, 2, size=3000),
        )
    )
    noisy_forest = train(noisy, ForestConfig(seed=3))
    weight_err = 0.0
    monotone = True
    for _ in range(1000):
        x = CovariateVector(int(rng.integers(0, 169)), f"m{int(rng.integers(0, 5))}")
        q = predict_quantiles(noisy_forest, x, DEFAULT_LEVELS)
        monotone = monotone and bool(np.all(np.diff(q.values) >= 0))
    for _ in range(25):
        x = CovariateVector(int(rng.integers(0, 169)), f"m{int(rng.integers(0, 5))}")
        w = predict_weights(noisy_forest, x)
        weight_err = max(weight_err, abs(float(w.sum()) - 1.0))

    twin = train(noisy, ForestConfig(seed=3))
    # Every joined forest array and both per-tree count arrays, bit for bit.
    a, b = (
        {**vars(f.arrays), "node_counts": f.node_counts, "cat_counts": f.cat_counts}
        for f in (noisy_forest, twin)
    )
    identical = a.keys() == b.keys() and all(
        (a[k].dtype, a[k].shape, a[k].tobytes()) == (b[k].dtype, b[k].shape, b[k].tobytes())
        for k in a
    )

    ok = recovered and weight_err <= 1e-12 and monotone and identical
    report(
        "criterion 7 (QRF correctness)",
        ok,
        f"exact label-keyed recovery: {recovered}; max |sum(w)-1| {weight_err:.1e} "
        f"(<= 1e-12); monotone on 1000 queries: {monotone}; "
        f"bit-identical forests under fixed seed: {identical}",
    )


def test_criterion_8_skill_ordering(evaluation):
    results, _ = evaluation
    post_bins = lead_bin_means(Scores.concat([res.scores for res in results]))
    raw_bins = lead_bin_means(Scores.concat([res.raw_scores for res in results]))
    post_mean = float(post_bins.mean())
    raw_mean = float(raw_bins.mean())
    ok = post_mean <= raw_mean and post_bins[6] > post_bins[0]
    report(
        "criterion 8 (skill ordering)",
        ok,
        f"bin-averaged CRPS post {post_mean:.3f} <= raw {raw_mean:.3f}; "
        f"CRPS grows with range: bin[144,168] {post_bins[6]:.3f} > bin[0,24] {post_bins[0]:.3f}",
    )


def test_criterion_9_no_leakage(dataset, evaluation):
    origins = draw_origins(dataset, EVAL_CONFIG)
    clean = True
    for origin in origins:
        train_ds, _ = slice_scenario(dataset, origin, EVAL_CONFIG.train_days)
        latest_obs = max(o.valid_time for o in observation_records(train_ds.observations))
        latest_fc = max(f.valid_time for f in forecast_records(train_ds.forecasts))
        clean = clean and latest_obs < origin and latest_fc < origin
    report(
        "criterion 9 (no training leakage)",
        clean,
        f"all {len(origins)} scenario training slices end strictly before their origin",
    )
