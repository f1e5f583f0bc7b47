from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from helpers import random_quantile_vector
from probfcast.combine import DEFAULT_LEVELS, QuantileVector
from probfcast.dist import DegenerateDistributionError, PiecewiseCDF, build_cdf
from probfcast.scoring import (
    ScoreRecord,
    aggregate_by_lead,
    crps,
    crps_ensemble,
    crps_mc,
    interval_coverage,
    interval_score,
    log_score,
    mae_median,
)

T0 = datetime(2020, 2, 1, tzinfo=timezone.utc)


def uniform01():
    return PiecewiseCDF.from_knots([0.0, 1.0], [0.0, 1.0])


def point_mass(v):
    return PiecewiseCDF(np.array([v]), np.array([1.0]))


def random_dist(rng):
    return build_cdf(
        QuantileVector(DEFAULT_LEVELS, random_quantile_vector(rng, DEFAULT_LEVELS))
    )


class TestCrps:
    def test_uniform_at_zero_is_one_third(self):
        assert crps(uniform01(), 0.0) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_point_mass_is_absolute_error(self):
        assert crps(point_mass(2.0), 2.0) == 0.0
        assert crps(point_mass(2.0), 5.5) == 3.5
        assert crps(point_mass(2.0), -1.0) == 3.0

    def test_matches_monte_carlo_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = random_dist(rng)
            y = float(rng.uniform(d.values[0] - 3, d.values[-1] + 3))
            exact = crps(d, y)
            estimates = np.array([crps_mc(d, y, 20_000, seed=s) for s in range(10)])
            se = estimates.std(ddof=1) / np.sqrt(estimates.size)
            assert abs(exact - estimates.mean()) < 4 * se + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_jump_adds_no_integral(self):
        # Mass-free tails and a jump from 0.3 to 0.6 at x = 1: the exact CRPS
        # equals a fine trapezoid of (F(x) - 1{x >= y})^2 over [0, 2].
        d = PiecewiseCDF.from_knots([0.0, 1.0, 1.0, 2.0], [0.0, 0.3, 0.6, 1.0])
        xs = np.linspace(0.0, 2.0, 400_001)
        for y in (0.4, 1.0, 1.7):
            g = (d.cdf(xs) - (xs >= y)) ** 2
            numeric = float(np.sum((g[1:] + g[:-1]) * np.diff(xs)) / 2.0)
            assert crps(d, y) == pytest.approx(numeric, abs=1e-5)

    def test_nonnegative_and_translation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            vals = random_quantile_vector(rng, DEFAULT_LEVELS)
            d = build_cdf(QuantileVector(DEFAULT_LEVELS, vals))
            y = float(rng.uniform(vals[0] - 5, vals[-1] + 5))
            c = float(rng.uniform(-40, 40))
            base = crps(d, y)
            assert base >= 0.0
            shifted = crps(build_cdf(QuantileVector(DEFAULT_LEVELS, vals + c)), y + c)
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestCrpsMc:
    def test_point_mass_exact_for_any_n(self):
        for n in (2, 10, 1000):
            assert crps_mc(point_mass(1.0), 4.0, n, seed=0) == 3.0

    def test_deterministic_given_seed(self):
        d = uniform01()
        assert crps_mc(d, 0.3, 5000, seed=4) == crps_mc(d, 0.3, 5000, seed=4)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            crps_mc(uniform01(), 0.0, 1, seed=0)


class TestCrpsEnsemble:
    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = rng.normal(0, 2, size=rng.integers(1, 9))
            y = float(rng.normal(0, 2))
            t1 = np.mean(np.abs(m - y))
            t2 = np.mean(np.abs(m[:, None] - m[None, :]))
            assert crps_ensemble(m, y) == pytest.approx(t1 - 0.5 * t2, abs=1e-12)

    def test_single_member_is_absolute_error(self):
        assert crps_ensemble([4.0], 1.5) == 2.5


class TestLogScore:
    def test_uniform_interior(self):
        assert log_score(uniform01(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            log_score(point_mass(1.0), 1.0)

    def test_grows_linearly_in_tail(self):
        d = build_cdf(
            QuantileVector(np.array([0.025, 0.5, 0.975]), np.array([-1.0, 0.0, 1.0]))
        )
        s1 = log_score(d, 5.0)
        s2 = log_score(d, 9.0)
        assert (s2 - s1) / 4.0 == pytest.approx(d.upper_rate, rel=1e-9)

    def test_matches_finite_difference_of_cdf(self):
        # Probes sit inside a knot interval and in the shallow tail, where
        # the CDF still has enough floating-point resolution for a central
        # difference with step 1e-6.
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(5):
            d = random_dist(rng)
            for y in (float(d.quantile(0.4)) + 1e-3, float(d.quantile(0.995))):
                fd = -np.log((d.cdf(y + h) - d.cdf(y - h)) / (2 * h))
                assert log_score(d, y) == pytest.approx(fd, abs=1e-6)


class TestQuantileAndIntervalScores:
    def test_interval_score_inside_equals_width(self):
        d = uniform01()
        lo, hi = d.quantile(0.1), d.quantile(0.9)
        assert interval_score(d, 0.5, 0.8) == pytest.approx(hi - lo, abs=1e-12)

    def test_interval_score_matches_direct_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = random_dist(rng)
            w = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
            y = float(rng.uniform(d.values[0] - 4, d.values[-1] + 4))
            alpha = 1.0 - w
            lo, hi = float(d.quantile(alpha / 2)), float(d.quantile(1 - alpha / 2))
            expected = (hi - lo) + (2 / alpha) * max(lo - y, 0.0) + (2 / alpha) * max(y - hi, 0.0)
            assert interval_score(d, y, w) == pytest.approx(expected, rel=1e-12)


def record(lead, hits=None, crps_val=1.0, log_val=0.5, abs_err=0.7, hour_offset=0):
    return ScoreRecord(
        valid_time=T0 + timedelta(hours=hour_offset),
        lead_hours=lead,
        crps=crps_val,
        log_score=log_val,
        abs_error_median=abs_err,
        interval_hits=hits or {},
    )


class TestCoverageAndMae:
    def test_all_hits(self):
        recs = [record(1, {0.95: True}) for _ in range(5)]
        assert interval_coverage(recs, 0.95) == 1.0

    def test_counts_fraction(self):
        hits = [True, True, True, False]
        recs = [record(1, {0.5: h}) for h in hits]
        assert interval_coverage(recs, 0.5) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interval_coverage([], 0.5)
        with pytest.raises(ValueError):
            mae_median([])

    def test_mae_examples(self):
        assert mae_median([record(1, abs_err=0.0)]) == 0.0
        assert mae_median([record(1, abs_err=1.0), record(1, abs_err=3.0)]) == 2.0

    def test_calibrated_simulation_within_binomial_bounds(self):
        rng = np.random.default_rng(17)
        n, w = 10_000, 0.9
        recs = [record(1, {w: bool(rng.random() < w)}) for _ in range(n)]
        cov = interval_coverage(recs, w)
        half = 2.576 * np.sqrt(w * (1 - w) / n)  # 99% binomial bound
        assert abs(cov - w) < half


class TestAggregateByLead:
    def test_single_record_per_lead(self):
        recs = [record(lead, {0.95: True}, crps_val=float(lead)) for lead in (1, 2, 3)]
        aggs = aggregate_by_lead(recs)
        assert [a.lead_hours for a in aggs] == [1, 2, 3]
        assert [a.means["crps"] for a in aggs] == [1.0, 2.0, 3.0]
        assert all(a.sds["crps"] == 0.0 for a in aggs)

    def test_full_scale_shape(self):
        recs = [
            record(lead, {0.95: True}, hour_offset=s * 200 + lead)
            for s in range(200)
            for lead in range(1, 169)
        ]
        aggs = aggregate_by_lead(recs)
        assert len(aggs) == 168
        assert all(a.n == 200 for a in aggs)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        recs = [
            record(int(lead), {0.8: bool(rng.random() < 0.8)}, crps_val=float(rng.random()))
            for lead in rng.integers(1, 20, size=200)
        ]
        a = aggregate_by_lead(recs)
        shuffled = list(recs)
        rng.shuffle(shuffled)
        b = aggregate_by_lead(shuffled)
        for x, y in zip(a, b):
            assert x.lead_hours == y.lead_hours
            assert x.means["crps"] == pytest.approx(y.means["crps"], rel=1e-12)

    def test_nan_log_scores_excluded_from_their_metric_only(self):
        recs = [record(1, {0.5: True}), record(1, {0.5: True}, log_val=float("nan"))]
        agg = aggregate_by_lead(recs)[0]
        assert agg.counts["log_score"] == 1
        assert agg.counts["crps"] == 2
        assert agg.means["log_score"] == 0.5


class TestScoreRecordInvariants:
    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            record(1, crps_val=-0.1)
        with pytest.raises(ValueError):
            record(1, abs_err=-0.5)
