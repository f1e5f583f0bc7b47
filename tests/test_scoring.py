import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    random_quantile_vector,
    reference_aggregate_by_lead,
    reference_build_cdf,
    reference_crps,
    reference_crps_ensemble,
    reference_log_score,
)
from probfcast.combine import DEFAULT_LEVELS, QuantileVector
from probfcast.dist import CDFTable, DegenerateDistributionError, PiecewiseCDF, build_cdf
from probfcast.scoring import (
    Scores,
    aggregate_by_lead,
    crps,
    crps_batch,
    crps_ensemble,
    crps_ensemble_batch,
    crps_mc,
    interval_coverage,
    interval_score,
    log_score,
    log_score_batch,
    mae_median,
)


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


def scores(leads, hits=(), crps_vals=1.0, log_vals=0.5, abs_errs=0.7, intervals=(0.5,)):
    """Scores rows at ``leads``; ``hits`` holds one row per lead, one entry per interval."""
    n = len(leads)
    return Scores(
        lead_hours=np.asarray(leads, dtype=np.int64),
        valid_hours=np.arange(n, dtype=np.int64),
        crps=np.broadcast_to(np.asarray(crps_vals, dtype=float), n).copy(),
        log_score=np.broadcast_to(np.asarray(log_vals, dtype=float), n).copy(),
        abs_error_median=np.broadcast_to(np.asarray(abs_errs, dtype=float), n).copy(),
        hits=np.asarray(hits, dtype=bool).reshape(n, len(intervals)),
        intervals=tuple(intervals),
    )


def aggregate_rows(s):
    """``aggregate_by_lead``'s columns as (lead, metric, mean, sd, n) rows."""
    return list(zip(*aggregate_by_lead(s)))


def by_metric(rows, metric):
    return [row for row in rows if row[1] == metric]


class TestCoverageAndMae:
    def test_all_hits(self):
        s = scores([1] * 5, [[True]] * 5, intervals=(0.95,))
        assert interval_coverage(s, 0.95) == 1.0

    def test_counts_fraction(self):
        s = scores([1] * 4, [[True], [True], [True], [False]])
        assert interval_coverage(s, 0.5) == 0.75

    def test_picks_the_column_of_its_interval(self):
        s = scores([1, 1], [[True, False], [True, True]], intervals=(0.5, 0.9))
        assert interval_coverage(s, 0.5) == 1.0
        assert interval_coverage(s, 0.9) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interval_coverage(scores([]), 0.5)
        with pytest.raises(ValueError):
            mae_median(scores([]))

    def test_mae_examples(self):
        assert mae_median(scores([1], [[True]], abs_errs=0.0)) == 0.0
        assert mae_median(scores([1, 1], [[True]] * 2, abs_errs=[1.0, 3.0])) == 2.0

    def test_calibrated_simulation_within_binomial_bounds(self):
        rng = np.random.default_rng(17)
        n, w = 10_000, 0.9
        s = scores([1] * n, (rng.random(n) < w)[:, None], intervals=(w,))
        cov = interval_coverage(s, w)
        half = 2.576 * np.sqrt(w * (1 - w) / n)  # 99% binomial bound
        assert abs(cov - w) < half


class TestAggregateByLead:
    def test_single_record_per_lead(self):
        rows = aggregate_rows(scores([1, 2, 3], [[True]] * 3, crps_vals=[1.0, 2.0, 3.0]))
        crps_rows = by_metric(rows, "crps")
        assert [r[0] for r in crps_rows] == [1, 2, 3]
        assert [r[2] for r in crps_rows] == [1.0, 2.0, 3.0]
        assert all(r[3] == 0.0 for r in crps_rows)

    def test_full_scale_shape(self):
        leads = [lead for _ in range(200) for lead in range(1, 169)]
        rows = aggregate_rows(scores(leads, [[True]] * len(leads)))
        assert [r[1] for r in rows[:4]] == ["abs_error_median", "crps", "hit50", "log_score"]
        assert len(rows) == 168 * 4
        assert all(r[4] == 200 for r in rows)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        leads = rng.integers(1, 20, size=200)
        s = scores(
            leads,
            (rng.random(200) < 0.8)[:, None],
            crps_vals=rng.random(200),
            intervals=(0.8,),
        )
        perm = rng.permutation(200)
        shuffled = Scores(
            s.lead_hours[perm],
            s.valid_hours[perm],
            s.crps[perm],
            s.log_score[perm],
            s.abs_error_median[perm],
            s.hits[perm],
            s.intervals,
        )
        a, b = aggregate_rows(s), aggregate_rows(shuffled)
        for x, y in zip(by_metric(a, "crps"), by_metric(b, "crps")):
            assert x[0] == y[0]
            assert x[2] == pytest.approx(y[2], rel=1e-12)

    def test_groups_keep_row_order(self):
        # crps 0.1, 0.2, 0.3 at lead 1 sum differently in other orders
        s = scores([2, 1, 1, 2, 1], [[True]] * 5, crps_vals=[5.0, 0.1, 0.2, 7.0, 0.3])
        lead_one = by_metric(aggregate_rows(s), "crps")[0]
        assert lead_one[2] == float(np.mean(np.array([0.1, 0.2, 0.3])))
        assert lead_one[3] == float(np.std(np.array([0.1, 0.2, 0.3]), ddof=1))

    def test_nan_log_scores_excluded_from_their_metric_only(self):
        s = scores([1, 1], [[True], [True]], log_vals=[0.5, float("nan")])
        rows = {r[1]: r for r in aggregate_rows(s)}
        assert rows["log_score"][4] == 1
        assert rows["crps"][4] == 2
        assert rows["log_score"][2] == 0.5

    def test_no_hit_columns_for_the_raw_comparator(self):
        rows = aggregate_rows(scores([1, 2], intervals=()))
        assert {r[1] for r in rows} == {"abs_error_median", "crps", "log_score"}


class TestScoresInvariants:
    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            scores([1], [[True]], crps_vals=-0.1)
        with pytest.raises(ValueError):
            scores([1], [[True]], abs_errs=-0.5)

    def test_rejects_nan_crps_and_abs_error_but_not_log_score(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            scores([1, 2], [[True]] * 2, crps_vals=[1.0, nan])
        with pytest.raises(ValueError):
            scores([1, 2], [[True]] * 2, abs_errs=[nan, 0.5])
        assert np.isnan(scores([1], [[True]], log_vals=nan).log_score[0])

    def test_rejects_unequal_columns(self):
        s = scores([1, 2], [[True], [False]])
        with pytest.raises(ValueError):
            Scores(s.lead_hours, s.valid_hours, s.crps[:1], s.log_score, s.abs_error_median, s.hits)
        with pytest.raises(ValueError):
            Scores(
                s.lead_hours,
                s.valid_hours,
                s.crps,
                s.log_score,
                s.abs_error_median,
                s.hits,
                intervals=(0.5, 0.9),
            )

    def test_concat_keeps_row_order(self):
        a = scores([3, 1], [[True], [False]], crps_vals=[1.0, 2.0])
        b = scores([2], [[True]], crps_vals=4.0)
        both = Scores.concat([a, b])
        assert both.lead_hours.tolist() == [3, 1, 2]
        assert both.crps.tolist() == [1.0, 2.0, 4.0]
        assert both.hits.tolist() == [[True], [False], [True]]
        with pytest.raises(ValueError):
            Scores.concat([a, scores([1], intervals=())])


# Rows of knots on LEV7 (open: both tails carry mass), LEV7_CLOSED (neither
# does) or LEV13 (enough segments that a pairwise sum would add in another
# order than a sequential one): millidegree values from a small pool, so
# tied runs are common, or values from a wide range, or one point mass.
LEV7 = np.array([0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975])
LEV7_CLOSED = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
LEV13 = np.array([0.01, 0.025, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99])
millideg = st.integers(-40_000, 40_000).map(lambda n: n / 1000.0)


def knot_rows(size):
    return st.one_of(
        st.lists(millideg, min_size=2, max_size=3, unique=True).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=size, max_size=size)
        ),
        st.lists(st.floats(-50.0, 50.0), min_size=size, max_size=size),
        millideg.map(lambda v: [v] * size),
    ).map(np.sort)


@st.composite
def scored_tables(draw):
    """A table of knot rows and one observation per row: at a knot (a tied
    run's value included), just beside one, in either tail, or anywhere."""
    levels = draw(st.sampled_from([LEV7, LEV7_CLOSED, LEV13]))
    values = np.array(draw(st.lists(knot_rows(levels.size), min_size=1, max_size=6)))
    y = []
    for row in values:
        lo, hi = float(row[0]), float(row[-1])
        y.append(
            draw(
                st.one_of(
                    st.sampled_from(row.tolist()),
                    st.sampled_from(row.tolist()).map(lambda v: float(np.nextafter(v, np.inf))),
                    st.floats(lo - 30.0, lo),
                    st.floats(hi, hi + 30.0),
                    st.floats(-80.0, 80.0),
                )
            )
        )
    return levels, values, np.array(y)


@st.composite
def lead_score_tables(draw):
    """Scores of 1-250 rows per lead, the leads' rows shuffled together, with
    NaN and a few infinite log scores, and one lead whose log scores are all
    NaN.  Values span six decades, so sums of them round."""
    counts = draw(st.lists(st.integers(1, 250), min_size=1, max_size=6))
    intervals = draw(st.sampled_from([(), (0.5,), (0.5, 0.8, 0.9, 0.95)]))
    nan_share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leads = np.repeat(rng.choice(np.arange(1, 169), len(counts), replace=False), counts)
    rng.shuffle(leads)
    n = leads.size
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    log = rng.normal(size=n) * scale
    log[rng.random(n) < nan_share] = np.nan
    log[rng.random(n) < 0.02] = -np.inf
    log[leads == leads[0]] = np.nan
    return Scores(
        leads,
        np.arange(n),
        rng.exponential(size=n) * scale,
        log,
        rng.exponential(size=n),
        rng.random((n, len(intervals))) < 0.8,
        intervals,
    )


class TestBatchedAgainstReference:
    """The batched score kernels and the per-lead aggregation equal the
    per-hour and per-lead references bit for bit."""

    @given(lead_score_tables())
    def test_aggregate_by_lead(self, s):
        lead, metric, mean, sd, n = aggregate_by_lead(s)
        ref_lead, ref_metric, ref_mean, ref_sd, ref_n = zip(*reference_aggregate_by_lead(s))
        assert lead.tolist() == list(ref_lead)
        assert metric == list(ref_metric)
        assert mean.tobytes() == np.array(ref_mean).tobytes()
        assert sd.tobytes() == np.array(ref_sd).tobytes()
        assert n.tolist() == list(ref_n)

    # a drawn width may be subnormal: the table's slope then overflows, quietly
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(scored_tables())
    def test_crps_and_log_score(self, case):
        levels, values, y = case
        table = CDFTable.from_quantiles(levels, values)
        refs = [reference_build_cdf(levels, v) for v in values]
        expected = [reference_crps(r, t) for r, t in zip(refs, y.tolist())]
        assert crps_batch(table, y).tolist() == expected
        expected_log = np.array([reference_log_score(r, t) for r, t in zip(refs, y.tolist())])
        assert log_score_batch(table, y).tobytes() == expected_log.tobytes()
        for i, t in enumerate(y.tolist()):
            d = table.row(i)
            assert crps(d, t) == expected[i]
            if not d.is_degenerate:
                assert log_score(d, t) == expected_log[i]

    @given(
        st.integers(1, 20).flatmap(
            lambda k: st.lists(
                st.lists(st.floats(-50.0, 50.0), min_size=k, max_size=k), min_size=1, max_size=5
            )
        ),
        st.floats(-80.0, 80.0),
    )
    def test_crps_ensemble(self, members, y):
        members = np.array(members)
        ys = y + np.arange(len(members), dtype=float)
        expected = [reference_crps_ensemble(m, t) for m, t in zip(members, ys.tolist())]
        assert crps_ensemble_batch(members, ys).tolist() == expected
        assert [crps_ensemble(m, t) for m, t in zip(members, ys.tolist())] == expected
