import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    density,
    integrate_density,
    ks_statistic,
    random_quantile_vector,
    reference_build_cdf,
    reference_cdf,
    reference_crps,
    reference_log_density,
    reference_prob_below,
    reference_quantile,
    reference_sample,
)
from probfcast.combine import DEFAULT_LEVELS, QuantileVector
from probfcast.dist import (
    _FALLBACK_TAIL_SCALE,
    CDFTable,
    _count_not_above,
    _padded_cumsum,
    DegenerateDistributionError,
    PiecewiseCDF,
    build_cdf,
)
from probfcast.scoring import crps, crps_batch, crps_mc

pytestmark = pytest.mark.simd


def simple_dist():
    return build_cdf(
        QuantileVector(np.array([0.025, 0.5, 0.975]), np.array([-1.0, 0.0, 1.0]))
    )


# Millidegree-grid values: duplicates stay possible but gaps are far above
# float resolution, so a shift by c <= 100 cannot absorb them.
sorted_vals = st.lists(
    st.integers(-40_000, 40_000).map(lambda n: n / 1000.0), min_size=5, max_size=5
).map(sorted)
LEV5 = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
LEV9 = np.array([0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975])
# Nine millidegree values drawn from a pool of two to four, so runs of equal
# values (ties) are common, at either end as well as inside.
tied_vals = (
    st.lists(st.integers(-40_000, 40_000), min_size=2, max_size=4, unique=True)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=9, max_size=9))
    .map(lambda ns: np.sort(np.array(ns) / 1000.0))
    .filter(lambda v: v[0] < v[-1])
)


class TestBuildCdf:
    def test_median_knot(self):
        d = simple_dist()
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_knot_exact(self):
        d = simple_dist()
        assert d.cdf(-1.0) == 0.025
        assert d.cdf(1.0) == 0.975

    def test_tail_rates_match_boundary_density(self):
        d = simple_dist()
        seg0 = (0.5 - 0.025) / 1.0
        assert d.lower_rate == pytest.approx(seg0 / 0.025)
        assert density(d, np.nextafter(-1.0, -2.0)) == pytest.approx(seg0, rel=1e-9)
        seg_last = (0.975 - 0.5) / 1.0
        assert density(d, np.nextafter(1.0, 2.0)) == pytest.approx(seg_last, rel=1e-9)
        assert density(d, 1.0) == pytest.approx(seg_last, rel=1e-9)  # continuous at the knot

    @pytest.mark.filterwarnings("error")
    @given(tied_vals)
    def test_knot_rule_on_tied_values(self, values):
        d = build_cdf(QuantileVector(LEV9, values))
        # The distribution passes through every knot, tied or not.
        np.testing.assert_array_equal(d.quantile(LEV9), values)
        xs = np.concatenate([np.linspace(values[0], values[-1], 201), values])
        np.testing.assert_allclose(d.cdf(xs), np.interp(xs, values, LEV9), rtol=0, atol=1e-12)
        jumps = 0.0
        for u in np.unique(values):
            run = np.flatnonzero(values == u)
            if run.size > 1:
                assert d.cdf(u) == LEV9[run[-1]]
                jumps += LEV9[run[-1]] - LEV9[run[0]]
        assert integrate_density(d, n_interior=2_000) + jumps == pytest.approx(1.0, abs=1e-6)

    def test_point_mass_needs_one_knot(self):
        with pytest.raises(ValueError):
            PiecewiseCDF.from_knots([2.0, 2.0], [0.3, 0.6])
        with pytest.raises(ValueError):
            PiecewiseCDF.from_knots([2.0, 1.0], [0.3, 0.6])

    def test_unit_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = build_cdf(
                QuantileVector(DEFAULT_LEVELS, random_quantile_vector(rng, DEFAULT_LEVELS))
            )
            assert integrate_density(d) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_collapses_to_point_mass(self):
        d = build_cdf(QuantileVector(LEV5, np.full(5, 2.5)))
        assert d.is_degenerate
        assert d.cdf(2.4) == 0.0 and d.cdf(2.5) == 1.0
        assert d.quantile(0.01) == 2.5 and d.quantile(0.99) == 2.5
        np.testing.assert_array_equal(d.sample(4, seed=0), np.full(4, 2.5))
        with pytest.raises(DegenerateDistributionError):
            density(d, 2.5)


# The subnormal widths overflow by design; every site that divides by one
# must keep that overflow quiet, so a warning fails these tests.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTailRateFallback:
    """A boundary segment of subnormal width has an infinite slope, so its
    tail takes the fallback rate: the tail mass over ``_FALLBACK_TAIL_SCALE``."""

    LEVELS = np.array([0.1, 0.5, 0.9])
    LOWER = np.array([0.0, 5e-324, 1.0])  # the lower branch
    UPPER = np.array([-1.0, 0.0, 5e-324])  # the upper branch

    def test_lower_branch(self):
        d = build_cdf(QuantileVector(self.LEVELS, self.LOWER))
        assert d.lower_rate == 0.1 / _FALLBACK_TAIL_SCALE
        assert d.upper_rate == (0.9 - 0.5) / (1.0 - 5e-324) / (1.0 - 0.9)
        assert d.quantile(0.05) == 0.0 + math.log(0.05 / 0.1) / d.lower_rate
        assert d.cdf(-1.0) == 0.1 * math.exp(d.lower_rate * -1.0)

    def test_upper_branch(self):
        d = build_cdf(QuantileVector(self.LEVELS, self.UPPER))
        assert d.lower_rate == (0.5 - 0.1) / (0.0 - -1.0) / 0.1
        assert d.upper_rate == (1.0 - 0.9) / _FALLBACK_TAIL_SCALE
        assert d.quantile(0.95) == 5e-324 - math.log((1.0 - 0.95) / (1.0 - 0.9)) / d.upper_rate
        assert d.cdf(1.0) == 1.0 - (1.0 - 0.9) * math.exp(-d.upper_rate * (1.0 - 5e-324))

    def test_table_equals_reference(self):
        rows = np.array([self.LOWER, self.UPPER])
        table = CDFTable.from_quantiles(self.LEVELS, rows)
        refs = [reference_build_cdf(self.LEVELS, v) for v in rows]
        assert table.lower_rate.tolist() == [r.lower_rate for r in refs]
        assert table.upper_rate.tolist() == [r.upper_rate for r in refs]
        ps = np.array([0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
        xs = np.array([-2.0, -1.0, -0.5, 0.0, 5e-324, 0.5, 1.0, 2.0])
        got = table.quantile(np.tile(ps, (2, 1)))
        assert_rows_equal(got, [reference_quantile(r, ps) for r in refs])
        assert_rows_equal(table.cdf(np.tile(xs, (2, 1))), [reference_cdf(r, xs) for r in refs])

    def test_cdf_in_a_segment_of_subnormal_width(self):
        narrow = np.array([0.0, 1e-310, 1.0])
        d = build_cdf(QuantileVector(self.LEVELS, self.LOWER))
        table = CDFTable.from_quantiles(self.LEVELS, np.array([self.LOWER, narrow]))
        xs = np.array([[0.0, 5e-324], [0.0, 5e-311]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert d.cdf(0.0) == 0.1
            got = table.cdf(xs)
        assert got[0].tolist() == [0.1, 0.5]
        assert got[1, 0] == 0.1 and 0.1 <= got[1, 1] <= 0.5
        refs = [reference_build_cdf(self.LEVELS, v) for v in (self.LOWER, narrow)]
        assert_rows_equal(got, [reference_cdf(r, x) for r, x in zip(refs, xs)])

    def test_crps_in_a_segment_of_subnormal_width(self):
        # The 1e-310 segment's slope overflows, so the segment is a jump: an
        # observation inside it scores as one at its left knot, not 0.0.
        narrow = np.array([0.0, 1e-310, 1.0])
        d = build_cdf(QuantileVector(self.LEVELS, narrow))
        inside = crps(d, 5e-311)
        assert inside == crps(d, 0.0) == pytest.approx(0.10958, abs=1e-5)
        assert inside == pytest.approx(crps_mc(d, 5e-311, 20_000, seed=1), abs=0.01)
        assert inside == reference_crps(reference_build_cdf(self.LEVELS, narrow), 5e-311)


def assert_rows_equal(got, expected):
    """Bit-for-bit equality of each row (NaN equal to NaN)."""
    expected = np.array(expected, dtype=float).reshape(np.shape(got))
    assert got.tobytes() == expected.tobytes(), (got, expected)


# Knot rows of nine values on a level grid: tied runs anywhere, or a point mass.
LEV9_CLOSED = np.array([0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0])
point_mass_vals = st.integers(-40_000, 40_000).map(lambda n: np.full(9, n / 1000.0))
tables = st.tuples(
    st.sampled_from([LEV9, LEV9_CLOSED]),
    st.lists(st.one_of(tied_vals, tied_vals, point_mass_vals), min_size=1, max_size=5),
).map(lambda t: (t[0], np.array(t[1])))
open_levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestTableAgainstReference:
    """Every table kernel equals the per-hour reference bit for bit, row by row."""

    @given(tables, st.lists(open_levels, min_size=1, max_size=6))
    def test_quantile(self, table_rows, extra):
        levels, values = table_rows
        table = CDFTable.from_quantiles(levels, values)
        refs = [reference_build_cdf(levels, v) for v in values]
        inner = levels[(levels > 0.0) & (levels < 1.0)]
        ps = np.concatenate([inner, [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)], extra])
        got = table.quantile(np.tile(ps, (len(values), 1)))
        assert_rows_equal(got, [reference_quantile(r, ps) for r in refs])
        for i, r in enumerate(refs):
            assert_rows_equal(table.row(i).quantile(ps), reference_quantile(r, ps))
        assert table.point_mass.tolist() == [r.is_degenerate for r in refs]

    @given(tables, st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6))
    def test_cdf_and_prob_below(self, table_rows, extra):
        levels, values = table_rows
        table = CDFTable.from_quantiles(levels, values)
        refs = [reference_build_cdf(levels, v) for v in values]
        # every knot of every row, tied runs' values included, and a few others
        xs = np.concatenate([values.ravel(), extra])
        # NaN sorts after every knot, as in np.searchsorted
        probes = np.concatenate([xs, [np.nan, np.inf, -np.inf]])
        got = table.cdf(np.tile(probes, (len(values), 1)))
        assert_rows_equal(got, [reference_cdf(r, probes) for r in refs])
        for t in xs.tolist():
            expected = [reference_prob_below(r, t) for r in refs]
            assert_rows_equal(table.prob_below(t), expected)
            assert [table.row(i).prob_below(t) for i in range(len(refs))] == expected

    @given(tables, st.integers(1, 300), st.integers(0, 2**32))
    def test_sample(self, table_rows, draws, seed):
        levels, values = table_rows
        table = CDFTable.from_quantiles(levels, values)
        seeds = [seed + 7 * h + 1 for h in range(len(values))]
        expected = [
            reference_sample(reference_build_cdf(levels, v), draws, s)
            for v, s in zip(values, seeds)
        ]
        assert_rows_equal(table.sample(draws, seeds), expected)
        assert_rows_equal(table.row(0).sample(draws, seeds[0]), expected[0])

    def test_rows_and_blocks_keep_their_distribution(self):
        rng = np.random.default_rng(3)
        values = np.array([random_quantile_vector(rng, DEFAULT_LEVELS) for _ in range(6)])
        values[2] = values[2, 4]
        table = CDFTable.from_quantiles(DEFAULT_LEVELS, values)
        ps = np.tile([0.001, 0.3, 0.999], (2, 1))
        whole = table.quantile(np.tile(ps, (3, 1)))
        np.testing.assert_array_equal(table[2:4].quantile(ps), whole[2:4])
        d = table.row(2)
        assert d.is_degenerate and d.values.tolist() == [values[2, 4]]
        e = table.row(3)
        assert (e.lower_rate, e.upper_rate) == (table.lower_rate[3], table.upper_rate[3])

    def test_rejects_bad_knots(self):
        levels = np.array([0.25, 0.5, 0.75])
        with pytest.raises(ValueError):
            CDFTable.from_quantiles(levels, [[1.0, 0.0, 2.0]])
        with pytest.raises(ValueError):
            CDFTable(np.array([[1.0, 1.0, 2.0]]), levels, [True], [np.nan], [np.nan])
        table = CDFTable.from_quantiles(levels, [[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError):
            table.quantile([[0.0]])
        with pytest.raises(ValueError):
            table.sample(0, [1])


class TestEvaluation:
    def test_far_tail_probabilities_vanish(self):
        d = simple_dist()
        assert d.cdf(-1.0 - 40.0 / d.lower_rate) < 1e-12
        assert 1.0 - d.cdf(1.0 + 40.0 / d.upper_rate) < 1e-12

    def test_quantile_cdf_round_trip(self):
        d = simple_dist()
        ps = np.array([0.001, 0.01, 0.025, 0.3, 0.5, 0.8, 0.975, 0.99, 0.999])
        np.testing.assert_allclose(d.cdf(d.quantile(ps)), ps, atol=1e-9)

    def test_cdf_quantile_round_trip_between_knots(self):
        d = simple_dist()
        xs = np.array([-0.7, -0.2, 0.4, 0.9])
        np.testing.assert_allclose(d.quantile(d.cdf(xs)), xs, atol=1e-9)

    def test_quantile_at_knot_levels(self):
        d = simple_dist()
        assert d.quantile(0.025) == -1.0
        assert d.quantile(0.5) == 0.0

    def test_symmetric_median_is_midpoint(self):
        d = build_cdf(QuantileVector(LEV5, np.array([-2.0, -1.0, 0.0, 1.0, 2.0])))
        assert d.quantile(0.5) == 0.0

    def test_quantile_rejects_boundary_probabilities(self):
        d = simple_dist()
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                d.quantile(p)

    def test_interior_density_is_segment_slope(self):
        d = PiecewiseCDF.from_knots([0.0, 1.0], [0.4, 0.6])
        assert density(d, 0.5) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_density_far_out_in_a_steep_tail(self):
        # A boundary width of 1e-306 gives tail rates of 4e306: 100 degrees out,
        # the tail term passes the largest float, and the log density is -inf.
        levels = np.array([0.1, 0.5, 0.9])
        rows = np.array([[0.0, 1e-306, 1.0], [-1.0, 0.0, 1e-306]])
        xs = np.array([[-100.0], [100.0]])
        got = CDFTable.from_quantiles(levels, rows).log_density(xs)
        assert got.tolist() == [[-math.inf], [-math.inf]]
        refs = [reference_build_cdf(levels, v) for v in rows]
        assert_rows_equal(got, [reference_log_density(r, x) for r, x in zip(refs, xs)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cdf_and_crps_far_out_in_a_steep_tail(self):
        # The same tails: the CDF takes its limits, 0 below and 1 above, and
        # the CRPS stays finite, each equal to its oracle.
        levels = np.array([0.1, 0.5, 0.9])
        rows = np.array([[0.0, 1e-306, 1.0], [-1.0, 0.0, 1e-306]])
        xs = np.array([[-100.0], [100.0]])
        table = CDFTable.from_quantiles(levels, rows)
        refs = [reference_build_cdf(levels, v) for v in rows]
        got = table.cdf(xs)
        assert got.tolist() == [[0.0], [1.0]]
        assert_rows_equal(got, [reference_cdf(r, x) for r, x in zip(refs, xs)])
        assert table.prob_below(-100.0)[0] == 0.0 and table.prob_below(100.0)[1] == 1.0
        scores = crps_batch(table, xs[:, 0])
        assert np.isfinite(scores).all()
        assert_rows_equal(scores, [reference_crps(r, x) for r, x in zip(refs, xs[:, 0])])

    def test_log_density_linear_in_tail(self):
        d = simple_dist()
        x1, x2 = -5.0, -9.0
        slope = (d.log_density(x2) - d.log_density(x1)) / (x2 - x1)
        assert slope == pytest.approx(d.lower_rate, rel=1e-9)

    @given(sorted_vals, st.floats(-100, 100, allow_nan=False))
    def test_translation_shifts_quantiles(self, values, c):
        base = build_cdf(QuantileVector(LEV5, np.array(values)))
        shifted = build_cdf(QuantileVector(LEV5, np.array(values) + c))
        ps = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
        np.testing.assert_allclose(
            shifted.quantile(ps), base.quantile(ps) + c, atol=1e-7, rtol=1e-9
        )

    @given(sorted_vals)
    def test_cdf_monotone(self, values):
        d = build_cdf(QuantileVector(LEV5, np.array(values)))
        xs = np.linspace(values[0] - 5.0, values[-1] + 5.0, 401)
        assert np.all(np.diff(d.cdf(xs)) >= 0)


class TestSampling:
    def test_same_seed_identical(self):
        d = simple_dist()
        np.testing.assert_array_equal(d.sample(100, seed=9), d.sample(100, seed=9))
        assert not np.array_equal(d.sample(100, seed=9), d.sample(100, seed=10))

    def test_median_split(self):
        d = simple_dist()
        frac = np.mean(d.sample(1000, seed=1) <= 0.0)
        assert abs(frac - 0.5) < 0.05

    def test_ks_statistic_small(self):
        d = simple_dist()
        assert ks_statistic(d, d.sample(100_000, seed=3)) < 0.01

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            simple_dist().sample(0, seed=1)


class TestProbBelow:
    def test_equals_cdf_at_median(self):
        d = simple_dist()
        assert d.prob_below(0.0) == pytest.approx(0.5)

    def test_far_above_all_knots(self):
        d = simple_dist()
        assert d.prob_below(-100.0) == pytest.approx(0.0, abs=1e-12)

    def test_sampled_estimator_matches_exact(self):
        d = simple_dist()
        n = 100_000
        exact = d.prob_below(0.3)
        # the fraction forecast reports as prob_below_sampled
        est = float(np.mean(d.sample(n, seed=2) < 0.3))
        se = np.sqrt(exact * (1 - exact) / n)
        assert abs(est - exact) < 4 * se


class TestUnitMassInvariant:
    def test_mass_with_analytic_remainders(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            d = build_cdf(
                QuantileVector(DEFAULT_LEVELS, random_quantile_vector(rng, DEFAULT_LEVELS))
            )
            assert integrate_density(d, n_interior=200_000, n_tail=20_000, efolds=40.0) == (
                pytest.approx(1.0, abs=1e-8)
            )


# Rows of a padded matrix: each row's mask and values, its True entries in
# any columns (not only a prefix, as in CRPS), the width drawn first.
padded_rows = st.integers(0, 40).flatmap(
    lambda width: st.lists(
        st.lists(st.booleans(), min_size=width, max_size=width).flatmap(
            lambda mask: st.tuples(
                st.just(mask),
                st.lists(  # + 0.0: a pad's 0.0 before a -0.0 gives 0.0 in the padded row
                    st.floats(-1e6, 1e6).map(lambda x: x + 0.0),
                    min_size=sum(mask),
                    max_size=sum(mask),
                ),
            )
        ),
        max_size=8,
    ).map(lambda rows: (width, rows))
)
# Sorted segments with ties and infinities; probes add NaN.
knot = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 2.0, np.inf]) | st.floats(-3.0, 3.0)
segments = st.lists(st.lists(knot, max_size=6).map(sorted), min_size=1, max_size=6)
probes = st.lists(knot | st.just(np.nan), min_size=1, max_size=5)


class TestKernels:
    """The shared running-sum and search kernels of qrf, dist and scoring,
    against their 1-D numpy counterparts bit for bit."""

    @given(padded_rows, st.integers(0, 5))
    def test_padded_cumsum_is_each_rows_cumsum(self, drawn, extra):
        width, rows = drawn
        mask = np.array([m + [False] * extra for m, _ in rows], dtype=bool)
        mask = mask.reshape(len(rows), width + extra)
        values = np.array([x for _, v in rows for x in v], dtype=float)
        got = _padded_cumsum(mask, values)
        assert got.shape == mask.shape
        for i, (m, v) in enumerate(rows):
            dense = np.zeros(mask.shape[1])
            dense[mask[i]] = v
            assert got[i].tobytes() == np.cumsum(dense).tobytes()
            assert got[i][mask[i]].tobytes() == np.cumsum(np.array(v, dtype=float)).tobytes()

    @given(segments, probes, st.integers(0, 3))
    def test_count_not_above_is_each_segments_searchsorted(self, segs, vs, gap):
        # Segments lie apart, with -inf between them, which a read past a
        # segment's end would count.
        parts, start = [], []
        for seg in segs:
            start.append(sum(map(len, parts)))
            parts += [np.array(seg, dtype=float), np.full(gap, -np.inf)]
        a = np.concatenate(parts)
        start, length = np.array(start)[:, None], np.array([len(x) for x in segs])[:, None]
        v = np.tile(np.array(vs, dtype=float), (len(segs), 1))
        got = _count_not_above(a, start, length, v)
        expected = [np.searchsorted(np.array(seg, dtype=float), vs, side="right") for seg in segs]
        assert got.tolist() == [e.tolist() for e in expected]
        # Below a finite probe: not above the float before it, as qrf asks.
        finite = np.isfinite(v)
        below = _count_not_above(a, start, length, np.nextafter(v, -np.inf))
        left = [np.searchsorted(np.array(seg, dtype=float), vs, side="left") for seg in segs]
        assert below[finite].tolist() == np.array(left)[finite].tolist()
