import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import integrate_density, ks_statistic, random_quantile_vector
from probfcast.combine import DEFAULT_LEVELS, QuantileVector
from probfcast.dist import DegenerateDistributionError, PiecewiseCDF, build_cdf


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
        assert d.density(np.nextafter(-1.0, -2.0)) == pytest.approx(seg0, rel=1e-9)
        seg_last = (0.975 - 0.5) / 1.0
        assert d.density(np.nextafter(1.0, 2.0)) == pytest.approx(seg_last, rel=1e-9)
        assert d.density(1.0) == pytest.approx(seg_last, rel=1e-9)  # continuous at the knot

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
            d.density(2.5)


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
        assert d.density(0.5) == pytest.approx(0.2, rel=1e-12)

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
