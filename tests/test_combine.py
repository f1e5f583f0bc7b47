from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from helpers import random_quantile_vector, reference_vincentize
from probfcast.combine import (
    DEFAULT_LEVELS,
    CombinedForecast,
    QuantileVector,
    check_levels,
    combine_timestep,
    hour_blocks,
    vincentize,
    vincentize_hours,
)

T0 = datetime(2020, 1, 10, 12, tzinfo=timezone.utc)

LEVELS3 = np.array([0.25, 0.5, 0.75])


def qv(values, levels=LEVELS3):
    return QuantileVector(np.asarray(levels), np.asarray(values, dtype=float))


def vz(rows, levels=LEVELS3):
    """vincentize over a list of value rows on one grid."""
    return vincentize(levels, np.array(rows, dtype=float))


sorted_values = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=3, max_size=3
).map(sorted)


class TestGrid:
    def test_levels_strictly_increasing_in_unit_interval(self):
        assert DEFAULT_LEVELS[0] > 0 and DEFAULT_LEVELS[-1] < 1
        assert np.all(np.diff(DEFAULT_LEVELS) > 0)

    def test_contains_interval_endpoints_and_percents(self):
        needed = {0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975}
        assert needed <= set(DEFAULT_LEVELS.tolist())
        assert {i / 100 for i in range(1, 100)} <= set(DEFAULT_LEVELS.tolist())

    @pytest.mark.parametrize(
        "levels", [[], [0.0, 0.5], [0.5, 1.0], [0.2, 0.2], [0.6, 0.4], [0.5, float("nan")]]
    )
    def test_check_levels_rejects(self, levels):
        with pytest.raises(ValueError):
            check_levels(levels)


class TestQuantileVector:
    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError):
            qv([3.0, 2.0, 4.0])

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            QuantileVector(np.array([0.0, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            QuantileVector(np.array([0.1, 0.1, 0.9]), np.array([1.0, 2.0, 3.0]))

    def test_rejects_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            QuantileVector(np.array([0.5]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            QuantileVector(np.array([]), np.array([]))

    def test_shift_and_value_at(self):
        v = qv(np.array([1.0, 2.0, 3.0]) + 10.0)
        assert v.levels[1] == 0.5 and v.values[1] == 12.0


class TestVincentize:
    def test_per_level_mean(self):
        out = vz([[1, 2, 3], [3, 4, 5]])
        np.testing.assert_array_equal(out.values, [2.0, 3.0, 4.0])

    def test_idempotent_on_copies(self):
        v = [0.5, 1.5, 9.0]
        out = vz([v] * 5)
        np.testing.assert_allclose(out.values, v)

    def test_gaussian_closed_form(self):
        # Averaging the quantile functions of two Gaussians yields the
        # Gaussian with averaged mean and averaged standard deviation.
        a = stats.norm.ppf(DEFAULT_LEVELS, 0.0, 1.0)
        b = stats.norm.ppf(DEFAULT_LEVELS, 2.0, 3.0)
        out = vincentize(DEFAULT_LEVELS, np.vstack([a, b]))
        expected = stats.norm.ppf(DEFAULT_LEVELS, 1.0, 2.0)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-9)

    def test_empty_and_mismatched_levels(self):
        with pytest.raises(ValueError):
            vincentize(LEVELS3, np.empty((0, 3)))
        with pytest.raises(ValueError):
            vincentize(LEVELS3, np.array([1.0, 2.0, 3.0]))  # one row, not a block
        with pytest.raises(ValueError):
            vz([[1, 2, 3, 4], [1, 2, 3, 4]])

    @given(sorted_values, sorted_values, st.floats(-100, 100, allow_nan=False))
    def test_translation_equivariance(self, a, b, c):
        base = vz([a, b]).values
        shifted = vz([np.array(a) + c, np.array(b) + c]).values
        np.testing.assert_allclose(shifted, base + c, atol=1e-9)

    @given(sorted_values, sorted_values, st.floats(0.01, 100, allow_nan=False))
    def test_scale_equivariance(self, a, b, s):
        base = vz([a, b]).values
        scaled = vz([np.array(a) * s, np.array(b) * s]).values
        np.testing.assert_allclose(scaled, base * s, rtol=1e-12, atol=1e-9)

    @given(st.lists(sorted_values, min_size=1, max_size=6))
    def test_bounded_by_inputs_and_permutation_invariant(self, rows):
        out = vz(rows).values
        stacked = np.array(rows)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        flipped = vz(list(reversed(rows))).values
        np.testing.assert_array_equal(out, flipped)


# One hour's block: k non-decreasing rows on LEVELS3, k from a few counts.
hour_block = st.sampled_from([1, 2, 3, 5, 8, 9, 17]).flatmap(
    lambda k: st.lists(
        st.lists(st.floats(-50, 50), min_size=3, max_size=3).map(sorted), min_size=k, max_size=k
    )
)


@pytest.mark.simd
class TestBatchedAgainstReference:
    """vincentize_hours equals the per-hour average bit for bit, hour by hour."""

    @given(st.lists(hour_block, min_size=1, max_size=8))
    def test_vincentize_hours(self, blocks):
        counts = [len(b) for b in blocks]
        values = np.array([row for b in blocks for row in b], dtype=float)
        got = vincentize_hours(values, counts)
        expected = np.array([reference_vincentize(b) for b in blocks])
        assert got.tobytes() == expected.tobytes()
        for b, row in zip(blocks, got):
            assert vz(b).values.tobytes() == row.tobytes()

    def test_many_contributors_on_the_default_grid(self):
        rng = np.random.default_rng(4)
        counts = [18, 2, 17, 5, 3, 18, 4, 33, 1, 17]
        values = np.array(
            [random_quantile_vector(rng, DEFAULT_LEVELS) for _ in range(sum(counts))]
        )
        got = vincentize_hours(values, counts)
        starts = np.cumsum(counts) - counts
        for row, a, k in zip(got, starts.tolist(), counts):
            assert row.tobytes() == reference_vincentize(values[a : a + k]).tobytes()

    def test_hour_blocks_cover_every_row_once(self):
        counts = [2, 1, 3, 2, 1]
        seen = np.zeros(sum(counts), dtype=int)
        for hours, rows in hour_blocks(counts):
            k = rows.shape[1]
            assert [counts[h] for h in hours.tolist()] == [k] * hours.size
            seen[rows.ravel()] += 1
        assert seen.tolist() == [1] * sum(counts)
        assert [rows.tolist() for _, rows in hour_blocks(counts)] == [
            [[2], [8]],
            [[0, 1], [6, 7]],
            [[3, 4, 5]],
        ]

    def test_rejects_counts_that_do_not_cover_the_rows(self):
        values = np.zeros((4, 3))
        for counts in ([1, 2], [2, 3], [4, 0]):
            with pytest.raises(ValueError):
                vincentize_hours(values, counts)


class TestCombineTimestep:
    def test_single_input_passthrough(self):
        out = combine_timestep(LEVELS3, np.array([[1.0, 2.0, 3.0]]), T0, 24)
        np.testing.assert_array_equal(out.quantiles.values, [1.0, 2.0, 3.0])
        assert out.contributing_count == 1
        assert out.lead_hours == 24
        assert out.valid_time == T0

    def test_counts_every_contributor(self):
        block = np.array([[i, i + 1, i + 2] for i in range(7)], dtype=float)
        out = combine_timestep(LEVELS3, block, T0, 24)
        assert out.contributing_count == 7

    def test_records_given_lead(self):
        out = combine_timestep(LEVELS3, np.array([[0.0, 1.0, 2.0]] * 2), T0, 5)
        assert out.lead_hours == 5

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            combine_timestep(LEVELS3, np.empty((0, 3)), T0, 1)

    def test_combined_forecast_requires_contributors(self):
        with pytest.raises(ValueError):
            CombinedForecast(T0, 4, qv([1, 2, 3]), contributing_count=0)
