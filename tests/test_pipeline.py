import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from helpers import (
    observation_records,
    reference_build_cdf,
    reference_combined,
    reference_crps,
    reference_crps_ensemble,
    reference_log_score,
    reference_quantile,
    reference_vincentize,
)
from hypothesis import given, strategies as st

from probfcast.combine import vincentize_hours
from probfcast.dist import CDFTable
from probfcast.exceptions import DataError
from probfcast.ingest import Dataset, ScenarioWindow, format_hour, hour_index, slice_scenario
from probfcast.pipeline import (
    Horizon,
    RunConfig,
    admissible_origins,
    draw_origins,
    run_scenario,
    run_scenarios,
    score_scenario,
)
from probfcast.scoring import Scores, aggregate_by_lead
from probfcast.synth import ModelSpec, SynthConfig, synthesize_dataset

SMALL = RunConfig(
    num_trees=60,
    sample_count=96,
    n_scenarios=3,
    seed=5,
    draws=200,
    min_training_rows=500,
)


# Beyond the mid-range model's 48 h only one model covers an hour.
NARROW_ROSTER = (
    ModelSpec("solo", 12, 168, 0.5, 0.6),
    ModelSpec("duo", 6, 48, 0.3, 0.5),
)
NARROW = RunConfig(num_trees=40, sample_count=64, n_scenarios=1, seed=3, min_training_rows=100)

ORIGIN = datetime(2020, 2, 1, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def dataset():
    return synthesize_dataset(SynthConfig(span_days=45), seed=6)


@pytest.fixture(scope="module")
def narrow_dataset():
    return synthesize_dataset(SynthConfig(span_days=45, models=NARROW_ROSTER), seed=2)


class TestOrigins:
    def test_reproducible_given_seed(self, dataset):
        assert draw_origins(dataset, SMALL) == draw_origins(dataset, SMALL)

    def test_admissible_bounds(self, dataset):
        obs = observation_records(dataset.observations)
        start, end = obs[0].valid_time, obs[-1].valid_time
        for origin in admissible_origins(dataset, SMALL):
            assert origin - timedelta(days=SMALL.train_days, hours=168) >= start
            assert origin + timedelta(hours=168) <= end

    def test_dataset_too_short(self):
        tiny = synthesize_dataset(SynthConfig(span_days=15), seed=1)
        with pytest.raises(DataError, match="admissible origin"):
            admissible_origins(tiny, SMALL)


class TestRunScenario:
    def test_every_hour_scored_exactly_once(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        res = score_scenario(run_scenario(dataset, origin, SMALL), SMALL, 0)
        assert sorted(res.scores.lead_hours.tolist()) == list(range(1, 169))
        assert res.unscored_hours == 0
        assert len(res.raw_scores) == len(res.scores)
        np.testing.assert_array_equal(res.raw_scores.valid_hours, res.scores.valid_hours)
        assert res.scores.valid_hours[0] == hour_index(origin) + 1

    def test_no_leakage(self, dataset):
        for origin in admissible_origins(dataset, SMALL)[:5]:
            train, _ = slice_scenario(dataset, ScenarioWindow(origin, SMALL.train_days))
            assert max(o.valid_time for o in observation_records(train.observations)) < origin

    def test_deterministic(self, dataset):
        origin = admissible_origins(dataset, SMALL)[1]
        a = score_scenario(run_scenario(dataset, origin, SMALL, scenario_index=1), SMALL, 1)
        b = score_scenario(run_scenario(dataset, origin, SMALL, scenario_index=1), SMALL, 1)
        np.testing.assert_array_equal(a.scores.crps, b.scores.crps)

    def test_insufficient_training_rows(self, dataset):
        strict = RunConfig(
            num_trees=10, sample_count=32, min_training_rows=10_000_000, seed=0
        )
        origin = admissible_origins(dataset, strict)[0]
        with pytest.raises(DataError, match="insufficient training data"):
            run_scenario(dataset, origin, strict)

    def test_model_missing_from_training_window_is_data_error(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        fc = dataset.forecasts
        # eur_uk keeps its runs from the origin on but loses every training row
        gone = (fc.model == fc.models.index("eur_uk")) & (fc.init < hour_index(origin))
        gapped = Dataset(fc.take(~gone), dataset.observations, dataset.site_id)
        with pytest.raises(DataError, match=rf"eur_uk .*origin {format_hour(origin)}"):
            run_scenario(gapped, origin, SMALL)

    def test_horizon_without_scoring(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        horizon = run_scenario(dataset, origin, SMALL)
        assert horizon.origin == origin
        assert horizon.lead_hours.tolist() == list(range(1, 169))
        assert horizon.cdfs.values.shape == (168, SMALL.levels.size)
        assert len(horizon.cdfs) == len(horizon.contributors) == 168
        assert horizon.members.shape == (horizon.contributors.sum(),)
        assert np.all(horizon.contributors >= 1)
        assert np.all(np.isfinite(horizon.observations))
        assert set(horizon.timings) == {"prepare", "train", "predict", "score"}
        levels = np.tile(SMALL.levels, (168, 1))
        np.testing.assert_array_equal(horizon.cdfs.quantile(levels), horizon.cdfs.values)

    def test_contributor_counts_fall_with_lead(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        horizon = run_scenario(dataset, origin, SMALL)
        counts = dict(zip(horizon.lead_hours.tolist(), horizon.contributors.tolist()))
        assert counts[3] > counts[100]
        assert counts[168] >= 1

    def test_missing_observation_names_the_first_unobserved_hour(self, dataset):
        origin = admissible_origins(dataset, SMALL)[0]
        obs = dataset.observations
        gone = np.isin(obs.hour, hour_index(origin) + np.array([40, 7, 90]))
        gapped = Dataset(dataset.forecasts, obs.take(~gone), dataset.site_id)
        horizon = run_scenario(gapped, origin, SMALL)
        assert np.isnan(horizon.observations).sum() == 3
        first = (origin + timedelta(hours=7)).isoformat()
        with pytest.raises(DataError, match=re.escape(f"no observation to score at {first}")):
            score_scenario(horizon, SMALL, 0)


class TestStageTwo:
    """run_scenario's column stage 2 against the per-record reference, bit for bit."""

    @staticmethod
    def check(ds, cfg, origin):
        horizon = run_scenario(ds, origin, cfg)
        expected = reference_combined(ds, origin, cfg)
        assert horizon.lead_hours.tolist() == sorted(expected)
        for lead, values, count in zip(
            horizon.lead_hours.tolist(), horizon.cdfs.values, horizon.contributors.tolist()
        ):
            np.testing.assert_array_equal(values, expected[lead][0])
            assert count == expected[lead][1]
        return horizon.contributors.tolist()

    def test_matches_per_record_reference(self, dataset):
        for origin in admissible_origins(dataset, SMALL)[:2]:
            counts = self.check(dataset, SMALL, origin)
            assert max(counts) >= 3

    def test_matches_per_record_reference_narrow_roster(self, narrow_dataset):
        origin = admissible_origins(narrow_dataset, NARROW)[0]
        counts = self.check(narrow_dataset, NARROW, origin)
        assert counts[-1] == 1


class TestRunScenarios:
    def test_full_lead_axis_aggregates(self, dataset):
        results = run_scenarios(dataset, SMALL)
        rows = list(zip(*aggregate_by_lead(Scores.concat([res.scores for res in results]))))
        assert sorted({row[0] for row in rows}) == list(range(1, 169))
        assert all(row[4] == SMALL.n_scenarios for row in rows if row[1] == "crps")

    def test_parallel_matches_serial(self, dataset):
        serial = run_scenarios(dataset, SMALL)
        parallel = run_scenarios(
            dataset,
            RunConfig(
                num_trees=SMALL.num_trees,
                sample_count=SMALL.sample_count,
                n_scenarios=SMALL.n_scenarios,
                seed=SMALL.seed,
                draws=SMALL.draws,
                min_training_rows=SMALL.min_training_rows,
                jobs=2,
            ),
        )
        for a, b in zip(serial, parallel):
            assert a.origin == b.origin
            np.testing.assert_array_equal(a.scores.crps, b.scores.crps)

    def test_raw_log_score_absent_for_single_member_hours(self, narrow_dataset):
        raw = run_scenarios(narrow_dataset, NARROW)[0].raw_scores
        far = raw.log_score[raw.lead_hours > 60]
        assert far.size and np.all(np.isnan(far))
        near = raw.log_score[(raw.lead_hours >= 2) & (raw.lead_hours <= 40)]
        assert np.any(np.isfinite(near))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_scenario_order_at_any_jobs(self, dataset, jobs):
        """Scenario 1 fails in preparation and scenario 2 in scoring.  At two
        jobs, scenarios 0 and 2 share a worker, whose failure comes back first;
        scenario 1's is still the one raised."""
        origins = admissible_origins(dataset, SMALL)
        first, middle, last = origins[0], origins[len(origins) // 2], origins[-1]
        fc, obs = dataset.forecasts, dataset.observations
        # eur_uk keeps its runs from the middle origin on, so it has a run there
        # but no training rows; the first origin has no eur_uk run at all.
        fc = fc.take((fc.model != fc.models.index("eur_uk")) | (fc.init >= hour_index(middle)))
        # An hour of the last origin's horizon, after the middle one's, loses its observation.
        missing = last + timedelta(hours=5)
        assert missing > middle + timedelta(hours=SMALL.horizon_hours)
        obs = obs.take(obs.hour != hour_index(missing))
        config = RunConfig(num_trees=20, sample_count=64, min_training_rows=500, jobs=jobs)
        with pytest.raises(DataError, match=r"eur_uk.*no training rows"):
            run_scenarios(Dataset(fc, obs), config, [first, middle, last])


LEVELS7 = np.array([0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975])
# Half degrees from a small pool make ties and tied runs common; the wide
# range gives sums that round.
pool_value = st.integers(-3, 3).map(lambda n: n / 2.0)
any_value = st.one_of(pool_value, st.floats(-40.0, 40.0))


@st.composite
def hour_cases(draw):
    """One hour: k shifted quantile rows (all one constant, for a point-mass
    forecast, one time in four), k member values and an observation at a knot
    of the hour's average, at a member, in either tail or anywhere."""
    k = draw(st.sampled_from([1, 2, 3, 5, 17]))
    if draw(st.integers(0, 3)) == 0:
        rows = [[draw(pool_value)] * LEVELS7.size] * k
    else:
        row = st.lists(any_value, min_size=LEVELS7.size, max_size=LEVELS7.size).map(sorted)
        rows = draw(st.lists(row, min_size=k, max_size=k))
    members = draw(st.lists(any_value, min_size=k, max_size=k))
    avg = reference_vincentize(rows)
    lo, hi = float(avg[0]), float(avg[-1])
    y = draw(
        st.one_of(
            st.sampled_from(avg.tolist()),
            st.sampled_from(members),
            st.floats(lo - 30.0, lo),
            st.floats(hi, hi + 30.0),
            any_value,
        )
    )
    return rows, members, y


class TestBatchedAgainstReference:
    """Stage 2's averaging and score_scenario, all hours at once, against the
    per-hour oracles bit for bit."""

    # a drawn width may be subnormal: the table's slope then overflows, quietly
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.lists(hour_cases(), min_size=1, max_size=8), st.integers(0, 3))
    def test_score_scenario_matches_per_hour_oracles(self, cases, gap):
        n = len(cases)
        counts = np.array([len(rows) for rows, _, _ in cases])
        members = [np.array(m, dtype=float) for _, m, _ in cases]
        y = np.array([c[2] for c in cases])
        # stage 2 as run_scenario runs it: one flat block of rows, hour after hour
        quantiles = vincentize_hours([row for rows, _, _ in cases for row in rows], counts)
        lead_hours = np.arange(1, n + 1) + np.arange(n) // 2 * gap  # some hours uncovered
        config = RunConfig(levels=LEVELS7, horizon_hours=int(lead_hours[-1]) + gap)
        horizon = Horizon(
            origin=ORIGIN,
            lead_hours=lead_hours,
            contributors=counts,
            cdfs=CDFTable.from_quantiles(LEVELS7, quantiles),
            members=np.concatenate(members),
            observations=y,
            train_rows=0,
            skipped_rows=0,
            timings={"score": 0.0},
        )
        res = score_scenario(horizon, config, 0)

        refs, raw_refs = [], []
        for (rows, _, _), q, m in zip(cases, quantiles, members):
            assert q.tobytes() == reference_vincentize(rows).tobytes()
            refs.append(reference_build_cdf(LEVELS7, q))
            raw_refs.append(reference_build_cdf(LEVELS7, np.quantile(m, LEVELS7)))
        ys = y.tolist()
        bounds = [0.5] + [b for w in res.scores.intervals for b in ((1 - w) / 2, (1 + w) / 2)]
        q = np.array([reference_quantile(r, bounds) for r in refs])
        expected = {
            "crps": [reference_crps(r, t) for r, t in zip(refs, ys)],
            "log_score": [reference_log_score(r, t) for r, t in zip(refs, ys)],
            "abs_error_median": np.abs(y - q[:, 0]),
            "raw_crps": [reference_crps_ensemble(m, t) for m, t in zip(members, ys)],
            "raw_log_score": [reference_log_score(r, t) for r, t in zip(raw_refs, ys)],
            "raw_abs_error_median": [abs(t - float(np.median(m))) for m, t in zip(members, ys)],
        }
        got = {
            "crps": res.scores.crps,
            "log_score": res.scores.log_score,
            "abs_error_median": res.scores.abs_error_median,
            "raw_crps": res.raw_scores.crps,
            "raw_log_score": res.raw_scores.log_score,
            "raw_abs_error_median": res.raw_scores.abs_error_median,
        }
        for name, values in got.items():
            assert values.tobytes() == np.array(expected[name], dtype=float).tobytes(), name
        hits = (q[:, 1::2] <= y[:, None]) & (y[:, None] <= q[:, 2::2])
        np.testing.assert_array_equal(res.scores.hits, hits)
        assert res.degenerate_hours == sum(r.is_degenerate for r in refs)
        assert res.unscored_hours == config.horizon_hours - n
        np.testing.assert_array_equal(res.scores.valid_hours, hour_index(ORIGIN) + lead_hours)
