"""Scenario orchestration: train -> shift -> combine -> distribute -> score.

One forest is trained per scenario over all model labels jointly (the label
is a covariate); a backtest grows the forests of ``_CHUNK`` scenarios in one
:func:`~probfcast.qrf.train_many` pass, each equal to the forest grown
alone, then predicts and scores those scenarios in turn.  Stage 2 then works
on columns: one :func:`~probfcast.qrf.predict_quantiles_batch` call takes
the (lead, label) of every current run in the horizon as they are (the
forest predicts each distinct pair once, and its lead rule applies), each
run's row of error quantiles is shifted by its forecast value into one (runs
x levels) matrix, and that matrix is averaged level by level over each valid
hour's rows, one block per group of hours with the same number of rows.
Stage 3 interpolates every hour's average into a full distribution, all
hours as one :class:`~probfcast.dist.CDFTable`.  :func:`run_scenario`
runs both stages on the forest it is given and returns them as one
:class:`Horizon`, with a row per hour from one hour after the forecast
origin out to the horizon; hours no current run covers are left out.  A
backtest and an operator forecast run the same steps to get there:
:func:`prepare_training`, then the forest's training, then
:func:`run_scenario`.  A backtest scores the horizon with
:func:`score_scenario`, which counts the left-out hours; an operator
forecast writes its products from it.  Scoring, too, works on every hour at
once: the forecast scores read the table, and the raw comparator's scores
come from one block of member values per group of hours.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import qrf, scoring
from .combine import DEFAULT_LEVELS, hour_blocks, vincentize_hours
from .dist import CDFTable
from .error_model import ErrorTable, build_error_table, rank_label_members
from .exceptions import DataError
from .ingest import (
    MAX_LEAD_HOURS,
    Dataset,
    format_hour,
    hour_index,
    hour_time,
    slice_scenario,
)

__all__ = [
    "RunConfig",
    "Horizon",
    "ScenarioResult",
    "admissible_origins",
    "draw_origins",
    "prepare_training",
    "run_scenario",
    "run_scenarios",
    "score_scenario",
]


# Bounds of RunConfig's options.  A seed below MAX_SEED keeps every seed
# derived from it (each scenario forest's, each forecast hour's draws') an
# int64.  No dataset covers a training window longer than the calendar
# (0001-01-01 to 9999-12-31), and one that long keeps hour arithmetic far
# inside int64.
MAX_SEED = 2**62
MAX_TRAIN_DAYS = (date.max - date.min).days
# Far past any useful run, so that a size which could only end in an
# allocation failure is a usage error: a million scenarios is days of
# backtest at about a quarter second each, and a million draws resolve a
# threshold probability to 1e-6 and fill a samples.csv of several GB.
MAX_SCENARIOS = 1_000_000
MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Everything a scenario run needs beyond the dataset itself.

    Each integer option must lie in its range (ValueError): ``num_trees`` in
    [1, qrf.MAX_TREES]; ``sample_count`` in [1, qrf.MAX_SAMPLE_COUNT];
    ``n_scenarios`` in [1, MAX_SCENARIOS]; ``draws`` in [1, MAX_DRAWS];
    ``min_node_size`` and ``jobs`` at least 1; ``mtry`` in [1, 2];
    ``train_days`` in [1, MAX_TRAIN_DAYS]; ``horizon_hours`` in [1,
    MAX_LEAD_HOURS]; ``seed`` in [0, MAX_SEED); ``min_training_rows`` at
    least 0.
    """

    num_trees: int = 250
    mtry: int = 1
    min_node_size: int = 1
    sample_count: int = 128
    replace: bool = False
    n_scenarios: int = 200
    train_days: int = 14
    horizon_hours: int = 168
    seed: int = 0
    levels: np.ndarray = field(default_factory=lambda: DEFAULT_LEVELS.copy())
    threshold: float = 0.0
    draws: int = 1000
    min_training_rows: int = 1000
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, top in (("n_scenarios", MAX_SCENARIOS), ("draws", MAX_DRAWS)):
            if not 1 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must lie in [1, {top}]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 1 <= self.train_days <= MAX_TRAIN_DAYS:
            raise ValueError(f"train_days must lie in [1, {MAX_TRAIN_DAYS}]")
        if not 1 <= self.horizon_hours <= MAX_LEAD_HOURS:
            raise ValueError(f"horizon_hours must lie in [1, {MAX_LEAD_HOURS}]")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError("seed must lie in [0, 2**62)")
        if self.min_training_rows < 0:
            raise ValueError("min_training_rows must be >= 0")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, not {self.threshold}")
        self.forest_config().check()

    def forest_config(self, scenario_index: int = 0) -> qrf.ForestConfig:
        # Wide per-scenario seed stride keeps per-tree streams disjoint.
        return qrf.ForestConfig(
            num_trees=self.num_trees,
            mtry=self.mtry,
            min_node_size=self.min_node_size,
            sample_count=self.sample_count,
            seed=self.seed + 1_000_003 * (scenario_index + 1),
            replace=self.replace,
        )


@dataclass(eq=False)
class Horizon:
    """Stages 2 and 3 at one forecast origin, one row per covered lead hour.

    ``cdfs`` is the table of each hour's full distribution, whose
    ``values`` are the (hours x levels) matrix of averaged quantiles.
    ``members`` holds the current-run values, which the raw comparator
    scores: hour after hour, ``contributors[i]`` values for hour i.
    ``observations`` holds each hour's observation (NaN where there is
    none).  ``train_rows`` and ``skipped_rows`` are the forest table's.
    ``timings`` holds the seconds of ``predict`` (ranking the runs, querying
    the forest and shifting) and ``combine`` (averaging and the CDF build).
    """

    origin: datetime
    lead_hours: np.ndarray
    contributors: np.ndarray
    cdfs: CDFTable
    members: np.ndarray
    observations: np.ndarray
    train_rows: int
    skipped_rows: int
    timings: Dict[str, float]


@dataclass(eq=False)
class ScenarioResult:
    index: int
    origin: datetime
    scores: scoring.Scores
    raw_scores: scoring.Scores
    train_rows: int
    skipped_rows: int
    unscored_hours: int
    degenerate_hours: int
    timings: Dict[str, float]


def admissible_origins(dataset: Dataset, config: RunConfig) -> List[datetime]:
    """Origins whose training window and horizon are fully inside the data.

    Candidates align with the initialization cycle of the longest-range
    model, so the freshest long-range run launches at the origin and every
    hour of the horizon is covered.  A further margin of one horizon after
    the training window keeps the long-lead training rows fully populated.
    """
    fc, obs = dataset.forecasts, dataset.observations
    if not len(obs) or not len(fc):
        raise DataError("dataset is empty")
    max_lead = np.full(len(fc.models), -1)
    np.maximum.at(max_lead, fc.model, fc.lead)
    # ties go to the last model name, as max() over (lead, name) would pick
    long_model = np.flatnonzero(max_lead == max_lead.max())[-1]
    inits = np.unique(fc.init[fc.model == long_model])
    earliest = obs.hour[0] + 24 * config.train_days + config.horizon_hours
    latest = obs.hour[-1] - config.horizon_hours
    origins = [hour_time(t) for t in inits[(inits >= earliest) & (inits <= latest)].tolist()]
    if not origins:
        raise DataError(
            "dataset too short: no admissible origin leaves room for "
            f"{config.train_days} training days plus a {config.horizon_hours}h horizon"
        )
    return origins


def draw_origins(dataset: Dataset, config: RunConfig) -> List[datetime]:
    """Sample n_scenarios origins uniformly (with replacement), seeded."""
    candidates = admissible_origins(dataset, config)
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, len(candidates), size=config.n_scenarios)
    return [candidates[int(i)] for i in picks]


def prepare_training(
    dataset: Dataset, origin: datetime, config: RunConfig
) -> Tuple[ErrorTable, Dataset]:
    """Slice the window at ``origin`` and build the error table from its training half.

    Returns the table and the evaluation slice.  A table with fewer than
    ``config.min_training_rows`` rows is a data error.
    """
    train_ds, eval_ds = slice_scenario(dataset, origin, config.train_days, config.horizon_hours)
    labelled = rank_label_members(train_ds.forecasts)
    table = build_error_table(Dataset(labelled, train_ds.observations))
    if table.n_rows < config.min_training_rows:
        raise DataError(
            f"insufficient training data: {table.n_rows} rows < {config.min_training_rows}"
        )
    # Leakage guard: nothing at or after the origin may reach training.
    if train_ds.observations.hour[-1] >= hour_index(origin):
        raise RuntimeError("internal error: training slice leaked an evaluation observation")
    return table, eval_ds


def run_scenario(
    origin: datetime, eval_ds: Dataset, forest: qrf.Forest, config: RunConfig
) -> Horizon:
    """Stages 2 and 3 at ``origin``: every covered hour's averaged quantiles and
    distribution, from ``forest`` and the runs of the evaluation slice
    ``eval_ds``.  Hours no current run covers are left out.

    The runs are rank-labelled here; a label with a run at ``origin`` but no
    rows in the forest's table is a data error.
    """
    t0 = time.perf_counter()
    eval_fc = rank_label_members(eval_ds.forecasts)
    eval_labels = {eval_fc.models[c] for c in np.unique(eval_fc.model).tolist()}
    unseen = sorted(eval_labels - set(forest.table.label_set))
    if unseen:
        raise DataError(
            f"model label(s) {', '.join(unseen)} have a run at origin {format_hour(origin)}"
            " but no training rows in its window"
        )
    # Rows of each horizon hour, in row order: by_valid[first[i]:end[i]] for hours[i]
    by_valid = np.argsort(eval_fc.valid, kind="stable")
    hours = hour_index(origin) + np.arange(1, config.horizon_hours + 1)
    first = np.searchsorted(eval_fc.valid[by_valid], hours, side="left")
    end = np.searchsorted(eval_fc.valid[by_valid], hours, side="right")
    covered = np.flatnonzero(end > first)
    counts = (end - first)[covered]
    # every row of the horizon's hours, hour after hour (hours are consecutive)
    rows = by_valid[first[0] : end[-1]]
    members = eval_fc.value[rows]
    labels = np.asarray(eval_fc.models)[eval_fc.model[rows]]
    shifted = qrf.predict_quantiles_batch(forest, eval_fc.lead[rows], labels, config.levels)
    shifted += members[:, None]
    obs = eval_ds.observations
    observed = np.full(covered.size, np.nan)
    have = np.isin(hours[covered], obs.hour)
    observed[have] = obs.value[np.searchsorted(obs.hour, hours[covered][have])]
    timings = {"predict": time.perf_counter() - t0}

    t0 = time.perf_counter()
    quantiles = vincentize_hours(shifted, counts)
    cdfs = CDFTable.from_quantiles(config.levels, quantiles)
    timings["combine"] = time.perf_counter() - t0

    return Horizon(
        origin=origin,
        lead_hours=covered + 1,
        contributors=counts,
        cdfs=cdfs,
        members=members,
        observations=observed,
        train_rows=forest.table.n_rows,
        skipped_rows=forest.table.skipped,
        timings=timings,
    )


def score_scenario(horizon: Horizon, config: RunConfig, index: int) -> ScenarioResult:
    """Score each covered hour of ``horizon`` against its observation, with
    the raw comparator beside it.  Every covered hour needs an observation.

    The raw comparator scores each hour's current-run values: the
    empirical-ensemble CRPS, the error of their median, and a log score from
    their quantiles on the same levels run through the same CDF
    interpolation (absent when every member is equal, a point mass).  Its
    quantiles, medians and CRPS are taken per group of hours with the same
    number of members.
    """
    t0 = time.perf_counter()
    missing = np.flatnonzero(np.isnan(horizon.observations))
    if missing.size:
        valid = horizon.origin + timedelta(hours=int(horizon.lead_hours[missing[0]]))
        raise DataError(f"no observation to score at {valid.isoformat()}")
    intervals = scoring.DEFAULT_INTERVALS
    cdfs, y_all = horizon.cdfs, horizon.observations
    n = len(horizon.lead_hours)
    # The median, then each interval's lower and upper bound, for every hour at once.
    levels = [0.5] + [b for w in intervals for b in ((1.0 - w) / 2.0, (1.0 + w) / 2.0)]
    q = cdfs.quantile(np.tile(levels, (n, 1)))
    abs_err = np.abs(y_all - q[:, 0])
    hits = (q[:, 1::2] <= y_all[:, None]) & (y_all[:, None] <= q[:, 2::2])
    crps = scoring.crps_batch(cdfs, y_all)
    log = scoring.log_score_batch(cdfs, y_all)
    raw_q = np.empty((n, config.levels.size))
    raw_median, raw_crps = np.empty(n), np.empty(n)
    for hours, block in hour_blocks(horizon.contributors):
        values = horizon.members[block]
        raw_q[hours] = np.quantile(values, config.levels, axis=1).T
        raw_median[hours] = np.median(values, axis=1)
        raw_crps[hours] = scoring.crps_ensemble_batch(values, y_all[hours])
    raw_log = scoring.log_score_batch(CDFTable.from_quantiles(config.levels, raw_q), y_all)
    raw_abs_err = np.abs(y_all - raw_median)
    valid_hours = hour_index(horizon.origin) + horizon.lead_hours
    timings = {**horizon.timings, "score": time.perf_counter() - t0}
    return ScenarioResult(
        index=index,
        origin=horizon.origin,
        scores=scoring.Scores(horizon.lead_hours, valid_hours, crps, log, abs_err, hits),
        raw_scores=scoring.Scores(
            horizon.lead_hours,
            valid_hours,
            raw_crps,
            raw_log,
            raw_abs_err,
            np.empty((n, 0), dtype=bool),
            intervals=(),
        ),
        train_rows=horizon.train_rows,
        skipped_rows=horizon.skipped_rows,
        unscored_hours=config.horizon_hours - n,
        degenerate_hours=int(cdfs.point_mass.sum()),
        timings=timings,
    )


# Scenarios whose forests grow in one train_many pass.  The pass's step count
# does not grow with the chunk, so training time per forest falls with it;
# the chunk's forests and tables stay alive until each is scored, so peak
# memory rises with it.  On six 50,120-row backtest tables (2-vCPU shared
# host, best of 15 rounds), a forest took 126 ms alone, 110 ms at a chunk of
# 2 and 99 ms at 3, while the peak RSS of `evaluate --scenarios 6` read
# 106.3 MB alone, 107.2 MB at 2 and 109.4 MB at 3 (medians of eight runs).
# Past 3 the gain flattens: each step's cut search pads every request to the
# step's largest one, and that padding grows with the chunk.
_CHUNK = 3


def _run_chunk(args) -> Tuple[List[ScenarioResult], Optional[Exception]]:
    """Score scenarios in order, growing each ``_CHUNK`` of their forests together.

    Returns the results up to the first failure in scenario order, and that
    failure or None.  A scenario whose preparation fails lets the scenarios
    before it in its chunk finish first, as when each forest grows alone.
    Each result's timings add the scenario's ``prepare`` and ``train`` seconds.
    """
    dataset, origins_with_index, config = args
    results: List[ScenarioResult] = []
    try:
        for at in range(0, len(origins_with_index), _CHUNK):
            chunk = origins_with_index[at : at + _CHUNK]
            ready: list = []  # (table, evaluation slice, prepare seconds) per scenario
            failure: Optional[Exception] = None
            for i, origin in chunk:
                t0 = time.perf_counter()
                try:
                    table, eval_ds = prepare_training(dataset, origin, config)
                    config.forest_config(i).validate(table.n_rows)
                except Exception as exc:  # raised once the scenarios before it are scored
                    failure = exc
                    break
                ready.append((table, eval_ds, time.perf_counter() - t0))
            chunk = chunk[: len(ready)]
            if chunk:
                t0 = time.perf_counter()
                forests: list = qrf.train_many(
                    [r[0] for r in ready], [config.forest_config(i) for i, _ in chunk]
                )
                share = (time.perf_counter() - t0) / len(chunk)  # the pass's time, split evenly
            for j, (i, origin) in enumerate(chunk):
                _, eval_ds, prepare = ready[j]
                horizon = run_scenario(origin, eval_ds, forests[j], config)
                ready[j] = forests[j] = None  # free each forest and table once it has served
                results.append(score_scenario(horizon, config, i))
                results[-1].timings.update(prepare=prepare, train=share)
            if failure is not None:
                raise failure
    except Exception as exc:
        return results, exc
    return results, None


def run_scenarios(
    dataset: Dataset, config: RunConfig, origins: Optional[List[datetime]] = None
) -> List[ScenarioResult]:
    """Evaluate many seeded scenarios, optionally across a process pool.

    Results are returned in scenario order regardless of worker scheduling,
    so downstream reports are identical for any ``jobs`` setting.  So is a
    failure: the first in scenario order is raised.
    """
    if origins is None:
        origins = draw_origins(dataset, config)
    indexed = list(enumerate(origins))
    jobs = max(1, min(config.jobs, len(indexed)))
    shares = [indexed[i::jobs] for i in range(jobs)]
    if jobs <= 1:
        parts = [_run_chunk((dataset, indexed, config))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_chunk, [(dataset, share, config) for share in shares]))
    # Each share stops at its own first failure, in the scenario after its last result.
    failures = [(share[len(done)][0], exc) for share, (done, exc) in zip(shares, parts) if exc]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return sorted((r for done, _ in parts for r in done), key=lambda r: r.index)
