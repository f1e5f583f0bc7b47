"""Scenario orchestration: train -> shift -> combine -> distribute -> score.

One forest is trained per scenario over all model labels jointly (the label
is a covariate).  Stage 2 then works on columns: the forest is queried once
per distinct (lead, label) pair of the current model runs, each run's row
of error quantiles is shifted by its forecast value into one (runs x levels)
matrix, and that matrix is averaged level by level over each valid hour's
rows.  Stage 3 interpolates each hour's average into a full distribution.
:func:`run_scenario` returns both stages as one :class:`Horizon`, with a
row per hour from one hour after the forecast origin out to the horizon;
hours no current run covers are left out.  A backtest scores the horizon
with :func:`score_scenario`, which counts the left-out hours; an operator
forecast writes its products from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import qrf, scoring
from .combine import DEFAULT_LEVELS, QuantileVector, combine_timestep
from .dist import PiecewiseCDF, build_cdf
from .error_model import ErrorTable, build_error_table, rank_label_members
from .exceptions import DataError
from .ingest import Dataset, ScenarioWindow, format_hour, hour_index, hour_time, slice_scenario

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


@dataclass(frozen=True)
class RunConfig:
    """Everything a scenario run needs beyond the dataset itself."""

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
        for name in ("n_scenarios", "train_days", "horizon_hours", "draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

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

    ``quantiles`` is the (hours x levels) matrix of averaged quantiles and
    ``distributions`` each hour's full distribution built on its row.
    ``members`` holds each hour's current-run values, which the raw
    comparator scores, and ``observations`` each hour's observation (NaN
    where there is none).  ``timings`` holds the seconds of each stage:
    ``prepare``, ``train``, ``predict`` and ``score`` (combine and build;
    :func:`score_scenario` adds the scoring time).
    """

    origin: datetime
    lead_hours: np.ndarray
    quantiles: np.ndarray
    contributors: np.ndarray
    distributions: List[PiecewiseCDF]
    members: List[np.ndarray]
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
    window = ScenarioWindow(origin, config.train_days, config.horizon_hours)
    train_ds, eval_ds = slice_scenario(dataset, window)
    labelled = rank_label_members(train_ds.forecasts)
    table = build_error_table(Dataset(labelled, train_ds.observations, train_ds.site_id))
    if table.n_rows < config.min_training_rows:
        raise DataError(
            f"insufficient training data: {table.n_rows} rows < {config.min_training_rows}"
        )
    # Leakage guard: nothing at or after the origin may reach training.
    if train_ds.observations.hour[-1] >= hour_index(origin):
        raise RuntimeError("internal error: training slice leaked an evaluation observation")
    return table, eval_ds


def run_scenario(
    dataset: Dataset, origin: datetime, config: RunConfig, scenario_index: int = 0
) -> Horizon:
    """Train the scenario's forest at ``origin`` and build every covered hour's
    averaged quantiles and distribution.  Hours no current run covers are left out."""
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    table, eval_ds = prepare_training(dataset, origin, config)
    eval_fc = rank_label_members(eval_ds.forecasts)
    eval_labels = {eval_fc.models[c] for c in np.unique(eval_fc.model).tolist()}
    unseen = sorted(eval_labels - set(table.label_set))
    if unseen:
        raise DataError(
            f"model label(s) {', '.join(unseen)} have a run at origin {format_hour(origin)}"
            " but no training rows in its window"
        )
    timings["prepare"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    forest = qrf.train(table, config.forest_config(scenario_index))
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # (lead, label) pairs in sorted order: codes sort as the labels do
    n_labels = len(eval_fc.models)
    pair_keys, pair_of_row = np.unique(
        eval_fc.lead * n_labels + eval_fc.model, return_inverse=True
    )
    matrix = qrf.predict_quantiles_batch(
        forest,
        pair_keys // n_labels,
        [eval_fc.models[c] for c in (pair_keys % n_labels).tolist()],
        config.levels,
    )
    shifted = matrix[pair_of_row] + eval_fc.value[:, None]
    # Rows of each horizon hour, in row order: by_valid[first[i]:end[i]] for hours[i]
    by_valid = np.argsort(eval_fc.valid, kind="stable")
    hours = hour_index(origin) + np.arange(1, config.horizon_hours + 1)
    first = np.searchsorted(eval_fc.valid[by_valid], hours, side="left")
    end = np.searchsorted(eval_fc.valid[by_valid], hours, side="right")
    covered = np.flatnonzero(end > first)
    obs = eval_ds.observations
    observed = np.full(covered.size, np.nan)
    have = np.isin(hours[covered], obs.hour)
    observed[have] = obs.value[np.searchsorted(obs.hour, hours[covered][have])]
    timings["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    combined, distributions, members = [], [], []
    for i in covered.tolist():
        rows = by_valid[first[i] : end[i]]
        h = i + 1
        c = combine_timestep(config.levels, shifted[rows], origin + timedelta(hours=h), h)
        combined.append(c.quantiles.values)
        distributions.append(build_cdf(c.quantiles))
        members.append(eval_fc.value[rows])
    timings["score"] = time.perf_counter() - t0

    return Horizon(
        origin=origin,
        lead_hours=covered + 1,
        quantiles=np.array(combined).reshape(covered.size, config.levels.size),
        contributors=(end - first)[covered],
        distributions=distributions,
        members=members,
        observations=observed,
        train_rows=table.n_rows,
        skipped_rows=table.skipped,
        timings=timings,
    )


def score_scenario(horizon: Horizon, config: RunConfig, index: int) -> ScenarioResult:
    """Score each covered hour of ``horizon`` against its observation, with
    the raw comparator beside it.  Every covered hour needs an observation.

    The raw comparator scores each hour's current-run values: the
    empirical-ensemble CRPS, the error of their median, and a log score from
    their quantiles on the same levels run through the same CDF
    interpolation (absent when every member is equal, a point mass).
    """
    t0 = time.perf_counter()
    missing = np.flatnonzero(np.isnan(horizon.observations))
    if missing.size:
        valid = horizon.origin + timedelta(hours=int(horizon.lead_hours[missing[0]]))
        raise DataError(f"no observation to score at {valid.isoformat()}")
    intervals = scoring.DEFAULT_INTERVALS
    n = len(horizon.lead_hours)
    crps, log, abs_err = np.empty(n), np.empty(n), np.empty(n)
    raw_crps, raw_log, raw_abs_err = np.empty(n), np.empty(n), np.empty(n)
    hits = np.empty((n, len(intervals)), dtype=bool)
    nan = float("nan")
    for i, (d, values, y) in enumerate(
        zip(horizon.distributions, horizon.members, horizon.observations.tolist())
    ):
        crps[i] = scoring.crps(d, y)
        log[i] = nan if d.is_degenerate else scoring.log_score(d, y)
        abs_err[i] = abs(y - float(d.quantile(0.5)))
        for j, w in enumerate(intervals):
            lo = float(d.quantile((1.0 - w) / 2.0))
            hi = float(d.quantile((1.0 + w) / 2.0))
            hits[i, j] = lo <= y <= hi
        raw = build_cdf(QuantileVector(config.levels, np.quantile(values, config.levels)))
        raw_crps[i] = scoring.crps_ensemble(values, y)
        raw_log[i] = nan if raw.is_degenerate else scoring.log_score(raw, y)
        raw_abs_err[i] = abs(y - float(np.median(values)))
    valid_hours = hour_index(horizon.origin) + horizon.lead_hours
    timings = dict(horizon.timings)
    timings["score"] += time.perf_counter() - t0
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
        degenerate_hours=sum(d.is_degenerate for d in horizon.distributions),
        timings=timings,
    )


def _run_chunk(args) -> List[ScenarioResult]:
    dataset, origins_with_index, config = args
    return [
        score_scenario(run_scenario(dataset, origin, config, scenario_index=i), config, i)
        for i, origin in origins_with_index
    ]


def run_scenarios(
    dataset: Dataset, config: RunConfig, origins: Optional[List[datetime]] = None
) -> List[ScenarioResult]:
    """Evaluate many seeded scenarios, optionally across a process pool.

    Results are returned in scenario order regardless of worker scheduling,
    so downstream reports are identical for any ``jobs`` setting.
    """
    if origins is None:
        origins = draw_origins(dataset, config)
    indexed = list(enumerate(origins))
    if config.jobs <= 1 or len(indexed) == 1:
        return _run_chunk((dataset, indexed, config))
    from concurrent.futures import ProcessPoolExecutor

    jobs = min(config.jobs, len(indexed))
    chunks = [(dataset, indexed[i::jobs], config) for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_run_chunk, chunks))
    merged: List[ScenarioResult] = [r for part in parts for r in part]
    merged.sort(key=lambda r: r.index)
    return merged
