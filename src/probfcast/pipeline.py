"""Scenario orchestration: train -> shift -> combine -> distribute -> score.

One forest is trained per scenario over all model labels jointly (the label
is a covariate).  Stage 2 then works on columns: the forest is queried once
per distinct (lead, label) pair of the current model runs, each run's row
of error quantiles is shifted by its forecast value into one (runs x levels)
matrix, and that matrix is averaged level by level over each valid hour's
rows.  Each hour's average is interpolated into a full distribution.
Scored hours run from one hour after the forecast origin out to the horizon;
hours no current run covers are skipped and counted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import qrf, scoring
from .combine import DEFAULT_LEVELS, CombinedForecast, QuantileVector, combine_timestep
from .dist import PiecewiseCDF, build_cdf
from .error_model import ErrorTable, build_error_table, rank_label_members
from .exceptions import DataError
from .ingest import Dataset, ScenarioWindow, format_hour, hour_index, hour_time, slice_scenario

__all__ = [
    "RunConfig",
    "HourProducts",
    "ScenarioResult",
    "admissible_origins",
    "draw_origins",
    "prepare_training",
    "run_scenario",
    "run_scenarios",
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
    intervals: Tuple[float, ...] = scoring.DEFAULT_INTERVALS
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
class HourProducts:
    """Plot-ready outputs for one forecast hour."""

    valid_time: datetime
    lead_hours: int
    combined: CombinedForecast
    distribution: PiecewiseCDF
    prob_below: float
    prob_below_sampled: float
    samples: np.ndarray


@dataclass(eq=False)
class ScenarioResult:
    index: int
    origin: datetime
    records: List[scoring.ScoreRecord]
    raw_records: List[scoring.ScoreRecord]
    train_rows: int
    skipped_rows: int
    unscored_hours: int
    degenerate_hours: int
    timings: Dict[str, float]
    products: List[HourProducts] = field(default_factory=list)


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


def _score_hour(
    d: PiecewiseCDF,
    combined: CombinedForecast,
    y: float,
    intervals: Sequence[float],
) -> scoring.ScoreRecord:
    median = float(d.quantile(0.5))
    hits: Dict[float, bool] = {}
    for w in intervals:
        lo = float(d.quantile((1.0 - w) / 2.0))
        hi = float(d.quantile((1.0 + w) / 2.0))
        hits[w] = bool(lo <= y <= hi)
    return scoring.ScoreRecord(
        valid_time=combined.valid_time,
        lead_hours=combined.lead_hours,
        crps=scoring.crps(d, y),
        log_score=float("nan") if d.is_degenerate else scoring.log_score(d, y),
        abs_error_median=abs(y - median),
        interval_hits=hits,
    )


def _score_raw_hour(
    values: np.ndarray,
    valid_time: datetime,
    lead_hours: int,
    y: float,
    levels: np.ndarray,
) -> scoring.ScoreRecord:
    """Raw-model comparator: empirical-ensemble CRPS, median MAE, and a log
    score from the member quantiles run through the same CDF interpolation
    (absent below two distinct members)."""
    arr = np.asarray(values, dtype=float)
    crps_val = scoring.crps_ensemble(arr, y)
    abs_err = abs(y - float(np.median(arr)))
    log_val = float("nan")
    if np.unique(arr).size >= 2:
        member_q = QuantileVector(levels, np.quantile(arr, levels))
        d = build_cdf(member_q)
        if not d.is_degenerate:
            log_val = scoring.log_score(d, y)
    return scoring.ScoreRecord(
        valid_time=valid_time,
        lead_hours=lead_hours,
        crps=crps_val,
        log_score=log_val,
        abs_error_median=abs_err,
        interval_hits={},
    )


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
    dataset: Dataset,
    origin: datetime,
    config: RunConfig,
    scenario_index: int = 0,
    products_only: bool = False,
) -> ScenarioResult:
    """Run the full pipeline for one forecast origin.

    By default every covered hour is scored and needs an observation.  With
    ``products_only=True`` (operational forecasting) each covered hour's
    products are built and nothing is scored.
    """
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
    first = np.searchsorted(eval_fc.valid[by_valid], hours, side="left").tolist()
    end = np.searchsorted(eval_fc.valid[by_valid], hours, side="right").tolist()
    obs = eval_ds.observations
    obs_at = np.searchsorted(obs.hour, hours).tolist()
    observed = np.isin(hours, obs.hour).tolist()
    timings["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    records: List[scoring.ScoreRecord] = []
    raw_records: List[scoring.ScoreRecord] = []
    products: List[HourProducts] = []
    unscored = 0
    degenerate = 0
    for h in range(1, config.horizon_hours + 1):
        rows = by_valid[first[h - 1] : end[h - 1]]
        if not rows.size:
            unscored += 1
            continue
        valid = origin + timedelta(hours=h)
        combined = combine_timestep(config.levels, shifted[rows], valid, h)
        d = build_cdf(combined.quantiles)
        if d.is_degenerate:
            degenerate += 1
        if products_only:
            draws = d.sample(config.draws, seed=config.seed + 7 * h + 1)
            products.append(
                HourProducts(
                    valid_time=valid,
                    lead_hours=h,
                    combined=combined,
                    distribution=d,
                    prob_below=d.prob_below(config.threshold),
                    prob_below_sampled=float(np.mean(draws < config.threshold)),
                    samples=draws,
                )
            )
            continue
        if not observed[h - 1]:
            raise DataError(f"no observation to score at {valid.isoformat()}")
        y = float(obs.value[obs_at[h - 1]])
        records.append(_score_hour(d, combined, y, config.intervals))
        raw_records.append(_score_raw_hour(eval_fc.value[rows], valid, h, y, config.levels))
    timings["score"] = time.perf_counter() - t0

    return ScenarioResult(
        index=scenario_index,
        origin=origin,
        records=records,
        raw_records=raw_records,
        train_rows=table.n_rows,
        skipped_rows=table.skipped,
        unscored_hours=unscored,
        degenerate_hours=degenerate,
        timings=timings,
        products=products,
    )


def _run_chunk(args) -> List[ScenarioResult]:
    dataset, origins_with_index, config = args
    return [
        run_scenario(dataset, origin, config, scenario_index=i)
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
