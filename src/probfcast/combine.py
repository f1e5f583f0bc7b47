"""Quantile vectors, the shared probability-level grid, and quantile averaging.

Every stage of the pipeline exchanges predictive distributions as paired
(level, value) arrays on one shared grid.  Stage 2 holds one row of shifted
error quantiles per current model run, so combining the forecasts for an
hour reduces to a per-level arithmetic mean over that hour's rows.
Averaging quantile functions keeps the location, scale, and shape of the
result close to the average of the inputs.  Averaging the quantiles of
forecasts whose errors are not fully correlated over-disperses the result
(Lichtendahl, Grushka-Cockayne & Winkler 2013), so calibration can vary
with the number of rows an hour has; ROADMAP item 11 tracks that
diagnostic.  A horizon's rows are averaged in groups of hours with the same
number of rows (:func:`hour_blocks`), one (hours x rows x levels) block per
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "DEFAULT_LEVELS",
    "check_levels",
    "QuantileVector",
    "CombinedForecast",
    "hour_blocks",
    "vincentize",
    "vincentize_hours",
    "combine_timestep",
]


def _default_levels() -> np.ndarray:
    # Percent grid plus the 90%/95% central-interval endpoints, so interval
    # bounds can be read either directly off the grid or from the
    # interpolated CDF with identical results.
    levels = {i / 100.0 for i in range(1, 100)}
    levels.update((0.025, 0.05, 0.95, 0.975))
    return np.array(sorted(levels), dtype=float)


#: Shared level grid used by the whole pipeline (101 strictly increasing levels).
DEFAULT_LEVELS = _default_levels()


def check_levels(levels) -> np.ndarray:
    """Levels as a float array; raises unless non-empty and strictly increasing within (0, 1)."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if levels.size == 0:
        raise ValueError("levels must be non-empty")
    # written so that a NaN level fails too
    if not (levels[0] > 0.0 and levels[-1] < 1.0 and np.all(np.diff(levels) > 0)):
        raise ValueError("levels must be strictly increasing within (0, 1)")
    return levels


@dataclass(eq=False)
class QuantileVector:
    """Paired probability levels and quantile values.

    levels must be strictly increasing within (0, 1); values must be
    non-decreasing, finite, and the same length as levels.
    """

    levels: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.levels = check_levels(self.levels)
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.levels.shape != self.values.shape:
            raise ValueError("levels and values must have the same length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("quantile values must be finite")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("quantile values must be non-decreasing")


@dataclass(eq=False)
class CombinedForecast:
    """Quantile-averaged forecast for one valid hour."""

    valid_time: datetime
    lead_hours: int
    quantiles: QuantileVector
    contributing_count: int

    def __post_init__(self) -> None:
        if self.contributing_count < 1:
            raise ValueError("contributing_count must be >= 1")


def hour_blocks(counts) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Hours grouped by their number of rows, for rows stored hour after hour.

    ``counts`` holds each hour's row count; hour i's rows follow hour i-1's.
    Yields, per distinct count k in ascending order, the indices of the
    hours with k rows and the (hours x k) indices of their rows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    for k in np.unique(counts).tolist():
        hours = np.flatnonzero(counts == k)
        yield hours, starts[hours, None] + np.arange(k)


def vincentize_hours(values, counts) -> np.ndarray:
    """Average each hour's quantile rows level by level.

    ``values`` is a (rows x levels) block of non-decreasing rows on one grid,
    stored hour after hour: ``counts[i]`` rows, at least one, for hour i.
    Returns the (hours x levels) means.  The mean of non-decreasing rows is
    non-decreasing, so each result row is a valid quantile vector.
    """
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if values.ndim != 2 or np.any(counts < 1) or counts.sum() != len(values):
        raise ValueError("vincentize needs (rows x levels) values and a count >= 1 per hour")
    out = np.empty((counts.size, values.shape[1]))
    for hours, rows in hour_blocks(counts):
        # Summing each level's values in sorted order makes the mean exactly
        # invariant to the order of the rows.  The mean over the middle axis
        # of the (hours x k x levels) block adds the k rows one after
        # another, as the mean over the rows of one hour does.
        out[hours] = np.mean(np.sort(values[rows], axis=1), axis=1)
    return out


def vincentize(levels, values) -> QuantileVector:
    """Average one hour's quantile vectors level by level.

    ``values`` is a (k x levels) block, one non-decreasing row per input on
    the grid ``levels``: the one-hour case of :func:`vincentize_hours`.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("vincentize requires a non-empty (inputs x levels) block")
    return QuantileVector(levels, vincentize_hours(values, [len(values)])[0])


def combine_timestep(levels, values, valid_time: datetime, lead_hours: int) -> CombinedForecast:
    """Combine one valid hour's forecasts, one row of ``values`` per contributing run."""
    return CombinedForecast(
        valid_time=valid_time,
        lead_hours=int(lead_hours),
        quantiles=vincentize(levels, values),
        contributing_count=len(values),
    )
