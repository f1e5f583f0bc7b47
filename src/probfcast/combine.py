"""Quantile vectors, the shared probability-level grid, and quantile averaging.

Every stage of the pipeline exchanges predictive distributions as paired
(level, value) arrays on one shared grid.  Stage 2 holds one row of shifted
error quantiles per current model run, so combining the forecasts for an
hour reduces to a per-level arithmetic mean over that hour's rows.
Averaging quantile functions keeps the location, scale, and shape of the
result close to the average of the inputs, and its calibration does not
depend on how many forecasts happen to cover the hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

__all__ = [
    "DEFAULT_LEVELS",
    "check_levels",
    "QuantileVector",
    "CombinedForecast",
    "vincentize",
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


def vincentize(levels, values) -> QuantileVector:
    """Average quantile vectors level by level.

    ``values`` is a (k x levels) block, one non-decreasing row per input on
    the grid ``levels``.  The mean of non-decreasing rows is non-decreasing,
    so the result is a valid quantile vector.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("vincentize requires a non-empty (inputs x levels) block")
    # Summing each level's values in sorted order makes the mean exactly
    # invariant to the order of the rows.
    return QuantileVector(levels, np.mean(np.sort(values, axis=0), axis=0))


def combine_timestep(levels, values, valid_time: datetime, lead_hours: int) -> CombinedForecast:
    """Combine one valid hour's forecasts, one row of ``values`` per contributing run."""
    return CombinedForecast(
        valid_time=valid_time,
        lead_hours=int(lead_hours),
        quantiles=vincentize(levels, values),
        contributing_count=len(values),
    )
