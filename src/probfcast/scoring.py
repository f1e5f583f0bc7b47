"""Proper scoring rules and calibration metrics.

CRPS is integrated exactly over the piecewise form (closed-form integrals on
each linear segment and each exponential tail); a seeded Monte Carlo
estimator is kept alongside as an independent cross-check.  The raw-model
comparator uses the empirical-ensemble CRPS formula over whatever forecasts
cover an hour.  The scores of many hours travel as one :class:`Scores`
table of columns, which coverage, median MAE and the per-lead aggregation
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

from .dist import DegenerateDistributionError, PiecewiseCDF

__all__ = [
    "Scores",
    "crps",
    "crps_mc",
    "crps_ensemble",
    "log_score",
    "interval_score",
    "finite_mean",
    "interval_coverage",
    "mae_median",
    "aggregate_by_lead",
]

#: Central prediction-interval widths tracked throughout the harness.
DEFAULT_INTERVALS = (0.5, 0.8, 0.9, 0.95)


@dataclass(eq=False)
class Scores:
    """Scores of predictive distributions against observations, one row per scored hour.

    The columns are the lead hour, the valid hour (hours since the epoch),
    the CRPS, the log score (NaN where undefined: a point-mass forecast, or a
    raw comparator hour with fewer than two distinct members), and the
    absolute error of the predictive median.  ``hits`` has one column per
    central-interval width in ``intervals``, true where the observation fell
    inside that interval.
    """

    lead_hours: np.ndarray
    valid_hours: np.ndarray
    crps: np.ndarray
    log_score: np.ndarray
    abs_error_median: np.ndarray
    hits: np.ndarray
    intervals: Tuple[float, ...] = DEFAULT_INTERVALS

    def __post_init__(self) -> None:
        n = len(self.lead_hours)
        columns = (self.valid_hours, self.crps, self.log_score, self.abs_error_median)
        if any(len(c) != n for c in columns) or self.hits.shape != (n, len(self.intervals)):
            raise ValueError("score columns must be equally long, with one hit column per interval")
        if np.any(self.crps < 0) or np.any(self.abs_error_median < 0):
            raise ValueError("crps and abs_error_median must be non-negative")

    def __len__(self) -> int:
        return len(self.lead_hours)

    @classmethod
    def concat(cls, parts: Sequence["Scores"]) -> "Scores":
        """Every part's rows, in order; all parts must track the same intervals."""
        if not parts or any(p.intervals != parts[0].intervals for p in parts):
            raise ValueError("concat needs one or more scores tracking the same intervals")
        names = [f.name for f in fields(cls) if f.name != "intervals"]
        columns = [np.concatenate([getattr(p, name) for p in parts]) for name in names]
        return cls(*columns, intervals=parts[0].intervals)


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


# Cubes as products and sums in sequence: numpy's power and pairwise-sum
# kernels differ by SIMD level, and each rounds differently.
def _cube(x: np.ndarray) -> np.ndarray:
    return x * x * x


def _sum(x: np.ndarray) -> float:
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def crps(d: PiecewiseCDF, y: float) -> float:
    """Exact CRPS of a piecewise distribution at observation y (degC).

    Integrates (F(x) - 1{x >= y})^2 in closed form over each linear segment
    of positive width and each exponential tail; a jump has zero width and
    adds nothing.  A point mass scores its absolute error.
    """
    y = float(y)
    if d.is_degenerate:
        return abs(y - float(d.values[0]))
    v, p = d.values, d.probs
    total = 0.0

    # Lower tail: F = m * exp(lam * (x - v0)) on (-inf, v0].
    m = float(p[0])
    if m > 0.0:
        lam = d.lower_rate
        if y >= v[0]:
            total += m * m / (2.0 * lam)
        else:
            e1 = math.exp(lam * (y - v[0]))
            e2 = e1 * e1
            total += m * m * e2 / (2.0 * lam)
            upper = m * m / (2.0 * lam) - 2.0 * m / lam + v[0]
            lower = m * m * e2 / (2.0 * lam) - 2.0 * m * e1 / lam + y
            total += upper - lower
    elif y < v[0]:
        total += v[0] - y

    # Interior segments, vectorised; a jump's zero-width segment adds nothing.
    wide = v[1:] > v[:-1]
    a, b = v[:-1][wide], v[1:][wide]
    pa, pb = p[:-1][wide], p[1:][wide]
    s = (pb - pa) / (b - a)
    right = y <= a  # observation at or left of segment: target function is 1
    left = y >= b  # observation at or right of segment: target is 0
    inside = ~(right | left)
    total += _sum((_cube(pb[right] - 1.0) - _cube(pa[right] - 1.0)) / (3.0 * s[right]))
    total += _sum((_cube(pb[left]) - _cube(pa[left])) / (3.0 * s[left]))
    if inside.any():
        fy = pa[inside] + s[inside] * (y - a[inside])
        total += _sum((_cube(fy) - _cube(pa[inside])) / (3.0 * s[inside]))
        total += _sum((_cube(pb[inside] - 1.0) - _cube(fy - 1.0)) / (3.0 * s[inside]))

    # Upper tail: 1 - F = q * exp(-mu * (x - vK)) on [vK, inf).
    q = float(1.0 - p[-1])
    if q > 0.0:
        mu = d.upper_rate
        if y <= v[-1]:
            total += q * q / (2.0 * mu)
        else:
            delta = y - v[-1]
            e1 = math.exp(-mu * delta)
            e2 = e1 * e1
            total += delta - 2.0 * q * (1.0 - e1) / mu + q * q * (1.0 - e2) / (2.0 * mu)
            total += q * q * e2 / (2.0 * mu)
    elif y > v[-1]:
        total += y - v[-1]

    return max(0.0, float(total))


def crps_mc(d: PiecewiseCDF, y: float, n: int, seed: int) -> float:
    """Monte Carlo CRPS estimate E|X - y| - 0.5 E|X - X'| from n seeded draws."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x = d.sample(n, seed)
    term1 = float(np.mean(np.abs(x - y)))
    xs = np.sort(x)
    k = np.arange(1, n + 1, dtype=float)
    pair_sum = float(np.sum((2.0 * k - n - 1.0) * xs))  # sum over pairs of |xi - xj|
    term2 = 2.0 * pair_sum / (n * n)
    return term1 - 0.5 * term2


def crps_ensemble(members: Sequence[float], y: float) -> float:
    """Empirical-ensemble CRPS: mean|m - y| - mean pairwise |mi - mj| / 2."""
    x = np.sort(np.asarray(members, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ensemble must be non-empty")
    term1 = float(np.mean(np.abs(x - y)))
    if n == 1:
        return term1
    k = np.arange(1, n + 1, dtype=float)
    pair_sum = float(np.sum((2.0 * k - n - 1.0) * x))
    return term1 - pair_sum / (n * n)


# ---------------------------------------------------------------------------
# Other scores
# ---------------------------------------------------------------------------


def log_score(d: PiecewiseCDF, y: float) -> float:
    """Negative log predictive density at y (nats)."""
    if d.is_degenerate:
        raise DegenerateDistributionError("log score undefined for a point mass")
    return float(-d.log_density(y))


def interval_score(d: PiecewiseCDF, y: float, width: float) -> float:
    """Central-interval score at the given width (alpha = 1 - width)."""
    if not 0.0 < width < 1.0:
        raise ValueError("interval width must lie in (0, 1)")
    alpha = 1.0 - width
    lo = float(d.quantile(alpha / 2.0))
    hi = float(d.quantile(1.0 - alpha / 2.0))
    score = hi - lo
    if y < lo:
        score += (2.0 / alpha) * (lo - y)
    elif y > hi:
        score += (2.0 / alpha) * (y - hi)
    return score


# ---------------------------------------------------------------------------
# Calibration / aggregation over score columns
# ---------------------------------------------------------------------------


def finite_mean(values: np.ndarray) -> float:
    """Mean of the finite entries of ``values``; NaN when there are none."""
    finite = values[np.isfinite(values)]
    return float(np.mean(finite)) if finite.size else float("nan")


def interval_coverage(scores: Scores, interval: float) -> float:
    """Fraction of rows whose observation fell inside the central interval."""
    if len(scores) == 0:
        raise ValueError("no scores")
    return float(np.mean(scores.hits[:, scores.intervals.index(interval)]))


def mae_median(scores: Scores) -> float:
    """Mean absolute error of the predictive median."""
    if len(scores) == 0:
        raise ValueError("no scores")
    return float(np.mean(scores.abs_error_median))


def aggregate_by_lead(scores: Scores) -> List[Tuple[int, str, float, float, int]]:
    """(lead, metric, mean, sd, n) rows: leads ascending, each lead's metrics by name.

    NaN values (absent log scores) are left out of their own metric only.
    Metric ``hitNN`` is the coverage of the NN % central interval.  Rows are
    grouped by a stable sort on lead, so each group keeps the row order.
    """
    if len(scores) == 0:
        raise ValueError("no scores")
    columns = {
        "crps": scores.crps,
        "log_score": scores.log_score,
        "abs_error_median": scores.abs_error_median,
    }
    for j, w in enumerate(scores.intervals):
        columns[f"hit{round(w * 100):d}"] = scores.hits[:, j].astype(float)
    order = np.argsort(scores.lead_hours, kind="stable")
    leads, starts = np.unique(scores.lead_hours[order], return_index=True)
    ends = np.append(starts[1:], order.size)
    by_lead = {name: columns[name][order] for name in sorted(columns)}
    rows = []
    for lead, a, b in zip(leads.tolist(), starts.tolist(), ends.tolist()):
        for name, values in by_lead.items():
            group = values[a:b]
            finite = group[np.isfinite(group)]
            sd = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
            rows.append((lead, name, finite_mean(finite), sd, int(finite.size)))
    return rows
