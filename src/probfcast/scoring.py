"""Proper scoring rules and calibration metrics.

CRPS is integrated exactly over the piecewise form (closed-form integrals on
each linear segment and each exponential tail); a seeded Monte Carlo
estimator is kept alongside as an independent cross-check.  The raw-model
comparator uses the empirical-ensemble CRPS formula over whatever forecasts
cover an hour.  Each score has one kernel over many hours at once
(:func:`crps_batch`, :func:`log_score_batch`, :func:`crps_ensemble_batch`);
the per-hour functions run it on one hour.  The scores of many hours travel
as one :class:`Scores` table of columns, which coverage, median MAE and the
per-lead aggregation read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

from .combine import hour_blocks
from .dist import CDFTable, DegenerateDistributionError, PiecewiseCDF, _exp

__all__ = [
    "Scores",
    "crps",
    "crps_batch",
    "crps_mc",
    "crps_ensemble",
    "crps_ensemble_batch",
    "log_score",
    "log_score_batch",
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
    absolute error of the predictive median.  CRPS and absolute errors are
    non-negative numbers, never NaN.  ``hits`` has one column per
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
        # written so that NaN fails too
        if not (np.all(self.crps >= 0) and np.all(self.abs_error_median >= 0)):
            raise ValueError("crps and abs_error_median must be non-negative, not NaN")

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


def _row_sums(mask: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Each row's sum of ``terms``, which fill the entries of ``mask`` in row
    order, added in sequence along the row (an unmasked entry adds 0.0)."""
    padded = np.zeros(mask.shape)
    padded[mask] = terms
    return np.cumsum(padded, axis=1)[:, -1]


def crps_batch(cdfs: CDFTable, y) -> np.ndarray:
    """Exact CRPS of each row of ``cdfs`` at its observation in ``y`` (degC).

    Integrates (F(x) - 1{x >= y})^2 in closed form over each linear segment
    and each exponential tail.  Each row adds its lower tail, then its sums
    over the segments right of y, left of y and around y, then its upper
    tail.  A segment
    without a finite slope is a jump (zero width, or a width so small that
    the slope overflows) and adds nothing.  A point mass scores its absolute
    error.
    """
    y = np.asarray(y, dtype=float)
    out = np.abs(y - cdfs.values[:, -1])
    live = np.flatnonzero(~cdfs.point_mass)
    if not live.size:
        return out
    v, p, y = cdfs.values[live], cdfs.probs, y[live]
    total = np.zeros(live.size)

    # Lower tail: F = m * exp(lam * (x - v0)) on (-inf, v0].
    m, v0 = float(p[0]), v[:, 0]
    if m > 0.0:
        lam = cdfs.lower_rate[live]
        at = y >= v0
        total[at] += m * m / (2.0 * lam[at])
        lo = ~at
        lam, y_lo, v0_lo = lam[lo], y[lo], v0[lo]
        with np.errstate(over="ignore"):  # a steep tail's rate x distance: e1 is 0, the limit
            e1 = _exp(lam * (y_lo - v0_lo))
        e2 = e1 * e1
        total[lo] += m * m * e2 / (2.0 * lam)
        upper = m * m / (2.0 * lam) - 2.0 * m / lam + v0_lo
        lower = m * m * e2 / (2.0 * lam) - 2.0 * m * e1 / lam + y_lo
        total[lo] += upper - lower
    else:
        lo = y < v0
        total[lo] += v0[lo] - y[lo]

    # Segments; a jump adds nothing.
    slopes = cdfs._slopes[live]
    wide = np.isfinite(slopes)
    shape = slopes.shape
    a, b = v[:, :-1], v[:, 1:]
    pa, pb = np.broadcast_to(p[:-1], shape), np.broadcast_to(p[1:], shape)
    yy = np.broadcast_to(y[:, None], shape)
    right = wide & (yy <= a)  # observation at or left of segment: target function is 1
    left = wide & (yy >= b)  # observation at or right of segment: target is 0
    inside = wide & ~(right | left)
    with np.errstate(over="ignore"):  # 3 x a slope past 6e307 is inf, and its term 0.0
        s = slopes[right]
        total += _row_sums(right, (_cube(pb[right] - 1.0) - _cube(pa[right] - 1.0)) / (3.0 * s))
        s = slopes[left]
        total += _row_sums(left, (_cube(pb[left]) - _cube(pa[left])) / (3.0 * s))
        s, pa_in = slopes[inside], pa[inside]
        fy = pa_in + s * (yy[inside] - a[inside])
        total += _row_sums(inside, (_cube(fy) - _cube(pa_in)) / (3.0 * s))
        total += _row_sums(inside, (_cube(pb[inside] - 1.0) - _cube(fy - 1.0)) / (3.0 * s))

    # Upper tail: 1 - F = q * exp(-mu * (x - vK)) on [vK, inf).
    q, vk = float(1.0 - p[-1]), v[:, -1]
    if q > 0.0:
        mu = cdfs.upper_rate[live]
        at = y <= vk
        total[at] += q * q / (2.0 * mu[at])
        hi = ~at
        mu = mu[hi]
        delta = y[hi] - vk[hi]
        with np.errstate(over="ignore"):
            e1 = _exp(-mu * delta)
        e2 = e1 * e1
        total[hi] += delta - 2.0 * q * (1.0 - e1) / mu + q * q * (1.0 - e2) / (2.0 * mu)
        total[hi] += q * q * e2 / (2.0 * mu)
    else:
        hi = y > vk
        total[hi] += y[hi] - vk[hi]

    out[live] = np.where(total > 0.0, total, 0.0)
    return out


def crps(d: PiecewiseCDF, y: float) -> float:
    """Exact CRPS of one distribution at observation y (degC): the one-row
    case of :func:`crps_batch`."""
    return float(crps_batch(d.table, [y])[0])


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


def crps_ensemble_batch(members, y) -> np.ndarray:
    """Empirical-ensemble CRPS of each row of the (hours x k) ``members`` at
    its observation in ``y``: mean|m - y| - mean pairwise |mi - mj| / 2."""
    x = np.sort(np.asarray(members, dtype=float), axis=1)
    n = x.shape[1]
    if n == 0:
        raise ValueError("ensemble must be non-empty")
    term1 = np.mean(np.abs(x - np.asarray(y, dtype=float)[:, None]), axis=1)
    k = np.arange(1, n + 1, dtype=float)
    pair_sum = np.sum((2.0 * k - n - 1.0) * x, axis=1)  # sum over pairs of |xi - xj| / 2
    return term1 - pair_sum / (n * n)


def crps_ensemble(members: Sequence[float], y: float) -> float:
    """Empirical-ensemble CRPS of one hour's members: the one-row case of
    :func:`crps_ensemble_batch`."""
    return float(crps_ensemble_batch(np.asarray(members, dtype=float)[None, :], [y])[0])


# ---------------------------------------------------------------------------
# Other scores
# ---------------------------------------------------------------------------


def log_score_batch(cdfs: CDFTable, y) -> np.ndarray:
    """Negative log predictive density (nats) of each row of ``cdfs`` at its
    observation in ``y``; NaN for a point mass."""
    y = np.asarray(y, dtype=float)
    out = -cdfs.log_density(y[:, None])[:, 0]
    out[cdfs.point_mass] = np.nan  # negation would set the sign bit of the density's NaN
    return out


def log_score(d: PiecewiseCDF, y: float) -> float:
    """Negative log predictive density at y (nats): the one-row case of
    :func:`log_score_batch`."""
    if d.is_degenerate:
        raise DegenerateDistributionError("log score undefined for a point mass")
    return float(log_score_batch(d.table, [y])[0])


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


def aggregate_by_lead(scores: Scores) -> Tuple[np.ndarray, List[str], np.ndarray, ...]:
    """Columns (lead, metric, mean, sd, n), an entry per lead and metric:
    leads ascending, each lead's metrics by name (``hitNN``: the coverage of
    the NN % central interval).  Each mean and sd (``ddof=1``, or 0.0 below
    two values) is over a metric's finite values at a lead, in row order,
    and n counts them: a NaN log score is left out of its own metric only,
    and a lead without any has a NaN mean.  Leads with the same count share
    one ``np.mean`` and one ``np.std`` along axis 1, which equal the calls
    on each lead's values alone."""
    if len(scores) == 0:
        raise ValueError("no scores")
    columns = {
        "crps": scores.crps,
        "log_score": scores.log_score,
        "abs_error_median": scores.abs_error_median,
    }
    for j, w in enumerate(scores.intervals):
        columns[f"hit{round(w * 100):d}"] = scores.hits[:, j].astype(float)
    names = sorted(columns)
    order = np.argsort(scores.lead_hours, kind="stable")
    leads, lead_of = np.unique(scores.lead_hours[order], return_inverse=True)
    shape = (leads.size, len(names))
    mean, sd, n = np.full(shape, np.nan), np.zeros(shape), np.zeros(shape, dtype=np.int64)
    for j, name in enumerate(names):
        values = columns[name][order]
        finite = np.isfinite(values)
        kept = values[finite]  # still grouped by lead, in row order
        n[:, j] = np.bincount(lead_of[finite], minlength=leads.size)
        for group, block in hour_blocks(n[:, j]):
            if block.shape[1]:
                mean[group, j] = np.mean(kept[block], axis=1)
            if block.shape[1] > 1:
                sd[group, j] = np.std(kept[block], axis=1, ddof=1)
    return np.repeat(leads, len(names)), names * leads.size, mean.ravel(), sd.ravel(), n.ravel()
