"""Proper scoring rules and calibration metrics.

CRPS is integrated exactly over the piecewise form (closed-form integrals on
each linear segment and each exponential tail); a seeded Monte Carlo
estimator is kept alongside as an independent cross-check.  The raw-model
comparator uses the empirical-ensemble CRPS formula over whatever forecasts
cover an hour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .dist import DegenerateDistributionError, PiecewiseCDF

__all__ = [
    "ScoreRecord",
    "LeadAggregate",
    "crps",
    "crps_mc",
    "crps_ensemble",
    "log_score",
    "interval_score",
    "interval_coverage",
    "mae_median",
    "aggregate_by_lead",
]

#: Central prediction-interval widths tracked throughout the harness.
DEFAULT_INTERVALS = (0.5, 0.8, 0.9, 0.95)


@dataclass(eq=False)
class ScoreRecord:
    """Scores of one predictive distribution against one observation.

    ``log_score`` is NaN where undefined (point-mass forecast, or a raw
    comparator hour with fewer than two distinct members).  ``interval_hits``
    maps central-interval width to whether the observation fell inside.
    """

    valid_time: datetime
    lead_hours: int
    crps: float
    log_score: float
    abs_error_median: float
    interval_hits: Dict[float, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.crps < 0 or self.abs_error_median < 0:
            raise ValueError("crps and abs_error_median must be non-negative")


@dataclass(eq=False)
class LeadAggregate:
    """Across-scenario statistics of every metric at one lead hour."""

    lead_hours: int
    n: int
    means: Dict[str, float]
    sds: Dict[str, float]
    counts: Dict[str, int]


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


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
    total += np.sum(((pb[right] - 1.0) ** 3 - (pa[right] - 1.0) ** 3) / (3.0 * s[right]))
    total += np.sum((pb[left] ** 3 - pa[left] ** 3) / (3.0 * s[left]))
    if inside.any():
        fy = pa[inside] + s[inside] * (y - a[inside])
        total += np.sum((fy**3 - pa[inside] ** 3) / (3.0 * s[inside]))
        total += np.sum(((pb[inside] - 1.0) ** 3 - (fy - 1.0) ** 3) / (3.0 * s[inside]))

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
# Calibration / aggregation over score records
# ---------------------------------------------------------------------------


def interval_coverage(records: Sequence[ScoreRecord], interval: float) -> float:
    """Fraction of records whose observation fell inside the central interval."""
    if len(records) == 0:
        raise ValueError("no records")
    hits = [r.interval_hits[interval] for r in records]
    return float(np.mean(hits))


def mae_median(records: Sequence[ScoreRecord]) -> float:
    """Mean absolute error of the predictive median."""
    if len(records) == 0:
        raise ValueError("no records")
    return float(np.mean([r.abs_error_median for r in records]))


_METRICS = ("crps", "log_score", "abs_error_median")


def aggregate_by_lead(records: Sequence[ScoreRecord]) -> List[LeadAggregate]:
    """Group records by lead hour; mean/sd/count per metric and interval hit rate.

    NaN metric values (absent log scores) are excluded from their own metric
    but the record still counts elsewhere.  ``means["hitNN"]`` is the
    coverage of the NN % central interval.
    """
    if len(records) == 0:
        raise ValueError("no records")
    by_lead: Dict[int, List[ScoreRecord]] = {}
    for r in records:
        by_lead.setdefault(int(r.lead_hours), []).append(r)
    out: List[LeadAggregate] = []
    for lead in sorted(by_lead):
        group = by_lead[lead]
        means: Dict[str, float] = {}
        sds: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for name in _METRICS:
            vals = np.array([getattr(r, name) for r in group], dtype=float)
            finite = vals[np.isfinite(vals)]
            counts[name] = int(finite.size)
            means[name] = float(np.mean(finite)) if finite.size else float("nan")
            sds[name] = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
        for w in group[0].interval_hits:
            hits = np.array([float(r.interval_hits[w]) for r in group])
            key = f"hit{round(w * 100):d}"
            means[key] = float(np.mean(hits))
            sds[key] = float(np.std(hits, ddof=1)) if hits.size > 1 else 0.0
            counts[key] = int(hits.size)
        out.append(
            LeadAggregate(
                lead_hours=lead,
                n=len(group),
                means=means,
                sds=sds,
                counts=counts,
            )
        )
    return out
