"""Full predictive distributions built from quantile vectors.

The CDF is linear between consecutive quantile knots and exponential outside
them.  Each tail carries exactly the probability mass left over by the
outermost knot level, and its decay rate is chosen so the density is
continuous with the adjacent linear segment, which guarantees the density
integrates to one without tuning.

A vector whose values are all identical collapses to a point mass: the CDF
is a step, sampling returns the constant, and density-based quantities are
rejected with :class:`DegenerateDistributionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combine import QuantileVector

__all__ = ["PiecewiseCDF", "DegenerateDistributionError", "build_cdf"]

# Fallback decay scale (degC) when the boundary segment has no usable width.
_FALLBACK_TAIL_SCALE = 0.1


class DegenerateDistributionError(ValueError):
    """Raised when a density-based quantity is requested from a point mass."""


@dataclass(eq=False)
class PiecewiseCDF:
    """Piecewise-linear CDF with exponential tails.

    ``values``/``probs`` are the knots: values strictly increasing, probs
    strictly increasing within [0, 1].  ``lower_rate``/``upper_rate`` are the
    tail decay rates (1/degC); they are unused when the corresponding tail
    mass is zero or the distribution is a point mass (single knot).
    """

    values: np.ndarray
    probs: np.ndarray
    lower_rate: float = float("nan")
    upper_rate: float = float("nan")
    _slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if self.values.shape != self.probs.shape or self.values.size == 0:
            raise ValueError("knot values and probabilities must be same-length and non-empty")
        if self.values.size == 1:
            self._slopes = np.empty(0)
            return
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("knot values must be strictly increasing")
        if (
            self.probs[0] < 0.0
            or self.probs[-1] > 1.0
            or np.any(np.diff(self.probs) <= 0)
        ):
            raise ValueError("knot probabilities must be strictly increasing within [0, 1]")
        self._slopes = np.diff(self.probs) / np.diff(self.values)
        if self.probs[0] > 0.0 and not (self.lower_rate > 0.0):
            raise ValueError("lower tail carries mass but has no positive decay rate")
        if self.probs[-1] < 1.0 and not (self.upper_rate > 0.0):
            raise ValueError("upper tail carries mass but has no positive decay rate")

    # -- structure ---------------------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        return self.values.size == 1

    @property
    def lower_tail_mass(self) -> float:
        return 0.0 if self.is_degenerate else float(self.probs[0])

    @property
    def upper_tail_mass(self) -> float:
        return 0.0 if self.is_degenerate else float(1.0 - self.probs[-1])

    @classmethod
    def from_knots(cls, values, probs) -> "PiecewiseCDF":
        """Build a distribution from explicit CDF knots.

        Tail decay rates are set by density continuity with the boundary
        segments; boundary probs of exactly 0 / 1 give mass-free tails.
        """
        values = np.atleast_1d(np.asarray(values, dtype=float))
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if values.size == 1:
            return cls(values, np.array([1.0]))
        slopes = np.diff(probs) / np.diff(values)
        lower_rate = float("nan")
        if probs[0] > 0.0:
            lower_rate = slopes[0] / probs[0]
            if not np.isfinite(lower_rate) or lower_rate <= 0.0:
                lower_rate = probs[0] / _FALLBACK_TAIL_SCALE
        upper_rate = float("nan")
        if probs[-1] < 1.0:
            upper_rate = slopes[-1] / (1.0 - probs[-1])
            if not np.isfinite(upper_rate) or upper_rate <= 0.0:
                upper_rate = (1.0 - probs[-1]) / _FALLBACK_TAIL_SCALE
        return cls(values, probs, lower_rate, upper_rate)

    # -- evaluation --------------------------------------------------------

    def cdf(self, x):
        """P(X <= x).  Accepts a scalar or an array."""
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if self.is_degenerate:
            out = np.where(xv >= self.values[0], 1.0, 0.0)
            return _match(out, x)
        v, p = self.values, self.probs
        out = np.empty_like(xv)
        idx = np.searchsorted(v, xv, side="right")
        below = idx == 0
        above = idx == v.size
        mid = ~(below | above)
        if below.any():
            if p[0] > 0.0:
                out[below] = p[0] * np.exp(self.lower_rate * (xv[below] - v[0]))
            else:
                out[below] = 0.0
        if above.any():
            if p[-1] < 1.0:
                out[above] = 1.0 - (1.0 - p[-1]) * np.exp(-self.upper_rate * (xv[above] - v[-1]))
            else:
                out[above] = 1.0
        if mid.any():
            seg = idx[mid] - 1
            out[mid] = p[seg] + self._slopes[seg] * (xv[mid] - v[seg])
        return _match(out, x)

    def quantile(self, p):
        """Inverse CDF at probabilities strictly inside (0, 1)."""
        pv = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(pv <= 0.0) or np.any(pv >= 1.0):
            raise ValueError("quantile levels must lie strictly within (0, 1)")
        if self.is_degenerate:
            out = np.full_like(pv, self.values[0])
            return _match(out, p)
        v, kp = self.values, self.probs
        out = np.empty_like(pv)
        below = pv < kp[0]
        above = pv > kp[-1]
        mid = ~(below | above)
        if below.any():
            out[below] = v[0] + np.log(pv[below] / kp[0]) / self.lower_rate
        if above.any():
            out[above] = v[-1] - np.log((1.0 - pv[above]) / (1.0 - kp[-1])) / self.upper_rate
        if mid.any():
            # First knot with prob >= p; exact hits return the knot itself.
            j = np.searchsorted(kp, pv[mid], side="left")
            exact = kp[j] == pv[mid]
            res = np.empty(j.shape)
            res[exact] = v[j[exact]]
            seg = j[~exact] - 1
            res[~exact] = v[seg] + (pv[mid][~exact] - kp[seg]) / self._slopes[seg]
            out[mid] = res
        return _match(out, p)

    def density(self, x):
        """Predictive density: piecewise constant interior, exponential tails."""
        out = np.exp(self.log_density(x))
        return float(out) if np.ndim(x) == 0 else out

    def log_density(self, x):
        """Natural log of the density, evaluated in log space in the tails."""
        if self.is_degenerate:
            raise DegenerateDistributionError("point-mass distribution has no density")
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        v, p = self.values, self.probs
        out = np.full_like(xv, -np.inf)
        idx = np.searchsorted(v, xv, side="right")
        below = idx == 0
        above = idx == v.size
        mid = ~(below | above)
        if below.any() and p[0] > 0.0:
            out[below] = np.log(p[0] * self.lower_rate) + self.lower_rate * (xv[below] - v[0])
        if above.any() and p[-1] < 1.0:
            out[above] = np.log((1.0 - p[-1]) * self.upper_rate) - self.upper_rate * (
                xv[above] - v[-1]
            )
        if mid.any():
            out[mid] = np.log(self._slopes[idx[mid] - 1])
        return _match(out, x)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n values by seeded inverse-transform sampling."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        if self.is_degenerate:
            return np.full(n, self.values[0])
        u = np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        return self.quantile(u)

    def prob_below(self, threshold: float) -> float:
        """P(X < threshold), evaluated exactly from the CDF."""
        if self.is_degenerate:
            return 1.0 if threshold > self.values[0] else 0.0
        return float(self.cdf(threshold))


def _match(out: np.ndarray, reference) -> np.ndarray | float:
    """Return a scalar for scalar input, an array otherwise."""
    if np.ndim(reference) == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def build_cdf(q: QuantileVector) -> PiecewiseCDF:
    """Interpolate a quantile vector into a full distribution.

    Interior: linear CDF between consecutive (value, level) knots.  Tails:
    exponential, carrying the mass outside the outermost levels, with rates
    fixed by density continuity at the boundaries.  Runs of duplicate values
    (flat quantile functions) collapse to a single knot at the highest level
    of the run; if every value is identical the result is a point mass.
    """
    values = q.values
    levels = q.levels
    # Keep the last (highest-level) entry of each equal-value run.
    keep = np.append(values[1:] != values[:-1], True)
    kv = values[keep]
    kp = levels[keep]
    if kv.size == 1:
        return PiecewiseCDF(kv, np.array([1.0]))
    return PiecewiseCDF.from_knots(kv, kp)
