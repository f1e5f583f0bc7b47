"""Full predictive distributions built from quantile vectors.

The CDF passes through every (value, level) knot, linear between them and
exponential outside.  A run of equal values is a point mass (Genest 1992,
*Vincentization revisited*): the CDF jumps there to the run's highest level,
right-continuous as ``np.interp`` over the knots, so the density integrates
to one minus the jumps.  Each tail carries the mass beyond the outermost
level, with a decay rate that keeps the density continuous with the nearest
segment of positive width.  If every value is equal the distribution is one
point mass: sampling returns the constant, and density-based quantities
raise :class:`DegenerateDistributionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combine import QuantileVector

__all__ = ["PiecewiseCDF", "DegenerateDistributionError", "build_cdf"]

# Fallback decay scale (degC) when the boundary segment's slope is unusable.
_FALLBACK_TAIL_SCALE = 0.1


class DegenerateDistributionError(ValueError):
    """Raised when a density-based quantity is requested from a point mass."""


@dataclass(eq=False)
class PiecewiseCDF:
    """Piecewise-linear CDF with exponential tails.

    ``values``/``probs`` are the knots: values non-decreasing and not all
    equal (a single knot is a point mass), probs strictly increasing within
    [0, 1].  ``lower_rate``/``upper_rate`` are the tail decay rates (1/degC);
    unused when that tail has no mass or the distribution is a point mass.
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
        width = np.diff(self.values)
        if np.any(width < 0) or self.values[0] == self.values[-1]:
            raise ValueError("knot values must be non-decreasing and not all equal")
        if (
            self.probs[0] < 0.0
            or self.probs[-1] > 1.0
            or np.any(np.diff(self.probs) <= 0)
        ):
            raise ValueError("knot probabilities must be strictly increasing within [0, 1]")
        # a jump's zero-width segment gets an infinite slope
        slopes = np.full(width.size, np.inf)
        self._slopes = np.divide(np.diff(self.probs), width, out=slopes, where=width > 0)
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

        Tail decay rates are set by density continuity with the nearest
        segment of positive width; boundary probs of 0 / 1 give mass-free tails.
        """
        values = np.atleast_1d(np.asarray(values, dtype=float))
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if values.size == 1:
            return cls(values, np.array([1.0]))
        wide = np.diff(values) > 0
        if values.shape != probs.shape or not wide.any():
            return cls(values, probs)  # raises
        slopes = np.diff(probs)[wide] / np.diff(values)[wide]
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
        """P(X <= x), right-continuous at a jump.  Accepts a scalar or an array."""
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
        """Inverse CDF on (0, 1); every level within a jump gives the jump's value."""
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
            # First knot with prob >= p; exact hits return the knot itself
            # and a jump's infinite slope adds nothing.
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
        """Log density (at a knot, the segment above's), in log space in the tails."""
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
        """P(X < threshold) from the CDF; at a jump's value the jump counts too."""
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

    Every (value, level) pair is a knot, so the distribution passes through
    each quantile; a run of equal values is a jump over the run's levels, and
    the density integrates to one minus the jumps.  The tails are exponential
    (see the module docstring).  If the first and last values are equal the
    result is a single point mass.
    """
    if q.values[0] == q.values[-1]:
        return PiecewiseCDF(q.values[-1:], np.array([1.0]))
    return PiecewiseCDF.from_knots(q.values, q.levels)
