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

Averaged quantiles share one level grid, so the distributions of a whole
horizon are one :class:`CDFTable` of (hours x levels) knots.  Its
``quantile``, ``cdf``, ``log_density``, ``prob_below`` and ``sample``
evaluate every row at once; a :class:`PiecewiseCDF` is one distribution,
and its methods run the same kernels on a table of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .combine import QuantileVector

__all__ = ["CDFTable", "PiecewiseCDF", "DegenerateDistributionError", "build_cdf"]

# Fallback decay scale (degC) when the boundary segment's slope is unusable.
_FALLBACK_TAIL_SCALE = 0.1

# exp and log element by element through math: numpy's array kernels differ
# by SIMD level and round differently, so results would depend on the host.
_exp = np.vectorize(math.exp, otypes=[float])
_log = np.vectorize(math.log, otypes=[float])

# Clip limits of uniform draws, so that no draw maps to an infinite tail value.
_U_MIN = np.nextafter(0.0, 1.0)
_U_MAX = np.nextafter(1.0, 0.0)


class DegenerateDistributionError(ValueError):
    """Raised when a density-based quantity is requested from a point mass."""


def _tail_rates(values: np.ndarray, probs: np.ndarray):
    """Lower and upper tail decay rates (1/degC) of each row of knots.

    Each rate keeps the density continuous with the row's nearest segment of
    positive width; a rate that is not finite and positive (a subnormal
    width overflows the slope) becomes the tail mass over
    ``_FALLBACK_TAIL_SCALE``.  A tail without mass gets NaN.  Every row
    needs a segment of positive width.
    """
    n = len(values)
    lower, upper = np.full(n, np.nan), np.full(n, np.nan)
    width = np.diff(values, axis=1)
    wide = width > 0
    dp = np.diff(probs)
    rows = np.arange(n)
    if probs[0] > 0.0:
        j = wide.argmax(axis=1)
        with np.errstate(over="ignore"):  # a subnormal width: the rate is inf, so the fallback
            rate = dp[j] / width[rows, j] / probs[0]
        lower = np.where(np.isfinite(rate) & (rate > 0.0), rate, probs[0] / _FALLBACK_TAIL_SCALE)
    if probs[-1] < 1.0:
        j = wide.shape[1] - 1 - wide[:, ::-1].argmax(axis=1)
        with np.errstate(over="ignore"):
            rate = dp[j] / width[rows, j] / (1.0 - probs[-1])
        fallback = (1.0 - probs[-1]) / _FALLBACK_TAIL_SCALE
        upper = np.where(np.isfinite(rate) & (rate > 0.0), rate, fallback)
    return lower, upper


def _right_index(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values[i], x[i], side="right")`` for every row i at once.

    The count of knots not above each entry of ``x`` (a NaN counts every
    knot, as NaN sorts last), found by one bisection over all rows.
    """
    k = values.shape[1]
    rows = np.arange(len(values))[:, None]
    idx = np.zeros(x.shape, dtype=np.intp)
    step = 1 << (k.bit_length() - 1)
    while step:  # binary lifting: idx ends as the count of knots not above x
        cand = idx + step
        fits = (cand <= k) & ~(values[rows, np.minimum(cand, k) - 1] > x)
        idx = np.where(fits, cand, idx)
        step >>= 1
    return idx


@dataclass(eq=False)
class CDFTable:
    """Piecewise-linear CDFs with exponential tails, one per row, on shared levels.

    ``values`` is (rows x K), each row non-decreasing, and ``probs`` the K
    levels, strictly increasing within [0, 1].  A row flagged in
    ``point_mass`` is one point mass at its (equal) values; every other row
    has a first value below its last.  ``lower_rate``/``upper_rate`` are each
    row's tail decay rates (1/degC), unused where that tail has no mass or
    the row is a point mass.
    """

    values: np.ndarray
    probs: np.ndarray
    point_mass: np.ndarray
    lower_rate: np.ndarray
    upper_rate: np.ndarray
    _slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        self.point_mass = np.asarray(self.point_mass, dtype=bool)
        self.lower_rate = np.asarray(self.lower_rate, dtype=float)
        self.upper_rate = np.asarray(self.upper_rate, dtype=float)
        n = len(self.values)
        v, p, mass = self.values, self.probs, self.point_mass
        if v.ndim != 2 or p.shape != v.shape[1:] or p.size == 0:
            raise ValueError("knot values must be (rows x levels) on non-empty levels")
        if any(a.shape != (n,) for a in (mass, self.lower_rate, self.upper_rate)):
            raise ValueError("point-mass flags and tail rates need one entry per row")
        if p[0] < 0.0 or p[-1] > 1.0 or np.any(np.diff(p) <= 0):
            raise ValueError("knot probabilities must be strictly increasing within [0, 1]")
        width = np.diff(v, axis=1)
        if np.any(width < 0) or np.any(mass == (v[:, 0] < v[:, -1])):
            raise ValueError(
                "knot values must be non-decreasing, and all equal exactly in a point mass"
            )
        live = ~mass
        if p[0] > 0.0 and not np.all(self.lower_rate[live] > 0.0):
            raise ValueError("lower tail carries mass but has no positive decay rate")
        if p[-1] < 1.0 and not np.all(self.upper_rate[live] > 0.0):
            raise ValueError("upper tail carries mass but has no positive decay rate")
        # a jump's zero-width segment gets an infinite slope, and so does a subnormal width
        slopes = np.full(width.shape, np.inf)
        with np.errstate(over="ignore"):
            self._slopes = np.divide(np.diff(p), width, out=slopes, where=width > 0)

    @classmethod
    def from_quantiles(cls, levels, values) -> "CDFTable":
        """One distribution per row of quantile ``values`` on ``levels``.

        Every (value, level) pair is a knot; a row whose first and last
        values are equal is a point mass.  Tail rates follow
        :func:`_tail_rates`.
        """
        values = np.asarray(values, dtype=float)
        levels = np.asarray(levels, dtype=float)
        mass = values[:, 0] == values[:, -1]
        lower, upper = np.full(len(values), np.nan), np.full(len(values), np.nan)
        live = ~mass
        if live.any():
            lower[live], upper[live] = _tail_rates(values[live], levels)
        return cls(values, levels, mass, lower, upper)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice) -> "CDFTable":
        """The table of the rows in ``rows``."""
        return CDFTable(
            self.values[rows],
            self.probs,
            self.point_mass[rows],
            self.lower_rate[rows],
            self.upper_rate[rows],
        )

    def row(self, i: int) -> "PiecewiseCDF":
        """Row ``i`` as a :class:`PiecewiseCDF`."""
        if self.point_mass[i]:
            return PiecewiseCDF(self.values[i, -1:], np.array([1.0]))
        return PiecewiseCDF(
            self.values[i], self.probs, float(self.lower_rate[i]), float(self.upper_rate[i])
        )

    # -- evaluation: every argument and result is (rows x m) ---------------

    def cdf(self, x) -> np.ndarray:
        """P(X <= x) of each row at its row of ``x``, right-continuous at a jump."""
        x = np.asarray(x, dtype=float)
        v, p = self.values, self.probs
        idx = _right_index(v, x)
        out = np.empty(x.shape)
        live = ~self.point_mass[:, None]
        below = live & (idx == 0)
        above = live & (idx == p.size)
        mid = live & ~(below | above)
        with np.errstate(over="ignore"):  # a steep tail's rate x distance: exp gives the limit
            if below.any():
                if p[0] > 0.0:
                    r = np.nonzero(below)[0]
                    out[below] = p[0] * _exp(self.lower_rate[r] * (x[below] - v[r, 0]))
                else:
                    out[below] = 0.0
            if above.any():
                if p[-1] < 1.0:
                    r = np.nonzero(above)[0]
                    rate = self.upper_rate[r]
                    out[above] = 1.0 - (1.0 - p[-1]) * _exp(-rate * (x[above] - v[r, -1]))
                else:
                    out[above] = 1.0
        if mid.any():
            r = np.nonzero(mid)[0]
            seg = idx[mid] - 1
            dx, slope = x[mid] - v[r, seg], self._slopes[r, seg]
            # A segment of subnormal width has no finite slope: it takes p[seg] at its
            # left knot and p[seg + 1] past it.
            steep = ~np.isfinite(slope)
            val = p[seg + (steep & (dx > 0.0))]
            val[~steep] += slope[~steep] * dx[~steep]
            out[mid] = val
        mass = self.point_mass
        out[mass] = np.where(x[mass] >= v[mass, -1:], 1.0, 0.0)
        return out

    def log_density(self, x) -> np.ndarray:
        """Log density of each row at its row of ``x``: at a knot the segment
        above's, in log space in the tails, -inf in a tail without mass, NaN
        for a point mass."""
        x = np.asarray(x, dtype=float)
        v, p = self.values, self.probs
        idx = _right_index(v, x)
        out = np.full(x.shape, -np.inf)
        live = ~self.point_mass[:, None]
        below = live & (idx == 0)
        above = live & (idx == p.size)
        mid = live & ~(below | above)
        with np.errstate(over="ignore"):  # a steep tail's rate x distance: -inf, the limit
            if below.any() and p[0] > 0.0:
                r = np.nonzero(below)[0]
                rate = self.lower_rate[r]
                out[below] = _log(p[0] * rate) + rate * (x[below] - v[r, 0])
            if above.any() and p[-1] < 1.0:
                r = np.nonzero(above)[0]
                rate = self.upper_rate[r]
                out[above] = _log((1.0 - p[-1]) * rate) - rate * (x[above] - v[r, -1])
        if mid.any():
            r = np.nonzero(mid)[0]
            out[mid] = _log(self._slopes[r, idx[mid] - 1])
        out[self.point_mass] = np.nan
        return out

    def quantile(self, p) -> np.ndarray:
        """Inverse CDF of each row at its row of levels ``p``, all within (0, 1);
        every level within a jump gives the jump's value."""
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("quantile levels must lie strictly within (0, 1)")
        v, kp = self.values, self.probs
        out = np.empty(p.shape)
        live = ~self.point_mass[:, None]
        below = live & (p < kp[0])
        above = live & (p > kp[-1])
        mid = live & ~(below | above)
        if below.any():
            r = np.nonzero(below)[0]
            out[below] = v[r, 0] + _log(p[below] / kp[0]) / self.lower_rate[r]
        if above.any():
            r = np.nonzero(above)[0]
            out[above] = v[r, -1] - _log((1.0 - p[above]) / (1.0 - kp[-1])) / self.upper_rate[r]
        if mid.any():
            # First knot with prob >= p; exact hits return the knot itself
            # and a jump's infinite slope adds nothing.
            r, pm = np.nonzero(mid)[0], p[mid]
            j = np.searchsorted(kp, pm, side="left")
            exact = kp[j] == pm
            res = np.empty(pm.shape)
            res[exact] = v[r[exact], j[exact]]
            r, seg, pm = r[~exact], j[~exact] - 1, pm[~exact]
            res[~exact] = v[r, seg] + (pm - kp[seg]) / self._slopes[r, seg]
            out[mid] = res
        mass = self.point_mass
        out[mass] = v[mass, -1:]
        return out

    def prob_below(self, threshold: float) -> np.ndarray:
        """P(X < threshold) of each row from its CDF; at a jump's value the
        jump counts too, except for a point mass."""
        out = self.cdf(np.full((len(self), 1), threshold))[:, 0]
        mass = self.point_mass
        out[mass] = np.where(threshold > self.values[mass, -1], 1.0, 0.0)
        return out

    def sample(self, draws: int, seeds: Sequence[int]) -> np.ndarray:
        """``draws`` values per row by inverse-transform sampling, row i's
        uniforms drawn from ``np.random.default_rng(seeds[i])``."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        if len(seeds) != len(self):
            raise ValueError("sample needs one seed per row")
        u = np.empty((len(self), draws))
        for i, seed in enumerate(seeds):
            np.random.default_rng(seed).random(out=u[i])
        return self.quantile(np.clip(u, _U_MIN, _U_MAX, out=u))


@dataclass(eq=False)
class PiecewiseCDF:
    """Piecewise-linear CDF with exponential tails: one distribution.

    ``values``/``probs`` are the knots: values non-decreasing and not all
    equal (a single knot is a point mass), probs strictly increasing within
    [0, 1].  ``lower_rate``/``upper_rate`` are the tail decay rates (1/degC);
    unused when that tail has no mass or the distribution is a point mass.
    Evaluation runs the :class:`CDFTable` kernels on ``table``, the one row.
    """

    values: np.ndarray
    probs: np.ndarray
    lower_rate: float = float("nan")
    upper_rate: float = float("nan")
    table: CDFTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        self.probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if self.values.shape != self.probs.shape or self.values.size == 0:
            raise ValueError("knot values and probabilities must be same-length and non-empty")
        self.table = CDFTable(
            self.values[None, :],
            self.probs,
            [self.values.size == 1],
            [self.lower_rate],
            [self.upper_rate],
        )

    # -- structure ---------------------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        return self.values.size == 1

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
        if values.shape != probs.shape or not np.any(np.diff(values) > 0):
            return cls(values, probs)  # raises
        lower, upper = _tail_rates(values[None, :], probs)
        return cls(values, probs, float(lower[0]), float(upper[0]))

    # -- evaluation --------------------------------------------------------

    def cdf(self, x):
        """P(X <= x), right-continuous at a jump.  Accepts a scalar or an array."""
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        return _match(self.table.cdf(xv.reshape(1, -1)).reshape(xv.shape), x)

    def quantile(self, p):
        """Inverse CDF on (0, 1); every level within a jump gives the jump's value."""
        pv = np.atleast_1d(np.asarray(p, dtype=float))
        return _match(self.table.quantile(pv.reshape(1, -1)).reshape(pv.shape), p)

    def log_density(self, x):
        """Log density (at a knot, the segment above's), in log space in the tails."""
        if self.is_degenerate:
            raise DegenerateDistributionError("point-mass distribution has no density")
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        return _match(self.table.log_density(xv.reshape(1, -1)).reshape(xv.shape), x)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n values by seeded inverse-transform sampling."""
        return self.table.sample(n, [seed])[0]

    def prob_below(self, threshold: float) -> float:
        """P(X < threshold) from the CDF; at a jump's value the jump counts too."""
        return float(self.table.prob_below(threshold)[0])


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
