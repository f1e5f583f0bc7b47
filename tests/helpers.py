"""Independent numerical oracles shared across test modules."""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Optional

import numpy as np

from probfcast.ingest import Dataset, Forecasts, Observations, hour_index, hour_time

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def tail_masses(d):
    """Probability mass in a distribution's lower and upper exponential tails."""
    if d.is_degenerate:
        return 0.0, 0.0
    return float(d.probs[0]), float(1.0 - d.probs[-1])


def density(d, x):
    """Predictive density of a ``PiecewiseCDF``: the exp of its log density."""
    out = _reference_exp(np.atleast_1d(d.log_density(x)))
    return float(out[0]) if np.ndim(x) == 0 else out


def integrate_density(d, n_interior=100_000, n_tail=5_000, efolds=12.0):
    """Unit-mass check: piece-aligned trapezoid plus analytic tail remainders.

    Every segment is integrated with both endpoints sampled strictly inside
    the piece (the density is evaluated pointwise only), so interior pieces
    carry no discretisation error and the exponential tails dominate the
    error budget.  The mass beyond `efolds` e-foldings is added analytically.
    """
    v = d.values
    lower_mass, upper_mass = tail_masses(d)
    pieces = []
    if lower_mass > 0:
        pieces.append((v[0] - efolds / d.lower_rate, v[0], n_tail))
    total_len = v[-1] - v[0]
    for a, b in zip(v[:-1], v[1:]):
        n = max(8, int(round(n_interior * (b - a) / total_len)))
        pieces.append((a, b, n))
    if upper_mass > 0:
        pieces.append((v[-1], v[-1] + efolds / d.upper_rate, n_tail))
    area = 0.0
    for a, b, n in pieces:
        xs = np.linspace(a, np.nextafter(b, a), n)
        area += _trapezoid(density(d, xs), xs)
    remainder = (lower_mass + upper_mass) * np.exp(-efolds)
    return area + remainder


def ks_statistic(d, samples):
    """Kolmogorov-Smirnov distance between an empirical sample and d's CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = d.cdf(xs)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return float(max(up, down))


def random_quantile_vector(rng, levels):
    """Random monotone values on the shared grid, drawn from varied shapes."""
    kind = rng.integers(3)
    if kind == 0:
        vals = rng.normal(rng.uniform(-10, 10), rng.uniform(0.3, 5.0), levels.size)
    elif kind == 1:
        vals = rng.exponential(rng.uniform(0.5, 3.0), levels.size) + rng.uniform(-5, 5)
    else:
        vals = rng.uniform(-1, 1, levels.size) * rng.uniform(0.5, 8.0) + rng.uniform(-10, 10)
    return np.sort(vals)


@dataclass(frozen=True)
class ReferenceCDF:
    """One hour's distribution as the per-hour code held it: its knots and tail rates."""

    values: np.ndarray
    probs: np.ndarray
    lower_rate: float
    upper_rate: float

    @property
    def is_degenerate(self):
        return self.values.size == 1

    @property
    def slopes(self):
        width = np.diff(self.values)
        slopes = np.full(width.size, np.inf)
        with np.errstate(over="ignore"):  # a subnormal width: an infinite slope, a jump
            return np.divide(np.diff(self.probs), width, out=slopes, where=width > 0)


def reference_build_cdf(levels, values):
    """Per-hour build: a point mass at the last value when the first and last
    are equal; otherwise every knot, with tail rates by density continuity
    with the nearest segment of positive width, or the tail mass over
    ``_FALLBACK_TAIL_SCALE`` when that rate is not finite and positive."""
    from probfcast.dist import _FALLBACK_TAIL_SCALE

    values = np.asarray(values, dtype=float)
    probs = np.asarray(levels, dtype=float)
    if values[0] == values[-1]:
        return ReferenceCDF(values[-1:], np.array([1.0]), float("nan"), float("nan"))
    wide = np.diff(values) > 0
    lower_rate = upper_rate = float("nan")
    with np.errstate(over="ignore"):  # a subnormal width: an infinite slope, and rate
        slopes = np.diff(probs)[wide] / np.diff(values)[wide]
        if probs[0] > 0.0:
            lower_rate = slopes[0] / probs[0]
        if probs[-1] < 1.0:
            upper_rate = slopes[-1] / (1.0 - probs[-1])
    if probs[0] > 0.0 and not (np.isfinite(lower_rate) and lower_rate > 0.0):
        lower_rate = probs[0] / _FALLBACK_TAIL_SCALE
    if probs[-1] < 1.0 and not (np.isfinite(upper_rate) and upper_rate > 0.0):
        upper_rate = (1.0 - probs[-1]) / _FALLBACK_TAIL_SCALE
    return ReferenceCDF(values, probs, lower_rate, upper_rate)


def _reference_exp(x):
    return np.array([math.exp(e) for e in x], dtype=float)


def _reference_log(x):
    return np.array([math.log(e) for e in x], dtype=float)


def reference_cdf(d, x):
    """Per-hour P(X <= x) at each entry of the 1-D array ``x``."""
    xv = np.asarray(x, dtype=float)
    if d.is_degenerate:
        return np.where(xv >= d.values[0], 1.0, 0.0)
    v, p = d.values, d.probs
    out = np.empty_like(xv)
    idx = np.searchsorted(v, xv, side="right")
    below = idx == 0
    above = idx == v.size
    mid = ~(below | above)
    with np.errstate(over="ignore"):  # a steep tail's rate x distance: exp gives the limit
        if below.any():
            if p[0] > 0.0:
                out[below] = p[0] * _reference_exp(d.lower_rate * (xv[below] - v[0]))
            else:
                out[below] = 0.0
        if above.any():
            if p[-1] < 1.0:
                lam = d.upper_rate
                out[above] = 1.0 - (1.0 - p[-1]) * _reference_exp(-lam * (xv[above] - v[-1]))
            else:
                out[above] = 1.0
    if mid.any():
        seg = idx[mid] - 1
        dx, slope = xv[mid] - v[seg], d.slopes[seg]
        steep = ~np.isfinite(slope)  # subnormal width: p[seg] at the left knot, p[seg + 1] past it
        val = p[seg + (steep & (dx > 0.0))]
        val[~steep] += slope[~steep] * dx[~steep]
        out[mid] = val
    return out


def reference_quantile(d, p):
    """Per-hour inverse CDF at each entry of the 1-D array ``p``, all within (0, 1)."""
    pv = np.asarray(p, dtype=float)
    if np.any(pv <= 0.0) or np.any(pv >= 1.0):
        raise ValueError("quantile levels must lie strictly within (0, 1)")
    if d.is_degenerate:
        return np.full_like(pv, d.values[0])
    v, kp = d.values, d.probs
    out = np.empty_like(pv)
    below = pv < kp[0]
    above = pv > kp[-1]
    mid = ~(below | above)
    if below.any():
        out[below] = v[0] + _reference_log(pv[below] / kp[0]) / d.lower_rate
    if above.any():
        out[above] = v[-1] - _reference_log((1.0 - pv[above]) / (1.0 - kp[-1])) / d.upper_rate
    if mid.any():
        j = np.searchsorted(kp, pv[mid], side="left")
        exact = kp[j] == pv[mid]
        res = np.empty(j.shape)
        res[exact] = v[j[exact]]
        seg = j[~exact] - 1
        res[~exact] = v[seg] + (pv[mid][~exact] - kp[seg]) / d.slopes[seg]
        out[mid] = res
    return out


def reference_sample(d, n, seed):
    """Per-hour draws: n seeded uniforms, clipped into (0, 1), through the inverse CDF."""
    u = np.random.default_rng(seed).random(n)
    if d.is_degenerate:
        return np.full(n, d.values[0])
    u = np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return reference_quantile(d, u)


def reference_prob_below(d, threshold):
    """Per-hour probability below ``threshold``: the CDF there, jump included,
    except that a point mass counts only when strictly below."""
    if d.is_degenerate:
        return 1.0 if threshold > d.values[0] else 0.0
    return float(reference_cdf(d, np.array([threshold]))[0])


def reference_log_density(d, x):
    """Per-hour log density at each entry of the 1-D array ``x``: at a knot the
    segment above's, in log space in the tails, -inf in a tail without mass."""
    xv = np.asarray(x, dtype=float)
    v, p = d.values, d.probs
    out = np.full_like(xv, -np.inf)
    idx = np.searchsorted(v, xv, side="right")
    below = idx == 0
    above = idx == v.size
    mid = ~(below | above)
    with np.errstate(over="ignore"):  # a steep tail's rate x distance: -inf, the limit
        if below.any() and p[0] > 0.0:
            out[below] = math.log(p[0] * d.lower_rate) + d.lower_rate * (xv[below] - v[0])
        if above.any() and p[-1] < 1.0:
            lam = d.upper_rate
            out[above] = math.log((1.0 - p[-1]) * lam) - lam * (xv[above] - v[-1])
    if mid.any():
        out[mid] = _reference_log(d.slopes[idx[mid] - 1])
    return out


def reference_log_score(d, y):
    """Per-hour negative log density at ``y``; NaN for a point mass."""
    if d.is_degenerate:
        return float("nan")
    return float(-reference_log_density(d, np.array([y]))[0])


def _reference_sum(x):
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def _reference_cube(x):
    return x * x * x


def reference_crps(d, y):
    """Per-hour exact CRPS at ``y``: closed-form integrals over each linear
    segment and each exponential tail, each group of segments summed in
    sequence.  A segment whose slope is not finite (zero width, or a width
    so small that the slope overflows) is a jump and adds nothing.  A point
    mass scores its absolute error."""
    y = float(y)
    if d.is_degenerate:
        return abs(y - float(d.values[0]))
    v, p = d.values, d.probs
    total = 0.0

    m = float(p[0])
    if m > 0.0:
        lam = d.lower_rate
        if y >= v[0]:
            total += m * m / (2.0 * lam)
        else:
            with np.errstate(over="ignore"):  # a steep tail's rate x distance: e1 is 0
                e1 = math.exp(lam * (y - v[0]))
            e2 = e1 * e1
            total += m * m * e2 / (2.0 * lam)
            upper = m * m / (2.0 * lam) - 2.0 * m / lam + v[0]
            lower = m * m * e2 / (2.0 * lam) - 2.0 * m * e1 / lam + y
            total += upper - lower
    elif y < v[0]:
        total += v[0] - y

    wide = v[1:] > v[:-1]
    a, b = v[:-1][wide], v[1:][wide]
    pa, pb = p[:-1][wide], p[1:][wide]
    with np.errstate(over="ignore"):  # a subnormal width: a jump
        s = (pb - pa) / (b - a)
    finite = np.isfinite(s)
    a, b, pa, pb, s = a[finite], b[finite], pa[finite], pb[finite], s[finite]
    right = y <= a
    left = y >= b
    inside = ~(right | left)
    cube = _reference_cube
    with np.errstate(over="ignore"):  # 3 x a slope past 6e307 is inf, and its term 0.0
        total += _reference_sum((cube(pb[right] - 1.0) - cube(pa[right] - 1.0)) / (3.0 * s[right]))
        total += _reference_sum((cube(pb[left]) - cube(pa[left])) / (3.0 * s[left]))
        if inside.any():
            fy = pa[inside] + s[inside] * (y - a[inside])
            total += _reference_sum((cube(fy) - cube(pa[inside])) / (3.0 * s[inside]))
            total += _reference_sum((cube(pb[inside] - 1.0) - cube(fy - 1.0)) / (3.0 * s[inside]))

    q = float(1.0 - p[-1])
    if q > 0.0:
        mu = d.upper_rate
        if y <= v[-1]:
            total += q * q / (2.0 * mu)
        else:
            delta = y - v[-1]
            with np.errstate(over="ignore"):
                e1 = math.exp(-mu * delta)
            e2 = e1 * e1
            total += delta - 2.0 * q * (1.0 - e1) / mu + q * q * (1.0 - e2) / (2.0 * mu)
            total += q * q * e2 / (2.0 * mu)
    elif y > v[-1]:
        total += y - v[-1]

    return max(0.0, float(total))


def reference_crps_ensemble(members, y):
    """Per-hour empirical-ensemble CRPS: mean|m - y| - mean pairwise |mi - mj| / 2."""
    x = np.sort(np.asarray(members, dtype=float))
    n = x.size
    term1 = float(np.mean(np.abs(x - y)))
    if n == 1:
        return term1
    k = np.arange(1, n + 1, dtype=float)
    pair_sum = float(np.sum((2.0 * k - n - 1.0) * x))
    return term1 - pair_sum / (n * n)


def reference_vincentize(values):
    """Per-hour quantile average of a (k x levels) block: each level's mean
    over its values in sorted order."""
    return np.mean(np.sort(np.asarray(values, dtype=float), axis=0), axis=0)


def reference_aggregate_by_lead(scores):
    """Per-lead summaries of a ``Scores`` table as (lead, metric, mean, sd, n)
    rows, one lead and metric at a time: leads ascending, each lead's metrics
    by name, over the finite values in row order."""
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
            mean = float(np.mean(finite)) if finite.size else float("nan")
            sd = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
            rows.append((lead, name, mean, sd, int(finite.size)))
    return rows


@dataclass(frozen=True, slots=True)
class ForecastRecord:
    """One forecast row as a record."""

    model_id: str
    member: Optional[int]
    init_time: datetime
    valid_time: datetime
    value: float

    @property
    def lead_hours(self) -> int:
        return int((self.valid_time - self.init_time) // timedelta(hours=1))


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    """One observation row as a record."""

    valid_time: datetime
    value: float


def _times(hours):
    """hour_time of each entry, converting each distinct hour once."""
    distinct, inverse = np.unique(hours, return_inverse=True)
    return np.array([hour_time(h) for h in distinct.tolist()], dtype=object)[inverse].tolist()


def forecast_records(fc):
    """A Forecasts' rows as ForecastRecords, in row order."""
    return [
        ForecastRecord(fc.models[m], None if k < 0 else k, i, v, x)
        for m, k, i, v, x in zip(
            fc.model.tolist(),
            fc.member.tolist(),
            _times(fc.init),
            _times(fc.valid),
            fc.value.tolist(),
        )
    ]


def observation_records(obs):
    """An Observations' rows as ObservationRecords, in row order."""
    return [ObservationRecord(t, y) for t, y in zip(_times(obs.hour), obs.value.tolist())]


def forecasts_from_records(records):
    """Forecasts columns for ``records``, keeping their order."""
    rows = list(records)
    models = tuple(sorted({r.model_id for r in rows}))
    code = {m: i for i, m in enumerate(models)}
    return Forecasts(
        models,
        [code[r.model_id] for r in rows],
        [-1 if r.member is None else r.member for r in rows],
        [hour_index(r.init_time) for r in rows],
        [hour_index(r.valid_time) for r in rows],
        [r.value for r in rows],
    )


def observations_from_records(records):
    """Observations columns for ``records``, sorted by valid time."""
    rows = sorted(records, key=lambda r: r.valid_time)
    return Observations([hour_index(r.valid_time) for r in rows], [r.value for r in rows])


def dataset_from_records(forecasts, observations):
    return Dataset(forecasts_from_records(forecasts), observations_from_records(observations))


def _best_cut(keys, y, mns):
    """Least-variance cut of y scanned in key order; None when no cut qualifies.

    Candidates fall between consecutive distinct keys and keep at least mns
    rows on each side.  Returns (cost, last key on the left, first key on the
    right); the first minimum wins ties, so the smallest left side.
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    ys = y[order]
    cut = np.flatnonzero(ks[:-1] != ks[1:]) + 1  # candidate left-child sizes
    if mns > 1:
        cut = cut[(cut >= mns) & (ks.size - cut >= mns)]
    if cut.size == 0:
        return None
    c1 = np.cumsum(ys)
    c2 = np.cumsum(ys * ys)
    n_left = cut.astype(float)
    n_right = ks.size - n_left
    s_left = c1[cut - 1]
    q_left = c2[cut - 1]
    cost = (q_left - s_left * s_left / n_left) + (
        (c2[-1] - q_left) - (c1[-1] - s_left) ** 2 / n_right
    )
    k = int(np.argmin(cost))
    return float(cost[k]), ks[cut[k] - 1], ks[cut[k]]


def reference_grow_tree(table, inbag, config, rng):
    """Per-node recursion: one tree grown depth-first, left child first.

    Each split-eligible node (at least 2 * min_node_size rows, not all errors
    equal) draws ``rng.choice(2, size=mtry, replace=False)`` and tries those
    covariates, lead first; the label is cut on its rank by node mean error
    (ties: lower code first) and wins only a strictly smaller cost.  Children
    keep their rows in the parent's order.
    """
    from probfcast.qrf import _Tree

    lead_l = table.lead_hours[inbag].astype(float)
    code_l = table.label_codes[inbag]
    y_l = table.errors[inbag]
    n_labels = len(table.label_set)
    mns = config.min_node_size
    nodes = []  # (feature, threshold, cat_index, left, right, leaf_count)
    cat_masks = []
    leaf_chunks = []

    def build(rows):
        idx = len(nodes)
        nodes.append(())  # preorder id; filled in below
        y = y_l[rows]
        best_cost, best = np.inf, None
        if rows.size >= 2 * mns and y.min() != y.max():
            for f in sorted(rng.choice(2, size=config.mtry, replace=False)):
                if f == 0:
                    keys = lead_l[rows]
                else:
                    cats, inv = np.unique(code_l[rows], return_inverse=True)
                    if cats.size < 2:
                        continue
                    means = np.bincount(inv, weights=y) / np.bincount(inv)
                    rank = np.empty(cats.size, dtype=np.int64)
                    rank[np.argsort(means, kind="stable")] = np.arange(cats.size)
                    keys = rank[inv]
                res = _best_cut(keys, y, mns)
                if res is not None and res[0] < best_cost:
                    best_cost, best = res[0], (int(f), keys, res[1], res[2])
        if best is None:
            leaf_chunks.append(inbag[rows])
            nodes[idx] = (-1, np.nan, -1, -1, -1, rows.size)
            return idx
        f, keys, last_left, first_right = best
        go_left = keys <= last_left
        if f == 0:
            thr, cat = 0.5 * (last_left + first_right), -1
        else:
            thr, cat = np.nan, len(cat_masks)
            cat_masks.append(np.bincount(code_l[rows[go_left]], minlength=n_labels) > 0)
        nodes[idx] = (f, thr, cat, build(rows[go_left]), build(rows[~go_left]), 0)
        return idx

    build(np.arange(inbag.size))
    feature, threshold, cat_index, left, right, leaf_count = (
        np.array(col, dtype=dt)
        for col, dt in zip(zip(*nodes), (np.int8, float, np.int32, np.int32, np.int32, np.int32))
    )
    leaf_start = np.where(feature < 0, np.cumsum(leaf_count) - leaf_count, -1).astype(np.int32)
    return _Tree(
        feature=feature,
        threshold=threshold,
        cat_index=cat_index,
        left=left,
        right=right,
        leaf_start=leaf_start,
        leaf_count=leaf_count,
        leaf_rows=np.concatenate(leaf_chunks).astype(np.int32),
        cat_left=np.array(cat_masks, dtype=bool).reshape(-1, n_labels),
        inbag=inbag.astype(np.int32),
    )


def reference_train(table, config):
    """Every tree of ``probfcast.qrf.train`` from the per-node recursion."""
    trees = []
    for t in range(config.num_trees):
        rng = np.random.default_rng(config.seed + t)
        inbag = rng.choice(table.n_rows, size=config.sample_count, replace=config.replace)
        trees.append(reference_grow_tree(table, inbag, config, rng))
    return trees


def _leaf_rows(tree, lead, code):
    """Training rows of the leaf that (lead, code) reaches, by scalar descent."""
    node = 0
    while tree.feature[node] >= 0:
        if tree.feature[node] == 0:
            go_left = lead <= tree.threshold[node]
        else:
            go_left = tree.cat_left[tree.cat_index[node], code]
        node = tree.left[node] if go_left else tree.right[node]
    start = tree.leaf_start[node]
    return tree.leaf_rows[start : start + tree.leaf_count[node]]


def reference_quantiles(forest, lead, code, levels, trees=None):
    """Per-query loop: weighted quantiles of the training errors over ``trees``.

    Leaf rows are concatenated in tree order, sorted stably by error, and the
    quantile at level p is the first error whose cumulative weight reaches
    p * len(trees), clamped to the last error.
    """
    trees = range(forest.num_trees) if trees is None else trees
    per_tree = forest.trees
    vals, wts = [], []
    for t in trees:
        rows = _leaf_rows(per_tree[t], float(lead), code)
        vals.append(forest.table.errors[rows])
        wts.append(np.full(rows.size, 1.0 / rows.size))
    v = np.concatenate(vals)
    order = np.argsort(v, kind="stable")
    cw = np.cumsum(np.concatenate(wts)[order])
    idx = np.searchsorted(cw, np.asarray(levels) * len(trees), side="left")
    return v[order][np.minimum(idx, v.size - 1)]


def reference_oob_coverage(forest, intervals):
    """Per-row loop: each row predicted from the trees where it is out-of-bag.

    Returns (lead_hours, n_rows, coverage, skipped) with the dtypes and
    arithmetic of ``probfcast.qrf.oob_coverage``; raises DataError when no
    row is out-of-bag anywhere.
    """
    from probfcast.exceptions import DataError

    table = forest.table
    level_list = sorted({(1.0 - w) / 2.0 for w in intervals} | {(1.0 + w) / 2.0 for w in intervals})
    pairs = [
        (level_list.index((1.0 - w) / 2.0), level_list.index((1.0 + w) / 2.0)) for w in intervals
    ]
    inbag = [set(tree.inbag.tolist()) for tree in forest.trees]
    hits = {}
    skipped = 0
    for r in range(table.n_rows):
        trees = [t for t in range(forest.num_trees) if r not in inbag[t]]
        if not trees:
            skipped += 1
            continue
        code = int(table.label_codes[r])
        q = reference_quantiles(forest, table.lead_hours[r], code, level_list, trees)
        err = table.errors[r]
        row = [q[lo] <= err <= q[hi] for lo, hi in pairs]
        hits.setdefault(int(table.lead_hours[r]), []).append(row)
    if not hits:
        raise DataError("no out-of-bag rows to score")
    leads = sorted(hits)
    n_rows = np.array([len(hits[lead]) for lead in leads], dtype=np.int64)
    cov = np.array([np.sum(hits[lead], axis=0, dtype=float) for lead in leads]) / n_rows[:, None]
    return np.array(leads, dtype=np.int64), n_rows, cov, skipped


def reference_slice(forecasts, observations, origin, train_days, horizon_hours):
    """Per-record loop: (train forecasts, train obs, eval forecasts, eval obs).

    Training keeps valid times in [origin - train_days, origin) with init
    before the origin; evaluation keeps each model's latest run at or before
    the origin over [origin, origin + horizon].  Input order is kept.
    """
    from probfcast.exceptions import DataError

    start = origin - timedelta(days=train_days)
    end = origin + timedelta(hours=horizon_hours)
    if not observations:
        raise DataError("dataset has no observations")
    times = [o.valid_time for o in observations]
    if min(times) > start or origin > max(times) + timedelta(hours=1):
        raise DataError("window not covered by dataset")
    latest = {}
    for f in forecasts:
        cur = latest.get(f.model_id)
        if f.init_time <= origin and (cur is None or f.init_time > cur):
            latest[f.model_id] = f.init_time
    if not latest:
        raise DataError("window not covered by dataset: no model run available at origin")
    return (
        [f for f in forecasts if start <= f.valid_time < origin and f.init_time < origin],
        [o for o in observations if start <= o.valid_time < origin],
        [
            f
            for f in forecasts
            if latest.get(f.model_id) == f.init_time and origin <= f.valid_time <= end
        ],
        [o for o in observations if origin <= o.valid_time <= end],
    )


def reference_rank_label(records):
    """Per-record loop: members ranked by (value, member) within each
    (model, init, valid) group become ``<model>_r<rank>`` with no member."""
    import dataclasses

    groups = {}
    for i, r in enumerate(records):
        if r.member is not None:
            groups.setdefault((r.model_id, r.init_time, r.valid_time), []).append(i)
    out = list(records)
    for idxs in groups.values():
        ranked = sorted(idxs, key=lambda i: (records[i].value, records[i].member))
        for k, i in enumerate(ranked, start=1):
            r = records[i]
            out[i] = dataclasses.replace(r, model_id=f"{r.model_id}_r{k}", member=None)
    return out


def reference_error_table(forecasts, observations):
    """Per-record loop: (lead_hours, label_codes, errors, label_set, skipped)
    with one row per forecast whose valid time has an observation."""
    from probfcast.exceptions import DataError

    obs = {o.valid_time: o.value for o in observations}
    rows = [
        (f.lead_hours, f.model_id, obs[f.valid_time] - f.value)
        for f in forecasts
        if f.valid_time in obs
    ]
    if not rows:
        raise DataError("no overlap between forecasts and observations")
    label_set = tuple(sorted({label for _, label, _ in rows}))
    return (
        np.array([lead for lead, _, _ in rows], dtype=np.int64),
        np.array([label_set.index(label) for _, label, _ in rows], dtype=np.int64),
        np.array([err for _, _, err in rows], dtype=float),
        label_set,
        len(forecasts) - len(rows),
    )


@dataclass(frozen=True)
class ErrorSample:
    """One error-table row as a record."""

    lead_hours: int
    model_label: str
    error: float


def table_from_samples(samples, skipped=0):
    """ErrorTable from records; labels get codes in sorted order."""
    from probfcast.error_model import ErrorTable

    rows = list(samples)
    labels = tuple(sorted({s.model_label for s in rows}))
    code = {lab: i for i, lab in enumerate(labels)}
    return ErrorTable(
        lead_hours=np.array([s.lead_hours for s in rows], dtype=np.int64),
        label_codes=np.array([code[s.model_label] for s in rows], dtype=np.int64),
        errors=np.array([s.error for s in rows], dtype=float),
        label_set=labels,
        skipped=skipped,
    )


def table_samples(table):
    """An ErrorTable's rows as ErrorSample records, in row order."""
    return [
        ErrorSample(int(lead), table.label_set[code], float(err))
        for lead, code, err in zip(table.lead_hours, table.label_codes, table.errors)
    ]


def run_horizon(dataset, origin, config, scenario_index=0):
    """Stages 1-3 at ``origin`` as ``forecast`` runs them: table, forest, run_scenario."""
    from probfcast import qrf
    from probfcast.pipeline import prepare_training, run_scenario

    table, eval_ds = prepare_training(dataset, origin, config)
    forest = qrf.train(table, config.forest_config(scenario_index))
    return run_scenario(origin, eval_ds, forest, config)


def reference_combined(dataset, origin, config, scenario_index=0):
    """Per-record stage 2: {lead hour: (combined quantile values, contributor count)}.

    Trains the scenario's forest as run_horizon does, then shifts each
    evaluation record's error quantiles into its own QuantileVector and
    averages each covered horizon hour's vectors level by level.
    """
    from probfcast import qrf
    from probfcast.combine import QuantileVector
    from probfcast.error_model import rank_label_members
    from probfcast.pipeline import prepare_training

    table, eval_ds = prepare_training(dataset, origin, config)
    forest = qrf.train(table, config.forest_config(scenario_index))
    records = forecast_records(rank_label_members(eval_ds.forecasts))
    pairs = sorted({(f.lead_hours, f.model_id) for f in records})
    matrix = qrf.predict_quantiles_batch(
        forest, [p[0] for p in pairs], [p[1] for p in pairs], config.levels
    )
    error_q = dict(zip(pairs, matrix))
    by_hour = {}
    for f in records:
        by_hour.setdefault(f.valid_time, []).append(
            QuantileVector(config.levels, error_q[(f.lead_hours, f.model_id)] + f.value)
        )
    out = {}
    for h in range(1, config.horizon_hours + 1):
        group = by_hour.get(origin + timedelta(hours=h))
        if group:
            out[h] = (reference_vincentize([q.values for q in group]), len(group))
    return out
