"""Quantile regression forest over (lead_hours, model_label).

Each tree grows on its own seeded random subsample of the error table and
splits by minimising the size-weighted sum of child response variances.  One
cut kernel serves both covariates: it scans the node's rows in key order and
cuts between consecutive distinct keys.  For the lead the key is the lead
itself, and the threshold is the midpoint of the cut.  For the label the key
is the label's rank by mean response in the node, which is exactly
equivalent to searching all binary label partitions under the variance rule
(Breiman et al. 1984); the labels ranked left of the cut go left.

Leaves keep the in-bag rows that reached them, so a query returns a weighted
empirical distribution of training errors rather than a mean: row weights
average, over trees, the indicator of sharing the query's leaf divided by the
leaf size.  Every prediction takes one path.  Each distinct (lead, label)
pair is routed through all trees at once; the leaf rows it reaches are
gathered into one stack sorted by error (ties in tree, then leaf order); and
one weighted-quantile kernel answers each level with the smallest error whose
running weight reaches level x number of trees.  Out-of-bag coverage reads
the same stacks: a row in-bag in no tree takes its pair's full-forest
quantiles, and a row in-bag in some trees gives their entries weight 0.0,
which leaves the running sums of the other entries bit-for-bit unchanged.

Determinism: tree t uses ``numpy.random.default_rng(seed + t)``, consuming
draws in a fixed order (subsample first, then one covariate draw per split
in depth-first, left-first order), so forests reproduce bit-for-bit across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .combine import QuantileVector
from .error_model import ErrorTable
from .exceptions import ConfigError, DataError

__all__ = [
    "ForestConfig",
    "CovariateVector",
    "Forest",
    "OOBCoverage",
    "train",
    "predict_weights",
    "predict_quantiles",
    "predict_quantiles_batch",
    "oob_coverage",
    "save_forest",
    "load_forest",
]

_N_COVARIATES = 2  # lead_hours (0), model_label (1)

DEFAULT_OOB_INTERVALS = (0.5, 0.8, 0.9, 0.95)

FOREST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForestConfig:
    num_trees: int = 250
    mtry: int = 1
    min_node_size: int = 1
    sample_count: int = 128
    seed: int = 0
    replace: bool = False

    def validate(self, n_rows: int) -> None:
        if self.num_trees < 1:
            raise ConfigError("num_trees must be >= 1")
        if not 1 <= self.mtry <= _N_COVARIATES:
            raise ConfigError(f"mtry must lie in [1, {_N_COVARIATES}]")
        if self.min_node_size < 1:
            raise ConfigError("min_node_size must be >= 1")
        if self.sample_count < 1:
            raise ConfigError("sample_count must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.replace and self.sample_count > n_rows:
            raise ConfigError(
                f"sample_count {self.sample_count} exceeds table size {n_rows} "
                "with replace=False"
            )


@dataclass(frozen=True)
class CovariateVector:
    lead_hours: int
    model_label: str


@dataclass(eq=False)
class _Tree:
    """Array-encoded tree: feature -1 marks a leaf, 0 a lead split, 1 a label split."""

    feature: np.ndarray  # int8 per node
    threshold: np.ndarray  # float64: lead midpoint for feature==0
    cat_index: np.ndarray  # int32: row of cat_left for feature==1, else -1
    left: np.ndarray  # int32 child node ids
    right: np.ndarray
    leaf_start: np.ndarray  # int32 into leaf_rows (leaves only)
    leaf_count: np.ndarray  # int32
    leaf_rows: np.ndarray  # int32 global table row ids, grouped by leaf
    cat_left: np.ndarray  # bool (n_label_splits, n_labels); True = go left
    inbag: np.ndarray  # int32 sampled row ids (with multiplicity if replace)


@dataclass(eq=False)
class Forest:
    config: ForestConfig
    table: ErrorTable
    trees: List[_Tree]
    _code: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._code = {lab: i for i, lab in enumerate(self.table.label_set)}

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    def label_code(self, label: str) -> int:
        try:
            return self._code[label]
        except KeyError:
            raise KeyError(f"model label {label!r} was not in the training table") from None


@dataclass(eq=False)
class OOBCoverage:
    """Out-of-bag interval coverage per observed lead hour."""

    lead_hours: np.ndarray  # sorted observed lead hours with >= 1 scored row
    n_rows: np.ndarray  # scored rows per lead hour
    coverage: np.ndarray  # (n_leads, n_intervals) hit fractions
    intervals: Tuple[float, ...]
    skipped: int  # rows that were in-bag in every tree


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _best_cut(keys: np.ndarray, y: np.ndarray, mns: int):
    """Least-variance cut of y scanned in key order; None when no cut qualifies.

    Candidates fall between consecutive distinct keys and keep at least mns
    rows on each side.  Returns (cost, last key on the left, first key on the
    right); the first minimum wins ties, so the smallest left side.
    """
    order = np.argsort(keys)
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


def _grow_tree(
    table: ErrorTable, inbag: np.ndarray, config: ForestConfig, rng: np.random.Generator
) -> _Tree:
    lead_l = table.lead_hours[inbag].astype(float)
    code_l = table.label_codes[inbag]
    y_l = table.errors[inbag]
    n_labels = len(table.label_set)
    mns = config.min_node_size
    nodes: List[tuple] = []  # (feature, threshold, cat_index, left, right, leaf_count)
    cat_masks: List[np.ndarray] = []
    leaf_chunks: List[np.ndarray] = []

    def build(rows: np.ndarray) -> int:
        idx = len(nodes)
        nodes.append(())  # preorder id; filled in below
        y = y_l[rows]
        best_cost, best = np.inf, None
        if rows.size >= 2 * mns and y.min() != y.max():
            for f in sorted(rng.choice(_N_COVARIATES, size=config.mtry, replace=False)):
                if f == 0:
                    keys = lead_l[rows]
                else:
                    # Rank the node's labels by mean error (ties: lower code
                    # first) and cut that order as if it were numeric.
                    cats, inv = np.unique(code_l[rows], return_inverse=True)
                    if cats.size < 2:
                        continue
                    means = np.bincount(inv, weights=y) / np.bincount(inv)
                    rank = np.empty(cats.size, dtype=np.int64)
                    rank[np.argsort(means, kind="stable")] = np.arange(cats.size)
                    keys = rank[inv]
                res = _best_cut(keys, y, mns)
                if res is not None and res[0] < best_cost:  # lead wins cost ties
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
    # Leaf rows were appended in node order, after those of every earlier leaf.
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


def train(table: ErrorTable, config: ForestConfig) -> Forest:
    """Grow a forest on an error table; deterministic given (table, config)."""
    if table.n_rows == 0:
        raise DataError("cannot train on an empty error table")
    config.validate(table.n_rows)
    trees: List[_Tree] = []
    for t in range(config.num_trees):
        rng = np.random.default_rng(config.seed + t)
        inbag = rng.choice(table.n_rows, size=config.sample_count, replace=config.replace)
        trees.append(_grow_tree(table, inbag, config, rng))
    return Forest(config=config, table=table, trees=trees)


# ---------------------------------------------------------------------------
# Prediction: route -> gather -> weighted quantile
# ---------------------------------------------------------------------------

# Padded entries one kernel chunk holds; bounds the working set of a call.
_CHUNK_ENTRIES = 1 << 20


@dataclass(eq=False)
class _Stack:
    """Every tree's leaf rows for each distinct covariate, sorted by error.

    Covariate c owns entries ``bounds[c]:bounds[c + 1]``; each entry is one
    leaf row of one tree, weighted by 1 / leaf size.  Equal errors keep tree
    order, then leaf order.  ``leaf_pos[leaf_bounds[c * T + t] :
    leaf_bounds[c * T + t + 1]]`` are the positions of tree t's entries for
    covariate c.
    """

    n_trees: int
    bounds: np.ndarray
    rows: np.ndarray  # table row ids
    values: np.ndarray  # their errors
    weights: np.ndarray
    leaf_bounds: np.ndarray
    leaf_pos: np.ndarray


def _route(forest: Forest, lead_q: np.ndarray, code_q: np.ndarray) -> np.ndarray:
    """Descend all trees at once; (n_trees, n_queries) ids into their joined nodes."""
    trees = forest.trees
    node_off = np.cumsum([0] + [tree.feature.size for tree in trees])[:-1]
    cat_off = np.cumsum([0] + [tree.cat_left.shape[0] for tree in trees])[:-1]
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    cat_index = np.concatenate([tree.cat_index + off for tree, off in zip(trees, cat_off)])
    cat_left = np.concatenate([tree.cat_left for tree in trees])
    left = np.concatenate([tree.left + off for tree, off in zip(trees, node_off)])
    right = np.concatenate([tree.right + off for tree, off in zip(trees, node_off)])
    node = np.repeat(node_off, lead_q.size)
    lead = np.tile(lead_q, len(trees))
    code = np.tile(code_q, len(trees))
    active = np.arange(node.size)
    while active.size:
        nid = node[active]
        split = feature[nid] >= 0
        active, nid = active[split], nid[split]
        go = lead[active] <= threshold[nid]  # NaN threshold at label splits
        lab = feature[nid] == 1
        go[lab] = cat_left[cat_index[nid[lab]], code[active[lab]]]
        node[active] = np.where(go, left[nid], right[nid])
    return node.reshape(len(trees), lead_q.size)


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering source[starts[i] : starts[i]+counts[i]] per i."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _gather(forest: Forest, lead, code) -> Tuple[_Stack, np.ndarray]:
    """Stack every tree's leaf rows per distinct (lead, code) pair; and each input's pair."""
    # np.unique orders complex numbers by real part, then imaginary part.
    pairs, inverse = np.unique(
        np.asarray(lead, dtype=float) + 1j * np.asarray(code), return_inverse=True
    )
    trees = forest.trees
    n, T = pairs.size, len(trees)
    leaf_rows = np.concatenate([tree.leaf_rows for tree in trees])
    leaf_off = np.cumsum([0] + [tree.leaf_rows.size for tree in trees])
    leaf_start = np.concatenate([tree.leaf_start + off for tree, off in zip(trees, leaf_off)])
    leaf_count = np.concatenate([tree.leaf_count for tree in trees]).astype(np.int64)
    leaf = _route(forest, pairs.real, pairs.imag.astype(np.int64)).T.reshape(-1)
    counts = leaf_count[leaf]
    entry = _gather_ranges(leaf_start[leaf], counts)
    # An entry's rank among all leaf rows by (error, tree, leaf order) is
    # unique, so one unstable sort of (covariate, rank) orders every stack.
    rank = np.empty(leaf_rows.size, dtype=np.int64)
    rank[np.argsort(forest.table.errors[leaf_rows], kind="stable")] = np.arange(leaf_rows.size)
    leaf_bounds = np.concatenate([[0], np.cumsum(counts)])
    seg_len = np.diff(leaf_bounds[::T])
    order = np.argsort(np.repeat(np.arange(n), seg_len) * leaf_rows.size + rank[entry])
    leaf_pos = np.empty(order.size, dtype=np.int64)
    leaf_pos[order] = np.arange(order.size)
    rows = leaf_rows[entry[order]]
    return _Stack(
        n_trees=T,
        bounds=leaf_bounds[::T],
        rows=rows,
        values=forest.table.errors[rows],
        weights=np.repeat(1.0 / counts, counts)[order],
        leaf_bounds=leaf_bounds,
        leaf_pos=leaf_pos,
    ), inverse.reshape(-1)


def _searchsorted_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a[i], v[i])`` for every row of a row-wise sorted ``a``."""
    n, width = a.shape
    r = np.arange(n)[:, None]
    pos = np.zeros(v.shape, dtype=np.int64)
    step = 1 << (width.bit_length() - 1)
    while step:  # binary lifting: pos ends as the count of entries below v
        cand = pos + step
        below = (cand <= width) & (a[r, np.minimum(cand, width) - 1] < v)
        pos = np.where(below, cand, pos)
        step >>= 1
    return pos


def _stack_quantiles(
    stack: _Stack, seg: np.ndarray, levels: np.ndarray, excluded: np.ndarray | None = None
) -> np.ndarray:
    """Weighted quantiles of stack segments; returns (n_requests, n_levels).

    Request i reads segment ``seg[i]`` and answers, per level, the smallest
    value whose running weight reaches ``level`` times its number of trees.
    ``excluded[i, t]`` drops tree t from request i by giving its entries
    weight 0.0: adding 0.0 is exact, so the kept entries' running sums equal
    those of the kept entries alone.  A target past the total takes the last
    kept value.  Requests run longest first, in chunks of at most
    ``_CHUNK_ENTRIES`` padded entries.
    """
    start = stack.bounds[seg]
    length = stack.bounds[seg + 1] - start
    kept = np.full(seg.size, stack.n_trees)
    if excluded is not None:
        kept -= excluded.sum(axis=1)
    targets = kept[:, None] * levels
    out = np.empty((seg.size, levels.size))
    order = np.lexsort((seg, -length))
    i = 0
    while i < order.size:
        width = int(length[order[i]])
        chunk = order[i : i + max(1, _CHUNK_ENTRIES // width)]
        i += chunk.size
        segs, local = np.unique(seg[chunk], return_inverse=True)
        idx = stack.bounds[segs, None] + np.arange(width)
        w = stack.weights[np.minimum(idx, stack.weights.size - 1)]
        w[idx >= stack.bounds[segs + 1, None]] = 0.0
        w = w[local]
        if excluded is not None:
            r, t = np.nonzero(excluded[chunk])
            g = seg[chunk[r]] * stack.n_trees + t
            n_g = stack.leaf_bounds[g + 1] - stack.leaf_bounds[g]
            pos = stack.leaf_pos[_gather_ranges(stack.leaf_bounds[g], n_g)]
            w[np.repeat(r, n_g), pos - np.repeat(start[chunk[r]], n_g)] = 0.0
        cw = np.cumsum(w, axis=1)
        # Running sums rise at every kept entry, so the first position that
        # reaches the total is the last kept one.
        pos = _searchsorted_rows(cw, np.column_stack([targets[chunk], cw[:, -1]]))
        out[chunk] = stack.values[start[chunk, None] + np.minimum(pos[:, :-1], pos[:, -1:])]
    return out


def _check_levels(levels: np.ndarray) -> np.ndarray:
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if levels.size == 0:
        raise ValueError("levels must be non-empty")
    if levels[0] <= 0.0 or levels[-1] >= 1.0 or np.any(np.diff(levels) <= 0):
        raise ValueError("levels must be strictly increasing within (0, 1)")
    return levels


def predict_weights(forest: Forest, x: CovariateVector) -> np.ndarray:
    """Per-training-row weights at covariates x; non-negative, summing to 1."""
    code = forest.label_code(x.model_label)
    stack, _ = _gather(forest, [x.lead_hours], [code])
    w = np.zeros(forest.table.n_rows)
    np.add.at(w, stack.rows, stack.weights)  # per row: tree order, as in the stack
    return w / forest.num_trees


def predict_quantiles(
    forest: Forest, x: CovariateVector, levels: Sequence[float]
) -> QuantileVector:
    """Weighted empirical quantiles of the training errors at covariates x."""
    q = predict_quantiles_batch(forest, [x.lead_hours], [x.model_label], levels)
    return QuantileVector(levels, q[0])


def predict_quantiles_batch(
    forest: Forest,
    lead_hours: Sequence[int],
    labels: Sequence[str],
    levels: Sequence[float],
) -> np.ndarray:
    """Quantiles for many covariate vectors at once; returns (n_queries, n_levels)."""
    levels = _check_levels(np.asarray(levels))
    lead_q = np.asarray(lead_hours, dtype=float)
    code_q = np.array([forest.label_code(lab) for lab in labels], dtype=np.int64)
    if lead_q.size != code_q.size:
        raise ValueError("lead_hours and labels must have the same length")
    stack, inverse = _gather(forest, lead_q, code_q)
    return _stack_quantiles(stack, np.arange(stack.bounds.size - 1), levels)[inverse]


# ---------------------------------------------------------------------------
# Out-of-bag diagnostics
# ---------------------------------------------------------------------------


def oob_coverage(
    forest: Forest, intervals: Sequence[float] = DEFAULT_OOB_INTERVALS
) -> OOBCoverage:
    """Central-interval coverage of out-of-bag predictions, per lead hour.

    Each row of the forest's training table is predicted using only the trees
    where it is out-of-bag; the row scores a hit for an interval when its
    error lies within [q_(1-w)/2, q_(1+w)/2].  Rows in-bag in every tree are
    skipped and counted.  Lead hours with no scorable rows are simply absent.
    """
    table = forest.table
    intervals = tuple(float(w) for w in intervals)
    for w in intervals:
        if not 0.0 < w < 1.0:
            raise ValueError("interval widths must lie in (0, 1)")
    level_list = sorted({(1.0 - w) / 2.0 for w in intervals} | {(1.0 + w) / 2.0 for w in intervals})
    levels = np.array(level_list)
    lo_idx = np.array([level_list.index((1.0 - w) / 2.0) for w in intervals])
    hi_idx = np.array([level_list.index((1.0 + w) / 2.0) for w in intervals])

    T = forest.num_trees
    inbag = [np.unique(tree.inbag) for tree in forest.trees]  # replace=True repeats rows
    rows, slot = np.unique(np.concatenate(inbag), return_inverse=True)
    excluded = np.zeros((rows.size, T), dtype=bool)
    excluded[slot, np.repeat(np.arange(T), [r.size for r in inbag])] = True
    everywhere = excluded.all(axis=1)
    scored = np.ones(table.n_rows, dtype=bool)
    scored[rows[everywhere]] = False
    if not scored.any():
        raise DataError("no out-of-bag rows to score")

    stack, combo = _gather(forest, table.lead_hours, table.label_codes)
    # Rows in-bag in no tree take their covariate's full-forest quantiles;
    # the others drop the trees they are in-bag in.
    q = _stack_quantiles(stack, np.arange(stack.bounds.size - 1), levels)[combo]
    rows, excluded = rows[~everywhere], excluded[~everywhere]
    q[rows] = _stack_quantiles(stack, combo[rows], levels, excluded)

    q = q[scored]
    err = table.errors[scored][:, None]
    hits = (q[:, lo_idx] <= err) & (err <= q[:, hi_idx])
    uniq_leads, pos = np.unique(table.lead_hours[scored], return_inverse=True)
    n_rows = np.bincount(pos, minlength=uniq_leads.size)
    cov = np.zeros((uniq_leads.size, len(intervals)))
    np.add.at(cov, pos, hits)
    cov /= n_rows[:, None]
    return OOBCoverage(
        lead_hours=uniq_leads,
        n_rows=n_rows,
        coverage=cov,
        intervals=intervals,
        skipped=int(table.n_rows - scored.sum()),
    )


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def save_forest(path: str | Path, forest: Forest) -> Path:
    """Serialise a forest to a self-describing .npz archive."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    trees = forest.trees
    node_counts = np.array([t.feature.size for t in trees], dtype=np.int64)
    leafrow_counts = np.array([t.leaf_rows.size for t in trees], dtype=np.int64)
    cat_counts = np.array([t.cat_left.shape[0] for t in trees], dtype=np.int64)
    inbag_counts = np.array([t.inbag.size for t in trees], dtype=np.int64)
    cfg = {f.name: getattr(forest.config, f.name) for f in fields(ForestConfig)}
    np.savez_compressed(
        path,
        format_version=np.int64(FOREST_FORMAT_VERSION),
        **{f"cfg_{k}": np.bool_(v) if isinstance(v, bool) else np.int64(v) for k, v in cfg.items()},
        labels=np.array(forest.table.label_set, dtype=np.str_),
        table_lead=forest.table.lead_hours,
        table_code=forest.table.label_codes,
        table_error=forest.table.errors,
        table_skipped=np.int64(forest.table.skipped),
        node_counts=node_counts,
        leafrow_counts=leafrow_counts,
        cat_counts=cat_counts,
        inbag_counts=inbag_counts,
        **{f.name: np.concatenate([getattr(t, f.name) for t in trees]) for f in fields(_Tree)},
    )
    return path


def load_forest(path: str | Path) -> Forest:
    """Load a forest saved by :func:`save_forest`; round-trips bit-exactly."""
    with np.load(path) as archive:
        # Decompress each member once, not once per tree slice.
        z = {name: archive[name] for name in archive.files}
        version = int(z["format_version"])
        if version != FOREST_FORMAT_VERSION:
            raise DataError(f"unsupported forest format version {version}")
        # Every config field has a bool or int default, and is stored as such.
        config = ForestConfig(
            **{f.name: type(f.default)(z[f"cfg_{f.name}"]) for f in fields(ForestConfig)}
        )
        table = ErrorTable(
            lead_hours=z["table_lead"],
            label_codes=z["table_code"],
            errors=z["table_error"],
            label_set=tuple(str(s) for s in z["labels"]),
            skipped=int(z["table_skipped"]),
        )
        # Leaf rows, label partitions and in-bag rows have their own counts;
        # every other field has one entry per node.
        counts = {"leaf_rows": "leafrow_counts", "cat_left": "cat_counts", "inbag": "inbag_counts"}
        parts = {
            f.name: np.split(z[f.name], np.cumsum(z[counts.get(f.name, "node_counts")])[:-1])
            for f in fields(_Tree)
        }
        trees = [_Tree(**{k: p[t] for k, p in parts.items()}) for t in range(config.num_trees)]
    return Forest(config=config, table=table, trees=trees)
