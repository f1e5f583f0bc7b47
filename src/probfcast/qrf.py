"""Quantile regression forest over (lead_hours, model_label).

Each tree grows on its own seeded random subsample of the error table and
splits by minimising the size-weighted sum of child response variances.  One
cut search serves both covariates: it scans the node's rows in key order and
cuts between consecutive distinct keys.  For the lead the key is the lead
itself, and the threshold is the midpoint of the cut.  For the label the key
is the label's rank by mean response in the node (ties: lower code first),
which is exactly equivalent to searching all binary label partitions under
the variance rule (Breiman et al. 1984); the labels ranked left of the cut go
left.  The first minimum-cost cut wins, and the label replaces the lead only
at a strictly smaller cost.

All trees grow in lock-step.  Each step pops the next preorder node of every
unfinished tree and searches the cuts of all of them in one batched pass, so
training costs a few numpy calls per preorder position rather than a Python
call per node.  Tree t's in-bag rows fill one buffer range; a node is a
(lo, hi) range of it, and a split partitions that range stably in place, so
the leaves come out in preorder with their rows in node order.  The result
equals, array for array, growing each tree by depth-first recursion.  The
step count follows the deepest preorder, not the number of trees, so
:func:`train_many` grows several forests in one pass (a backtest grows a
chunk of scenarios' forests at once), and each forest equals the one
:func:`train`, its one-table case, grows alone: a tree's steps read only its
own rows, seeds and table.

Leaves keep the in-bag rows that reached them, so a query returns a weighted
empirical distribution of training errors rather than a mean: row weights
average, over trees, the indicator of sharing the query's leaf divided by the
leaf size.  Queries may repeat (lead, label) pairs in any order: a call looks
up each distinct label once, keys each query by the integer ``lead * n_labels
+ code`` and predicts each distinct pair once.  The lead rule: a query lead is
a whole number (else ``ValueError``), and one outside [0, ``MAX_LEAD_HOURS``]
is clamped to it, so it routes as the nearest end (training leads lie in that
range, and so does every lead cut).  Each distinct pair is routed through all
trees at once, and the leaf rows it reaches are gathered into one stack sorted
by error (ties in tree, then leaf order).  Routing and the ranking of leaf
rows by error run once per call; the stacks are then built, summed and
searched one block of whole pairs at a time, so memory follows the block size,
not the number of pairs; out-of-bag coverage gathers its rows' in-bag entries
in batches of at most as many cells.  One running-sum path serves prediction
and out-of-bag coverage: each stack's ``np.cumsum`` of weights, taken row-wise
over its block's zero-padded (pairs x longest stack) matrix, and one
binary-lifting search, the kernels ``dist._padded_cumsum`` and
``dist._count_not_above`` that the CDF table and CRPS run too.  A quantile is
the smallest error whose running weight reaches level x number of trees, or
the last past the total.  With cw the running weight of the ``kept`` trees
where a row is out of bag, q_lo <= its error e exactly when cw at the last
entry <= e reaches lo x kept; e <= q_hi exactly when cw at the last entry < e
is below hi x kept and a kept entry follows, since a target past the total
clamps q_hi to the last kept entry (lo < 0.5 never passes it).  A row in-bag
in no tree reads its pair's full-forest sums, which are exact; any other row
subtracts its in-bag trees' entries from them, and reads exact kept sums when
a target lies within ``_SUM_ERROR`` x (n + 1) x number of trees (n stack
entries) of that estimate.

Determinism contract: tree t uses ``numpy.random.default_rng(seed + t)``.
It draws its in-bag rows with ``rng.choice(n_rows, sample_count, replace)``
and then ``stream = rng.integers(0, 2**32, size=2 * sample_count,
dtype=np.uint32)``.  With mtry=1, the k-th split-eligible node of the tree in
preorder (at least 2 * min_node_size rows, not all errors equal) tries
covariate ``stream[k] >> 31``, which is what ``rng.choice(2, size=1,
replace=False)`` would return there.  With mtry=2 both covariates are tried
and the stream goes unused.  The split search sorts stably and sums
sequentially, so a forest reproduces bit for bit under the same numpy
version at any x86 SIMD level.  numpy does not freeze the streams of
``Generator.choice`` and ``Generator.integers`` across versions (NEP 19), so
another numpy version may grow another forest.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .combine import QuantileVector, check_levels
from .dist import _count_not_above, _padded_cumsum
from .error_model import ErrorTable
from .exceptions import ConfigError, DataError
from .ingest import MAX_LEAD_HOURS
from .scoring import DEFAULT_INTERVALS

__all__ = [
    "ForestConfig",
    "CovariateVector",
    "Forest",
    "OOBCoverage",
    "train",
    "train_many",
    "predict_weights",
    "predict_quantiles",
    "predict_quantiles_batch",
    "oob_coverage",
    "save_forest",
    "load_forest",
]

_N_COVARIATES = 2  # lead_hours (0), model_label (1)

FOREST_FORMAT_VERSION = 1

# Upper bounds of a forest's size, far past any useful forest (the defaults
# are 250 trees of 128 sampled rows), so that a size which could only end in
# an allocation failure is a usage error before any input is read.
# Training's arrays grow with trees x sampled rows, so a forest near both
# bounds at once still needs more memory than a host has.
MAX_TREES = 10_000
MAX_SAMPLE_COUNT = 2**16


@dataclass(frozen=True)
class ForestConfig:
    num_trees: int = 250
    mtry: int = 1
    min_node_size: int = 1
    sample_count: int = 128
    seed: int = 0
    replace: bool = False

    def check(self) -> None:
        """Raise ConfigError unless every field lies in its range, whatever the table."""
        if not 1 <= self.num_trees <= MAX_TREES:
            raise ConfigError(f"num_trees must lie in [1, {MAX_TREES}]")
        if not 1 <= self.mtry <= _N_COVARIATES:
            raise ConfigError(f"mtry must lie in [1, {_N_COVARIATES}]")
        if self.min_node_size < 1:
            raise ConfigError("min_node_size must be >= 1")
        if not 1 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ConfigError(f"sample_count must lie in [1, {MAX_SAMPLE_COUNT}]")
        if not 0 <= self.seed < 2**63:  # the archive stores it as an int64
            raise ConfigError("seed must lie in [0, 2**63)")

    def validate(self, n_rows: int) -> None:
        """Raise unless a forest of this config can grow on a table of ``n_rows`` rows."""
        if n_rows == 0:
            raise DataError("cannot train on an empty error table")
        self.check()
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
    """One array-encoded tree, or joined trees: feature -1 leaf, 0 lead split, 1 label split."""

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
    """A trained forest in its archive layout: ``arrays`` joins every tree's arrays in tree order.

    Tree t holds ``node_counts[t]`` entries of each per-node field (``feature``
    to ``leaf_count``), ``cat_counts[t]`` rows of ``cat_left`` and
    ``config.sample_count`` entries of ``leaf_rows`` and ``inbag``.  Child,
    ``cat_index`` and ``leaf_start`` ids are local to their tree.
    """

    config: ForestConfig
    table: ErrorTable
    arrays: _Tree
    node_counts: np.ndarray  # int64, one entry per tree
    cat_counts: np.ndarray  # int64, one entry per tree

    @property
    def num_trees(self) -> int:
        return self.node_counts.size

    @property
    def trees(self) -> List[_Tree]:
        """Per-tree views of ``arrays``, computed on each access."""
        n = np.full(self.num_trees, self.config.sample_count)
        counts = {"cat_left": self.cat_counts, "leaf_rows": n, "inbag": n}
        columns = [
            np.split(a, np.cumsum(counts.get(name, self.node_counts))[:-1])
            for name, a in vars(self.arrays).items()
        ]
        return [_Tree(*tree) for tree in zip(*columns)]

    def label_code(self, label: str) -> int:
        try:
            return self.table.label_set.index(label)
        except ValueError:
            raise KeyError(f"model label {label!r} was not in the training table") from None


@dataclass(eq=False)
class OOBCoverage:
    """Out-of-bag interval coverage per observed lead hour."""

    lead_hours: np.ndarray  # sorted observed lead hours with >= 1 scored row
    n_rows: np.ndarray  # scored rows per lead hour
    coverage: np.ndarray  # (n_leads, n_intervals) hit fractions
    intervals: Tuple[float, ...]
    skipped: int  # rows that were in-bag in every tree
    fallback: int  # scored rows whose hits read exact kept sums


# ---------------------------------------------------------------------------
# Training: every tree's preorder in lock-step
# ---------------------------------------------------------------------------


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering source[starts[i] : starts[i]+counts[i]] per i."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _best_cuts(keys: np.ndarray, y: np.ndarray, seg: np.ndarray, size: np.ndarray, mns: int):
    """Least-variance cut of each request's rows, scanned in key order.

    Request i owns the ``size[i]`` consecutive entries where ``seg == i``;
    keys are integers.  Candidate cuts fall between consecutive distinct keys
    and keep at least mns rows on each side.  Prefix sums run along the rows
    of a zero-padded (requests x width) matrix (:func:`_padded_cumsum`), so
    each request adds its own values in the order a 1-D ``np.cumsum`` would.
    Returns per request the cost at the first minimum (inf when no cut
    qualifies), the left size there, and the last key on the left and the
    first on the right.
    """
    lowest = keys.min(initial=0)
    span = keys.max(initial=0) - lowest + 1
    order = np.argsort(seg * span + (keys - lowest), kind="stable")  # equal keys keep row order
    ks, ys = keys[order], y[order]
    first = np.cumsum(size) - size
    col = np.arange(seg.size) - first[seg]
    r = np.arange(size.size)
    mask = np.arange(int(size.max(initial=2))) < size[:, None]  # entries come by seg, then col
    c1, c2 = _padded_cumsum(mask, ys), _padded_cumsum(mask, ys * ys)
    tot1, tot2 = c1[r, size - 1][seg], c2[r, size - 1][seg]
    c1, c2 = c1[mask], c2[mask]
    # Cut after entry i: a left size of col[i] + 1.
    n_left = col + 1.0
    n_right = size[seg] - n_left
    ok = np.flatnonzero(
        (ks[:-1] != ks[1:]) & (n_left[:-1] >= mns) & (n_right[:-1] >= mns)
    )
    s_left, q_left, n_left, n_right = c1[ok], c2[ok], n_left[ok], n_right[ok]
    cost = np.full(mask.shape, np.inf)
    cost[seg[ok], col[ok]] = (q_left - s_left * s_left / n_left) + (
        (tot2[ok] - q_left) - (tot1[ok] - s_left) ** 2 / n_right
    )
    j = np.argmin(cost, axis=1)  # first minimum: the smallest left side
    return cost[r, j], j + 1, ks[first + j], ks[first + j + 1]


def train(table: ErrorTable, config: ForestConfig) -> Forest:
    """Grow a forest on an error table; deterministic given (table, config)."""
    return train_many([table], [config])[0]


def train_many(tables: Sequence[ErrorTable], configs: Sequence[ForestConfig]) -> List[Forest]:
    """Grow one forest per (table, config) pair, every tree of them in one lock-step pass.

    Each forest equals ``train(table, config)`` alone, array for array: its
    trees draw from their own seeds over their own table, and a tree's cut
    search never looks past its own rows.  The configs may differ in
    ``seed``, ``num_trees`` and ``replace``, which act tree by tree; the
    fields that shape a step (``mtry``, ``min_node_size``, ``sample_count``)
    must agree.  Label codes stay each table's own, so ties rank as alone:
    a node's labels are counted in a row as wide as the widest table's label
    set, where the codes a narrower table lacks stay empty and are cut off
    its ``cat_left``.

    Node ids are assigned at pop time, so they run in preorder: a split's
    left child is the next id, and a right child writes its id into its
    parent when it is popped.
    """
    if len(tables) != len(configs) or not tables:
        raise ValueError("train_many needs one config per table, and at least one table")
    shape = {(c.mtry, c.min_node_size, c.sample_count) for c in configs}
    if len(shape) > 1:
        raise ConfigError("forests grown together must share mtry, min_node_size and sample_count")
    for table, config in zip(tables, configs):
        config.validate(table.n_rows)
    n, mns, mtry = configs[0].sample_count, configs[0].min_node_size, configs[0].mtry
    n_labels = max(len(table.label_set) for table in tables)
    tree_counts = np.array([config.num_trees for config in configs])
    T = int(tree_counts.sum())
    inbag = np.empty((T, n), dtype=np.int64)  # row ids into each tree's own table
    draw = np.empty((T, 2 * n), dtype=np.int64)  # covariate of the k-th eligible node
    lead, code = np.empty((T, n), dtype=np.int64), np.empty((T, n), dtype=np.int64)
    y = np.empty((T, n))
    first_tree = np.cumsum(tree_counts) - tree_counts
    for table, config, t0 in zip(tables, configs, first_tree.tolist()):
        for t in range(config.num_trees):
            rng = np.random.default_rng(config.seed + t)
            inbag[t0 + t] = rng.choice(table.n_rows, size=n, replace=config.replace)
            draw[t0 + t] = rng.integers(0, 2**32, size=2 * n, dtype=np.uint32) >> 31
        own = slice(t0, t0 + config.num_trees)
        lead[own], code[own], y[own] = (
            column[inbag[own]] for column in (table.lead_hours, table.label_codes, table.errors)
        )
    lead, code, y = lead.ravel(), code.ravel(), y.ravel()
    buf = np.arange(T * n)  # tree t's rows fill buf[t * n : (t + 1) * n]

    cap = 2 * n - 1  # nodes a tree of n rows can have
    feature = np.full((T, cap), -1, dtype=np.int8)
    threshold = np.full((T, cap), np.nan)
    cat_index, left, right, leaf_start = (np.full((T, cap), -1, dtype=np.int32) for _ in range(4))
    leaf_count = np.zeros((T, cap), dtype=np.int32)
    cat_left = np.zeros((T, n, n_labels), dtype=bool)  # a tree has at most n - 1 splits
    n_nodes, n_drawn, n_cats = (np.zeros(T, dtype=np.int64) for _ in range(3))
    # Pending (lo, hi, parent) ranges per tree; a right child carries its parent.
    stack = np.empty((T, n + 1, 3), dtype=np.int64)
    stack[:, 0] = np.column_stack([np.arange(T) * n, np.arange(1, T + 1) * n, np.full(T, -1)])
    depth = np.ones(T, dtype=np.int64)
    while depth.any():
        # Pop the next preorder node of every unfinished tree.
        tr = np.flatnonzero(depth)
        depth[tr] -= 1
        lo, hi, parent = stack[tr, depth[tr]].T
        nid = n_nodes[tr]
        n_nodes[tr] += 1
        is_right = parent >= 0
        right[tr[is_right], parent[is_right]] = nid[is_right]
        size = hi - lo
        start = np.cumsum(size) - size
        rows = buf[_gather_ranges(lo, size)]
        ys = y[rows]
        eligible = np.flatnonzero(
            (size >= 2 * mns) & (np.minimum.reduceat(ys, start) != np.maximum.reduceat(ys, start))
        )
        # One cut request per (node, covariate) tried, the lead first.
        if mtry == 1:
            node, cov = eligible, draw[tr[eligible], n_drawn[tr[eligible]]]
            n_drawn[tr[eligible]] += 1
        else:
            node, cov = np.repeat(eligible, 2), np.tile([0, 1], eligible.size)
        req_size = size[node]
        req_idx = _gather_ranges(start[node], req_size)
        req_seg = np.repeat(np.arange(node.size), req_size)
        req_rows, req_ys = rows[req_idx], ys[req_idx]
        keys = lead[req_rows]
        # A label request's key is the label's rank by mean error in the node;
        # ties go to the lower code.
        by_label = np.flatnonzero(cov[req_seg])
        lab_req = np.flatnonzero(cov)
        cell = np.repeat(np.arange(lab_req.size) * n_labels, req_size[lab_req])
        cell += code[req_rows[by_label]]
        count = np.bincount(cell, minlength=lab_req.size * n_labels)
        total = np.bincount(cell, weights=req_ys[by_label], minlength=count.size)
        mean = total / np.maximum(count, 1)
        present = np.flatnonzero(count)
        by_mean = present[np.argsort(mean[present], kind="stable")]
        rank = np.empty(count.size, dtype=np.int64)
        rank[by_mean[np.argsort(by_mean // n_labels, kind="stable")]] = np.arange(present.size)
        keys[by_label] = rank[cell]
        cost, n_left, last_key, next_key = _best_cuts(keys, req_ys, req_seg, req_size, mns)
        # The label replaces the lead only at a strictly smaller cost.
        pick = np.arange(0, node.size, mtry) + np.argmin(cost.reshape(-1, mtry), axis=1)
        pick = pick[np.isfinite(cost[pick])]
        s, nl, f = node[pick], n_left[pick], cov[pick]
        ts, sid, last_left = tr[s], nid[s], last_key[pick]
        feature[ts, sid] = f
        left[ts, sid] = sid + 1
        lead_cut, lab = f == 0, f == 1
        first_right = next_key[pick].astype(float)
        threshold[ts[lead_cut], sid[lead_cut]] = 0.5 * (last_left + first_right)[lead_cut]
        cat_index[ts[lab], sid[lab]] = n_cats[ts[lab]]
        slot = np.searchsorted(lab_req, pick[lab])  # each label split's row of count and rank
        cat_left[ts[lab], n_cats[ts[lab]]] = (count.reshape(-1, n_labels)[slot] > 0) & (
            rank.reshape(-1, n_labels)[slot] <= last_left[lab, None]
        )
        n_cats[ts[lab]] += 1
        # Partition each split range stably in place: left rows first.
        split_idx = _gather_ranges((np.cumsum(req_size) - req_size)[pick], req_size[pick])
        go_left = keys[split_idx] <= np.repeat(last_left, req_size[pick])
        at = _gather_ranges(lo[s], size[s])
        buf[at] = buf[at][np.argsort(2 * req_seg[split_idx] + ~go_left, kind="stable")]
        leaf = np.ones(tr.size, dtype=bool)
        leaf[s] = False
        leaf_start[tr[leaf], nid[leaf]] = lo[leaf] - tr[leaf] * n
        leaf_count[tr[leaf], nid[leaf]] = size[leaf]
        # Push the right child, then the left one, which is popped next as sid + 1.
        d = depth[ts]
        stack[ts, d] = np.column_stack([lo[s] + nl, hi[s], sid])
        stack[ts, d + 1] = np.column_stack([lo[s], lo[s] + nl, np.full(s.size, -1)])
        depth[ts] += 2

    # buf holds flat (tree, draw) positions, and inbag maps them to each table's own rows.
    leaf_rows = inbag.ravel()[buf].reshape(T, n).astype(np.int32)
    per_node = (feature, threshold, cat_index, left, right, leaf_start, leaf_count)
    forests = []
    for table, config, t0 in zip(tables, configs, first_tree.tolist()):
        own = slice(t0, t0 + config.num_trees)
        node = np.arange(cap) < n_nodes[own, None]
        arrays = _Tree(
            *(a[own][node] for a in per_node),
            leaf_rows=leaf_rows[own].ravel(),
            cat_left=cat_left[own][np.arange(n) < n_cats[own, None], : len(table.label_set)],
            inbag=inbag[own].ravel().astype(np.int32),
        )
        forests.append(Forest(config, table, arrays, n_nodes[own].copy(), n_cats[own].copy()))
    return forests


# ---------------------------------------------------------------------------
# Prediction: route -> gather -> weighted quantile
# ---------------------------------------------------------------------------


# The most cells of a block's padded (pairs x longest stack) matrix.  Larger
# blocks were no faster on the synthetic set's forests, and peaked higher.
_BLOCK_CELLS = 1 << 17


@dataclass(eq=False)
class _Stack:
    """Every tree's leaf rows for each pair of one block, sorted by error.

    The block's i-th pair is ``pairs[i]`` and owns entries ``bounds[i]:bounds[i
    + 1]``; each entry is one leaf row of one tree, weighted by 1 / leaf size.
    Equal errors keep tree order, then leaf order.  ``leaf_pos[leaf_bounds[i *
    T + t] : leaf_bounds[i * T + t + 1]]`` are the positions of tree t's
    entries for the i-th pair, when asked for.
    """

    n_trees: int
    pairs: np.ndarray  # ids of the distinct (lead, code) pairs
    bounds: np.ndarray
    rows: np.ndarray  # table row ids
    values: np.ndarray  # their errors
    weights: np.ndarray
    leaf_bounds: np.ndarray
    leaf_pos: Optional[np.ndarray]


def _route(forest: Forest, lead_q: np.ndarray, code_q: np.ndarray) -> np.ndarray:
    """Descend all trees at once; (n_trees, n_queries) ids into the joined nodes."""
    a, counts, T = forest.arrays, forest.node_counts, forest.num_trees
    node_off = np.cumsum(counts) - counts
    cat_index = a.cat_index + np.repeat(np.cumsum(forest.cat_counts) - forest.cat_counts, counts)
    left = a.left + np.repeat(node_off, counts)
    right = a.right + np.repeat(node_off, counts)
    node = np.repeat(node_off, lead_q.size)
    lead = np.tile(lead_q, T)
    code = np.tile(code_q, T)
    active = np.arange(node.size)
    while active.size:
        nid = node[active]
        split = a.feature[nid] >= 0
        active, nid = active[split], nid[split]
        go = lead[active] <= a.threshold[nid]  # NaN threshold at label splits
        lab = a.feature[nid] == 1
        go[lab] = a.cat_left[cat_index[nid[lab]], code[active[lab]]]
        node[active] = np.where(go, left[nid], right[nid])
    return node.reshape(T, lead_q.size)


def _gather(
    forest: Forest, lead, code, positions: bool = False
) -> Tuple[int, np.ndarray, Iterator[_Stack]]:
    """Stack every tree's leaf rows per distinct (lead, code) pair, one block of pairs at a time.

    Returns the number of distinct pairs, each input's pair, and the blocks'
    stacks.  Leads follow the lead rule (module docstring), and pairs are
    keyed ``lead * n_labels + code``, so they sort by lead, then code.  They
    are routed and the leaf rows ranked by error once, up front; each block
    then gathers and sorts only its own entries, so the stack-sized arrays,
    which set the peak memory of a prediction, live one block at a time.
    Pairs are taken in order of stack length, and a block takes the next pairs
    while its padded (pairs x longest stack) matrix holds at most
    ``_BLOCK_CELLS`` cells; a longer pair is a block of its own.  Out-of-bag
    coverage asks for each entry's stack position too.
    """
    lead = np.asarray(lead, dtype=float)
    bad = ~np.isfinite(lead) | (lead != np.trunc(lead))
    if bad.any():
        raise ValueError(f"lead hours must be whole numbers, got {lead[bad][0]}")
    n_labels = len(forest.table.label_set)
    key = np.clip(lead, 0, MAX_LEAD_HOURS).astype(np.int64) * n_labels + code
    pairs, inverse = np.unique(key, return_inverse=True)
    a, T = forest.arrays, forest.num_trees
    leaf = _route(forest, *np.divmod(pairs, n_labels)).T
    leaf_off = np.repeat(np.arange(T) * forest.config.sample_count, forest.node_counts)
    first, counts = (a.leaf_start + leaf_off)[leaf], a.leaf_count.astype(np.int64)[leaf]
    # An entry's rank among all leaf rows by (error, tree, leaf order) is
    # unique, so one unstable sort of (pair, rank) orders a block's stacks.
    rank = np.empty(a.leaf_rows.size, dtype=np.int64)
    rank[np.argsort(forest.table.errors[a.leaf_rows], kind="stable")] = np.arange(rank.size)
    length = counts.sum(axis=1)
    by_length = np.argsort(length, kind="stable")

    def blocks() -> Iterator[_Stack]:
        i, size = 0, length[by_length]
        while i < size.size:
            part = size[i : i + _BLOCK_CELLS]  # a block has at most _BLOCK_CELLS pairs
            cells = np.arange(1, part.size + 1) * part
            j = i + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
            yield _block_stack(forest, rank, by_length[i:j], first, counts, positions)
            i = j

    return pairs.size, inverse, blocks()


def _block_stack(
    forest: Forest,
    rank: np.ndarray,
    pairs: np.ndarray,
    first: np.ndarray,
    counts: np.ndarray,
    positions: bool,
) -> _Stack:
    """The stacks of one block of pairs; first and counts: (pairs, trees) leaf ranges."""
    T, leaf_rows = forest.num_trees, forest.arrays.leaf_rows
    counts = counts[pairs].ravel()
    entry = _gather_ranges(first[pairs].ravel(), counts)
    leaf_bounds = np.concatenate([[0], np.cumsum(counts)])
    key = np.repeat(np.arange(pairs.size) * leaf_rows.size, np.diff(leaf_bounds[::T]))
    key += rank[entry]
    order = np.argsort(key)
    del key
    leaf_pos = None
    if positions:
        leaf_pos = np.empty(order.size, dtype=np.int64)
        leaf_pos[order] = np.arange(order.size)
    rows = leaf_rows[entry[order]]
    return _Stack(
        n_trees=T,
        pairs=pairs,
        bounds=leaf_bounds[::T],
        rows=rows,
        values=forest.table.errors[rows],
        weights=np.repeat(1.0 / counts, counts)[order],
        leaf_bounds=leaf_bounds,
        leaf_pos=leaf_pos,
    )


def _running_sums(bounds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each segment ``bounds[i]:bounds[i + 1]``'s ``np.cumsum`` of weights, flat:
    segment i is row i of :func:`_padded_cumsum`'s (segments x longest) matrix."""
    length = np.diff(bounds)
    mask = np.arange(length.max(initial=0)) < length[:, None]
    return _padded_cumsum(mask, weights)[mask]


def predict_weights(forest: Forest, x: CovariateVector) -> np.ndarray:
    """Per-training-row weights at covariates x; non-negative, summing to 1."""
    code = forest.label_code(x.model_label)
    (stack,) = _gather(forest, [x.lead_hours], [code])[2]  # one pair, one block
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
    """Quantiles for many covariate vectors at once; returns (n_queries, n_levels).
    Each distinct label is looked up once, and each distinct pair predicted once."""
    levels = check_levels(levels)
    names, code = np.unique(np.asarray(labels, dtype=str), return_inverse=True)
    if np.size(lead_hours) != code.size:
        raise ValueError("lead_hours and labels must have the same length")
    code = np.array([forest.label_code(name) for name in names.tolist()], dtype=np.int64)[code]
    n_pairs, inverse, blocks = _gather(forest, lead_hours, code)
    q = np.empty((n_pairs, levels.size))
    # The first entry whose running sum reaches level x trees; past the total, the last one.
    # Sums and targets are finite, so a sum is below a target when not above the float before.
    below = np.nextafter(forest.num_trees * levels, -np.inf)
    for stack in blocks:
        start, length = stack.bounds[:-1, None], np.diff(stack.bounds)[:, None]
        sums = _running_sums(stack.bounds, stack.weights)
        count = _count_not_above(sums, start, length, below)
        q[stack.pairs] = stack.values[start + np.minimum(count, length - 1)]
    return q[inverse]


# ---------------------------------------------------------------------------
# Out-of-bag diagnostics
# ---------------------------------------------------------------------------

_SUM_ERROR = 2.0 * np.finfo(float).eps  # an estimated running sum's rounding, per entry and tree


def oob_coverage(
    forest: Forest, intervals: Sequence[float] = DEFAULT_INTERVALS
) -> OOBCoverage:
    """Central-interval coverage of out-of-bag predictions, per lead hour.

    Each row of the forest's training table is predicted using only the trees
    where it is out-of-bag; the row scores a hit for an interval when its
    error lies within [q_(1-w)/2, q_(1+w)/2].  Rows in-bag in every tree are
    skipped and counted.  Lead hours with no scorable rows are simply absent.
    """
    table = forest.table
    intervals = tuple(float(w) for w in intervals)
    if not all(0.0 < w < 1.0 for w in intervals):
        raise ValueError("interval widths must lie in (0, 1)")
    lo, hi = np.array([[(1.0 - w) / 2.0 for w in intervals], [(1.0 + w) / 2.0 for w in intervals]])

    T, k, inbag = forest.num_trees, len(intervals), forest.arrays.inbag
    # Each (row, tree) with the row in-bag in the tree, once.
    drop = np.unique(inbag * np.int64(T) + np.arange(inbag.size) // forest.config.sample_count)
    drop_row, drop_tree = np.divmod(drop, T)
    kept = T - np.bincount(drop_row, minlength=table.n_rows)
    scored = np.flatnonzero(kept)
    if not scored.size:
        raise DataError("no out-of-bag rows to score")
    live = kept[drop_row] > 0
    slot, drop_tree, kept = np.searchsorted(scored, drop_row[live]), drop_tree[live], kept[scored]

    n_pairs, combo, blocks = _gather(forest, table.lead_hours, table.label_codes, positions=True)
    err, seg = table.errors[scored], combo[scored]
    block_of, local = np.full(n_pairs, -1), np.empty(n_pairs, dtype=np.int64)
    hits, fallback = np.empty((scored.size, k), dtype=bool), 0
    for b, stack in enumerate(blocks):
        block_of[stack.pairs], local[stack.pairs] = b, np.arange(stack.pairs.size)
        mine = np.flatnonzero(block_of[seg] == b)  # the scored rows whose pair is in the block
        dropped = np.flatnonzero(block_of[seg[slot]] == b)
        owner = np.searchsorted(mine, slot[dropped])  # ascending
        g = local[seg[mine[owner]]] * T + drop_tree[dropped]  # the in-bag trees' leaf ranges
        # Rows i:j gather edge[j] - edge[i] in-bag entries: at most _BLOCK_CELLS, or one row's.
        edge = np.cumsum(np.bincount(owner + 1, np.diff(stack.leaf_bounds)[g], mine.size + 1))
        sums, i = _running_sums(stack.bounds, stack.weights), 0
        while i < mine.size:
            j = max(i + 1, int(np.searchsorted(edge, edge[i] + _BLOCK_CELLS, side="right")) - 1)
            rows, (e0, e1) = mine[i:j], np.searchsorted(owner, [i, j])
            args = err[rows], kept[rows], local[seg[rows]], owner[e0:e1] - i, g[e0:e1]
            hits[rows], n = _oob_hits(stack, sums, *args, lo, hi)
            fallback += n
            i = j

    leads, pos, count = np.unique(table.lead_hours[scored], return_inverse=True, return_counts=True)
    # One count per (lead, interval) cell; sums of 0.0 and 1.0 are exact in any order.
    cells = (pos[:, None] * k + np.arange(k)).ravel()
    cov = np.bincount(cells, hits.ravel(), leads.size * k).reshape(leads.size, k) / count[:, None]
    return OOBCoverage(leads, count, cov, intervals, table.n_rows - scored.size, fallback)


def _oob_hits(stack: _Stack, sums, err, kept, seg, slot, g, lo, hi) -> Tuple[np.ndarray, int]:
    """Interval hits of out-of-bag rows whose pairs lie in one block; and their fallback count.

    ``sums`` are the block's running sums.  Row i has error ``err[i]``, is
    out of bag in ``kept[i]`` trees and reads the block's ``seg[i]``-th
    stack; for each j with ``slot[j] == i``, it is in-bag in the tree whose
    entries for that stack are ``leaf_pos[leaf_bounds[g[j]] : leaf_bounds[g[j] + 1]]``.
    """
    T, n = stack.n_trees, err.size
    start, length = stack.bounds[seg], np.diff(stack.bounds)[seg]
    # Flat stack positions of the entries of each row's in-bag trees.
    n_g = stack.leaf_bounds[g + 1] - stack.leaf_bounds[g]
    at, owner = stack.leaf_pos[_gather_ranges(stack.leaf_bounds[g], n_g)], np.repeat(slot, n_g)

    def sum_upto(running, start, count):  # running sum over the first count entries
        return np.where(count > 0, running[start + count - 1], 0.0)

    def kept_sum(count):  # estimated kept running sum over the first count entries; any kept after?
        first = at < (start + count)[owner]
        dropped = np.bincount(owner, np.where(first, stack.weights[at], 0.0), n)
        later = length - count - np.bincount(owner[~first], minlength=n)
        return sum_upto(sums, start, count) - dropped, later > 0

    # Errors are finite, so an entry is below e exactly when it is not above the float before.
    v = np.column_stack([np.nextafter(err, -np.inf), err])
    below, upto = _count_not_above(stack.values, start[:, None], length[:, None], v).T
    (cw_lo, _), (cw_hi, more_hi) = kept_sum(upto), kept_sum(below)
    bound = np.where(kept < T, _SUM_ERROR * (length + 1) * T, -np.inf)
    near = np.zeros(n, dtype=bool)
    for i in range(lo.size):
        near |= (np.abs([cw_lo - kept * lo[i], cw_hi - kept * hi[i]]) <= bound).any(axis=0)
    # Near rows read exact kept sums: their segments again, in-bag trees' entries set to 0.0.
    fallback, mine = np.flatnonzero(near), np.flatnonzero(near[owner])
    w = stack.weights[_gather_ranges(start[fallback], length[fallback])]
    f_start = np.cumsum(length[fallback]) - length[fallback]
    w[f_start[np.searchsorted(fallback, owner[mine])] + at[mine] - start[owner[mine]]] = 0.0
    exact = _running_sums(np.append(f_start, w.size), w)
    for cw, c in ((cw_lo, upto), (cw_hi, below)):
        cw[fallback] = sum_upto(exact, f_start, c[fallback])
    hits = np.empty((n, lo.size), dtype=bool)
    # A difference of floats is >= 0.0 exactly when the first is >= the second.
    for i in range(lo.size):
        hits[:, i] = (cw_lo - kept * lo[i] >= 0.0) & (cw_hi - kept * hi[i] < 0.0) & more_hi
    return hits, fallback.size


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def save_forest(path: str | Path, forest: Forest) -> Path:
    """Serialise a forest to a self-describing, uncompressed .npz archive."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    per_tree = np.full(forest.num_trees, forest.config.sample_count, dtype=np.int64)
    cfg = {f.name: getattr(forest.config, f.name) for f in fields(ForestConfig)}
    np.savez(
        path,
        format_version=np.int64(FOREST_FORMAT_VERSION),
        **{f"cfg_{k}": np.bool_(v) if isinstance(v, bool) else np.int64(v) for k, v in cfg.items()},
        labels=np.array(forest.table.label_set, dtype=np.str_),
        table_lead=forest.table.lead_hours,
        table_code=forest.table.label_codes,
        table_error=forest.table.errors,
        table_skipped=np.int64(forest.table.skipped),
        node_counts=forest.node_counts,
        leafrow_counts=per_tree,
        cat_counts=forest.cat_counts,
        inbag_counts=per_tree,
        **vars(forest.arrays),
    )
    return path


def load_forest(path: str | Path) -> Forest:
    """Load a forest saved by :func:`save_forest`; round-trips bit-exactly.

    A file that is not an .npz archive is a DataError naming the path; a
    missing member, or one that does not fit the counts and the tree
    structure, is a DataError naming the path and the member.
    """
    try:
        # Opened here: np.load leaves open a zip it rejects.  Compressed archives load too.
        with open(path, "rb") as fh:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("an .npy array, not an .npz archive")
            with archive:
                z = {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # EOFError: an empty file
        raise DataError(f"{path}: not a forest archive: {exc}") from None

    def member(name: str) -> np.ndarray:
        if name not in z:
            raise DataError(f"{path}: forest archive has no member {name!r}")
        return z[name]

    version = int(member("format_version"))
    if version != FOREST_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported forest format version {version}")
    # Every config field has a bool or int default, and is stored as such.
    config = ForestConfig(
        **{f.name: type(f.default)(member(f"cfg_{f.name}")) for f in fields(ForestConfig)}
    )
    names = ("table_lead", "table_code", "table_error", "labels", "table_skipped")
    lead, code, errors, labels, skipped = (member(name) for name in names)
    try:
        table = ErrorTable(lead, code, errors, tuple(str(s) for s in labels), int(skipped))
    except ValueError as exc:
        raise DataError(f"{path}: forest archive members {names[:4]}: {exc}") from None
    arrays = _Tree(**{f.name: member(f.name) for f in fields(_Tree)})
    counts = {k: member(k) for k in ("node_counts", "cat_counts", "leafrow_counts", "inbag_counts")}
    _check_trees(path, config, table, arrays, counts)
    return Forest(config, table, arrays, counts["node_counts"], counts["cat_counts"])


def _check_trees(
    path: str | Path,
    config: ForestConfig,
    table: ErrorTable,
    a: _Tree,
    counts: Dict[str, np.ndarray],
) -> None:
    """Raise DataError unless the joined arrays fit their counts and form preorder trees."""

    def require(ok: object, name: str, what: str) -> None:
        if not np.all(ok):
            raise DataError(f"{path}: forest archive member {name!r} {what}")

    T, n = config.num_trees, config.sample_count
    for name, c in counts.items():
        require(np.issubdtype(c.dtype, np.integer) and c.shape == (T,), name, f"must hold {T} ints")
    nodes, cats = counts["node_counts"], counts["cat_counts"]
    require(T >= 1 and (nodes >= 1).all(), "node_counts", "must be positive, for >= 1 tree")
    require(cats >= 0, "cat_counts", "must be non-negative")
    for name in ("leafrow_counts", "inbag_counts"):
        require(counts[name] == n, name, f"must equal sample_count {n}")
    n_labels = len(table.label_set)
    shapes = {"cat_left": (int(cats.sum()), n_labels), "leaf_rows": (T * n,), "inbag": (T * n,)}
    for f in fields(_Tree):
        x, shape = getattr(a, f.name), shapes.get(f.name, (int(nodes.sum()),))
        want = {"cat_left": np.bool_, "threshold": np.floating}.get(f.name, np.integer)
        ok = np.issubdtype(x.dtype, want) and x.shape == shape
        require(ok, f.name, f"must be a {want.__name__} array of shape {shape}")
    # Preorder: a split's left child is the next node and its right child a
    # later node of its tree; the leaves' row ranges tile [0, sample_count).
    local = np.arange(nodes.sum()) - np.repeat(np.cumsum(nodes) - nodes, nodes)
    split = a.feature >= 0
    require((a.feature >= -1) & (a.feature <= 1), "feature", "must be -1, 0 or 1")
    require(a.left[split] == local[split] + 1, "left", "must hold each split's next node")
    right_ok = (a.right > local + 1) & (a.right < np.repeat(nodes, nodes))
    require(right_ok[split], "right", "must hold a later node of the split's tree")
    cat_ok = (a.cat_index >= 0) & (a.cat_index < np.repeat(cats, nodes))
    require(cat_ok[a.feature == 1], "cat_index", "must hold a row of its tree's label partitions")
    count = np.where(split, 0, a.leaf_count).astype(np.int64)
    end = np.cumsum(count) - np.repeat(np.arange(T) * n, nodes)
    require(count[~split] >= 1, "leaf_count", "must be positive at leaves")
    require(end[np.cumsum(nodes) - 1] == n, "leaf_count", f"must sum to {n} per tree")
    require((a.leaf_start == end - count)[~split], "leaf_start", "must follow the previous leaf")
    for name in ("leaf_rows", "inbag"):
        rows = getattr(a, name)
        require((rows >= 0) & (rows < table.n_rows), name, "must hold table row ids")
