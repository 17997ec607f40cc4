"""Student prescriptive trees: greedy recursive partitioning that maximizes
teacher-predicted revenue.

The node criterion is the revenue-maximization score
``R(S) = max_k sum_{i in S} r[i, k]`` over the precomputed revenue matrix.
A split (j, s) sends ``x_j <= s`` left and is chosen to maximize
``R(S_left) + R(S_right)`` by exhaustive search over all features and all
distinct observed thresholds; a node is only split when the criterion
strictly improves. Ties break to the lowest feature index, then the lowest
threshold, then the lowest price, so fits are deterministic and invariant
to row order.

The same engine drives the baseline trees (different node criteria plugged
into ``grow_tree``). Each fit sorts every feature once and hands each node
its rows in feature order (``sptlab.tree``): one order buffer per fit, which
every split partitions in place. Each criterion holds its per-row
statistics column-major, one contiguous row per statistic, and each fit
owns one ``SweepWorkspace``: the fit's one column-major copy of the
features, from which the orders are sorted too, and (statistics x rows)
blocks sized for its largest node, in which the split sweep of every
feature at every node gathers and cumulates its statistics instead of
allocating fresh arrays. Node sums and boundary scores are taken in blocks
of rows, so no step holds a (rows x statistics) copy of a large node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .teacher import RevenueMatrix
from .tree import (SplitNode, apply, check_structure, grow_preorder,
                   json_field, leaf_values, nodes_from_json, nodes_to_json,
                   presort, split_orders)


@dataclass(frozen=True)
class FitConfig:
    """Termination rules: depth cap (None = unbounded), minsplit, min_leaf."""

    max_depth: int | None = 3
    minsplit: int = 2
    min_leaf: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.minsplit < 2 * self.min_leaf:
            raise ValueError("minsplit must be >= 2 * min_leaf")

    @classmethod
    def for_knob(cls, depth, minsplit) -> "FitConfig":
        """A sweep's depth cap, or with ``minsplit`` set, unbounded depth
        under rpart's minbucket convention (children hold minsplit // 3 rows)."""
        if minsplit is not None:
            return cls(max_depth=None, minsplit=minsplit,
                       min_leaf=max(1, minsplit // 3))
        return cls(max_depth=depth, minsplit=2, min_leaf=1)

    def can_split(self, depth: int, n_rows: int) -> bool:
        """Whether a node at ``depth`` holding ``n_rows`` rows may split."""
        return ((self.max_depth is None or depth < self.max_depth)
                and n_rows >= self.minsplit)


@dataclass(frozen=True)
class LeafNode:
    price: float
    revenue_sum: float
    n_train: int


@dataclass(frozen=True)
class SplitCandidate:
    feature_index: int
    threshold: float
    combined_revenue: float
    left_count: int
    right_count: int


class EmptyLeafError(RuntimeError):
    """Routing reached a leaf that could not be priced (no supporting rows)."""


@dataclass
class PolicyTree:
    """Axis-aligned binary pricing policy; leaves carry a single price."""

    nodes: list
    root: int
    feature_names: tuple[str, ...]
    grid_prices: np.ndarray
    max_depth_used: int

    def predict_price(self, x) -> float:
        return float(self.prescribe(np.reshape(x, (1, -1)))[0])

    def prescribe(self, X: np.ndarray) -> np.ndarray:
        prices = leaf_values(self.nodes, self.root, X, "price")
        if np.isnan(prices).any():
            raise EmptyLeafError("routed to an unpriced (empty) leaf")
        return prices

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(n, LeafNode) for n in self.nodes)

    def leaf_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row of X."""
        return apply(self.nodes, self.root, X)

    def validate(self) -> int:
        """The tree's depth; a DataError if it is not a proper binary tree."""
        return check_structure(self.nodes, self.root)


# Boundaries scored, and rows summed by ``StatsCriterion.node_sums``, per
# block. Blocks of 4096 keep ``ws.left`` and ``ws.right`` at width * 4096
# floats instead of width * n, which bounds a fit's peak memory; n=50k fits
# run within noise of each other from 1024 to 65536 boundaries per block.
_BLOCK_ROWS = 4096


class StatsCriterion:
    """A node criterion over per-row statistics, held once as the contiguous
    ``(width, n)`` array ``self.cols`` (one row per statistic, so a sweep
    gathers and cumulates contiguous rows); ``self.stats`` is its ``(n,
    width)`` transposed view. A node is scored from the sums of its rows'
    statistics alone (a criterion that needs a node's row count keeps a
    statistic of ones). Subclasses give ``scores_batch(sums, out)``, which
    writes into ``out`` the scores of the nodes whose sums are the columns
    of the ``(width, nodes)`` block ``sums`` and may overwrite ``sums``.
    Policy-tree criteria also give ``leaf_payload(sums, count)`` ->
    (price, revenue_sum) and the ``grid`` those prices are drawn from.

    A subclass whose last statistic is that row of ones sets ``count_row``.
    The sweep then gathers and cumulates only the ``self.gathered`` rows
    above it and copies the count row's cumulative sums, which are exactly
    1, 2, ..., n."""

    count_row = False

    def __init__(self, cols):
        self.cols = cols
        self.stats = cols.T
        self.gathered = cols.shape[0] - self.count_row

    def node_sums(self, rows):
        """The column sums of ``stats[rows]``, taken in blocks of
        ``_BLOCK_ROWS`` rows. ``stats[rows]`` is a C-order copy, whose axis-0
        sum adds the rows one by one; adding the running sums into a block's
        first row before summing the block adds the same numbers in the same
        order. A single statistic is one contiguous column, which numpy sums
        pairwise, so it is summed in one block."""
        step = _BLOCK_ROWS if self.cols.shape[0] > 1 else max(1, rows.size)
        sums = self.stats[rows[:step]].sum(axis=0)
        for s in range(step, rows.size, step):
            block = self.stats[rows[s:s + step]]
            block[0] += sums
            sums = block.sum(axis=0)
        return sums

    def node_score(self, rows):
        out = np.empty(1)
        self.scores_batch(self.node_sums(rows)[:, None], out)
        return float(out[0])


class _RevenueCriterion(StatsCriterion):
    """max-over-prices column-sum score for the student prescriptive tree."""

    def __init__(self, revmat: RevenueMatrix):
        super().__init__(np.ascontiguousarray(revmat.values.T))
        self.grid = revmat.grid

    def scores_batch(self, sums, out):
        np.maximum.reduce(sums, axis=0, out=out)

    def leaf_payload(self, sums, count):
        k = int(np.argmax(sums))  # first max = lowest price
        return float(self.grid.prices[k]), float(sums[k])


class SweepWorkspace:
    """The buffers of one fit's split search, reused at every node.

    ``columns`` is the features in column-major order, so a node's values
    of one feature are one contiguous gather. ``cum`` holds a ``(width,
    rows)`` block of statistics for up to ``n_rows`` rows (the fit's largest
    node); ``left`` and ``right`` hold one ``(width, rows)`` block of
    boundaries. Each is flat, so that its block for any row count is
    contiguous (``block``). ``counts`` is 1, 2, ..., ``n_rows``, the
    cumulative sums of a count row.
    """

    def __init__(self, features, n_rows: int, width: int):
        self.columns = np.ascontiguousarray(np.asarray(features).T,
                                            dtype=np.float64)
        self.width = width
        self.xs = np.empty(n_rows)
        self.gaps = np.empty(n_rows, dtype=bool)
        self.cum = np.empty(width * n_rows)
        self.counts = np.arange(1.0, n_rows + 1)
        self.scores = np.empty((2, n_rows))
        block = min(n_rows, _BLOCK_ROWS)
        self.left = np.empty(width * block)
        self.right = np.empty(width * block)

    def block(self, buf, rows: int):
        """The contiguous ``(width, rows)`` block at the start of ``buf``."""
        return buf[:self.width * rows].reshape(self.width, rows)


def _sweep_feature(ws: SweepWorkspace, j: int, order, crit, min_leaf: int):
    """Best boundary of feature ``j`` at a node whose rows, in ascending
    ``x_j`` with ties in row order, are ``order``: (combined, threshold,
    left_count) or None.

    Only the gaps that leave ``min_leaf`` rows on each side are searched.
    The node's statistics are gathered into the ``(width, rows)`` block
    ``ws.cum`` and each statistic's row is cumulated there, except a count
    row, whose cumulative sums are copied from ``ws.counts``. Boundaries are
    scored in blocks of ``_BLOCK_ROWS``: when every searched gap is a
    boundary (a feature without ties) a block's left sums are a slice of
    ``ws.cum``, otherwise they are gathered into ``ws.left``; its right sums
    are the total less the left sums.
    """
    n = order.size
    lo, hi = min_leaf - 1, n - min_leaf - 1  # gap b leaves b + 1 rows left
    if hi < lo:
        return None
    # mode="clip": in the default mode take fills ``out`` through a temporary
    xs = np.take(ws.columns[j], order, out=ws.xs[:n], mode="clip")
    gaps = np.less(xs[lo:hi + 1], xs[lo + 1:hi + 2], out=ws.gaps[:hi + 1 - lo])
    k = int(np.count_nonzero(gaps))
    if k == 0:
        return None
    cum = ws.block(ws.cum, n)
    g = crit.gathered
    np.take(crit.cols[:g], order, axis=1, out=cum[:g], mode="clip")
    np.cumsum(cum[:g], axis=1, out=cum[:g])
    cum[g:] = ws.counts[:n]  # the count row, if the criterion has one
    total = cum[:, n - 1:]  # scoring may overwrite the searched window only
    pos = None if k == gaps.size else np.flatnonzero(gaps) + lo
    for s in range(0, k, _BLOCK_ROWS):
        e = min(k, s + _BLOCK_ROWS)
        left = cum[:, lo + s:lo + e] if pos is None else \
            np.take(cum, pos[s:e], axis=1, out=ws.block(ws.left, e - s),
                    mode="clip")
        right = np.subtract(total, left, out=ws.block(ws.right, e - s))
        crit.scores_batch(left, ws.scores[0, s:e])
        crit.scores_batch(right, ws.scores[1, s:e])
    combined = np.add(ws.scores[0, :k], ws.scores[1, :k], out=ws.scores[0, :k])
    i = int(np.argmax(combined))  # first max = lowest threshold
    b = lo + i if pos is None else int(pos[i])
    return float(combined[i]), float(xs[b]), b + 1


def best_split_generic(ws: SweepWorkspace, rows, orders, config: FitConfig,
                       crit):
    """Best strict-improvement split at a node under any node criterion,
    given the node's ``presort`` orders."""
    node = crit.node_score(rows)
    best = None
    for j, order in enumerate(orders):
        got = _sweep_feature(ws, j, order, crit, config.min_leaf)
        if got is None:
            continue
        combined, threshold, left_count = got
        if combined > node and (best is None or combined > best.combined_revenue):
            best = SplitCandidate(j, threshold, combined,
                                  left_count, rows.size - left_count)
    return best


def split_node(ws: SweepWorkspace, rows, orders, depth: int,
               config: FitConfig, crit):
    """A grower's step at a node of ``depth`` with ``orders`` =
    ``presort(ws.columns, rows)``: None if the node stays a leaf, else its
    best split and the (rows, orders) pairs of its left and right children.
    The children's orders are column ranges of ``orders``, which is
    partitioned in place; a child that cannot split gets None for its
    orders."""
    if not config.can_split(depth, rows.size):
        return None
    cand = best_split_generic(ws, rows, orders, config, crit)
    if cand is None:
        return None
    go_left = ws.columns[cand.feature_index][rows] <= cand.threshold
    left, right = rows[go_left], rows[~go_left]
    keep = (config.can_split(depth + 1, left.size),
            config.can_split(depth + 1, right.size))
    left_orders, right_orders = split_orders(orders, left, ws.columns.shape[1],
                                             keep)
    return cand, (left, left_orders), (right, right_orders)


def grow_tree(features, crit, config: FitConfig, feature_names) -> PolicyTree:
    """Greedy top-down growth shared by SPT and the baseline trees; the tree
    carries its criterion's grid, whose prices its leaves take."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    n, d = features.shape
    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{i}" for i in range(d))
    ws = SweepWorkspace(features, n, crit.stats.shape[1])

    def visit(state):
        rows, orders, depth = state
        got = split_node(ws, rows, orders, depth, config, crit)
        if got is None:
            price, revsum = crit.leaf_payload(crit.node_sums(rows), rows.size)
            return LeafNode(price, revsum, int(rows.size))
        cand, left, right = got
        return (cand.feature_index, cand.threshold,
                (*left, depth + 1), (*right, depth + 1))

    rows = np.arange(n)
    nodes = grow_preorder((rows, presort(ws.columns, rows), 0), visit)
    return PolicyTree(nodes, 0, names, crit.grid.prices, check_structure(nodes, 0))


def leaf_revenue(revmat: RevenueMatrix, rows) -> tuple[int, float]:
    """Best grid column (index) and its revenue sum over the given rows."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("leaf_revenue needs a nonempty row set")
    sums = revmat.values[rows].sum(axis=0)
    k = int(np.argmax(sums))
    return k, float(sums[k])


def best_split(revmat: RevenueMatrix, features, rows,
               config: FitConfig) -> SplitCandidate | None:
    """Public SPT split search; None when no strict improvement exists."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    rows = np.asarray(rows, dtype=np.int64)
    crit = _RevenueCriterion(revmat)
    ws = SweepWorkspace(features, rows.size, crit.stats.shape[1])
    return best_split_generic(ws, rows, presort(ws.columns, rows), config, crit)


def fit_spt(features, revmat: RevenueMatrix, config: FitConfig,
            feature_names=None) -> PolicyTree:
    """Fit the student prescriptive tree on a revenue matrix."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] != revmat.n:
        raise ValueError("features and revenue matrix row counts differ")
    return grow_tree(features, _RevenueCriterion(revmat), config, feature_names)


def training_revenue(tree: PolicyTree) -> float:
    """Total predicted revenue sum over all leaves (training objective)."""
    return float(sum(n.revenue_sum for n in tree.nodes if isinstance(n, LeafNode)))


def export_tree(tree: PolicyTree, format: str = "json") -> str:
    """Serialize to the documented JSON schema or to Graphviz DOT."""
    if format == "json":
        doc = {"feature_names": list(tree.feature_names),
               "price_grid": [float(p) for p in tree.grid_prices],
               **nodes_to_json(tree.nodes, tree.root)}
        return json.dumps(doc, indent=2)
    if format == "dot":
        lines = ["digraph policy_tree {"]
        for i, node in enumerate(tree.nodes):
            if isinstance(node, SplitNode):
                name = tree.feature_names[node.feature] \
                    if node.feature < len(tree.feature_names) else f"x{node.feature}"
                name = name.replace("\\", "\\\\").replace('"', '\\"')  # DOT string
                lines.append(f'  n{i} [shape=box, label="{name} ≤ {node.threshold:g}"];')
            else:
                per_item = node.revenue_sum / node.n_train if node.n_train else float("nan")
                lines.append(f'  n{i} [shape=oval, label="price {node.price:g}\\n'
                             f'rev/item {per_item:.4g}"];')
        for i, node in enumerate(tree.nodes):
            if isinstance(node, SplitNode):
                lines.append(f'  n{i} -> n{node.left} [label="yes"];')
                lines.append(f'  n{i} -> n{node.right} [label="no"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format {format!r}")


def _float_vector(values) -> np.ndarray:
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError("not a vector")
    return vector


def _names(values) -> tuple:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError("not a list of strings")
    return tuple(values)


def tree_from_json(text: str) -> PolicyTree:
    """Inverse of export_tree(..., 'json'); malformed input raises a DataError."""
    doc = json.loads(text)
    names = json_field(doc, "feature_names", "tree", _names)
    grid = json_field(doc, "price_grid", "tree", _float_vector)
    nodes, root, depth = nodes_from_json(doc, LeafNode, "tree", len(names))
    return PolicyTree(nodes, root, names, grid, depth)


def single_leaf_tree(price: float, revenue_sum: float = 0.0, n_train: int = 0,
                     grid_prices=None) -> PolicyTree:
    """Constant policy as a one-leaf tree."""
    grid = np.asarray(grid_prices, dtype=np.float64) if grid_prices is not None \
        else np.asarray([price])
    return PolicyTree([LeafNode(float(price), float(revenue_sum), int(n_train))],
                      0, (), grid, 0)
