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
its rows in feature order (``sptlab.tree``).
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


class StatsCriterion:
    """A node criterion over per-row statistics ``self.stats``: a node is
    scored from the column sums of its rows. Subclasses give
    ``scores_batch(sums, counts)``, the scores of many nodes at once, and
    policy-tree criteria ``leaf_payload(sums, count)`` -> (price, revenue_sum)."""

    def node_sums(self, rows):
        return self.stats[rows].sum(axis=0)

    def node_score(self, sums, count):
        return float(self.scores_batch(sums[None, :], np.asarray([count]))[0])


class _RevenueCriterion(StatsCriterion):
    """max-over-prices column-sum score for the student prescriptive tree."""

    def __init__(self, revmat: RevenueMatrix):
        self.stats = revmat.values
        self.grid = revmat.grid

    def scores_batch(self, sums, counts):
        return sums.max(axis=1)

    def leaf_payload(self, sums, count):
        k = int(np.argmax(sums))  # first max = lowest price
        return float(self.grid.prices[k]), float(sums[k])


def _sweep_feature(xs, stats, order, min_leaf, scores_batch):
    """Best boundary for one feature, given the node's rows in ``order`` and
    their sorted values ``xs``: (combined, threshold, left_count) or None."""
    n = xs.size
    bnd = np.nonzero(xs[:-1] < xs[1:])[0]
    if bnd.size == 0:
        return None
    n_left = bnd + 1
    ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    bnd = bnd[ok]
    if bnd.size == 0:
        return None
    csum = np.cumsum(stats[order], axis=0)
    left = csum[bnd]
    right = csum[-1] - left
    combined = scores_batch(left, bnd + 1) + scores_batch(right, n - bnd - 1)
    i = int(np.argmax(combined))  # first max = lowest threshold
    return float(combined[i]), float(xs[bnd[i]]), int(bnd[i] + 1)


def best_split_generic(features, rows, config: FitConfig, crit, orders=None):
    """Best strict-improvement split at a node under any node criterion.

    ``orders`` is the node's ``presort(features, rows)``; growers pass it
    down the tree, other callers leave it for this function to compute."""
    rows = np.asarray(rows, dtype=np.int64)
    if orders is None:
        orders = presort(features, rows)
    node = crit.node_score(crit.node_sums(rows), rows.size)
    best = None
    for j in range(features.shape[1]):
        order = orders[j]
        got = _sweep_feature(features[order, j], crit.stats, order,
                             config.min_leaf, crit.scores_batch)
        if got is None:
            continue
        combined, threshold, left_count = got
        if combined > node and (best is None or combined > best.combined_revenue):
            best = SplitCandidate(j, threshold, combined,
                                  left_count, rows.size - left_count)
    return best


def split_node(features, rows, orders, depth: int, config: FitConfig, crit):
    """A grower's step at a node of ``depth`` with ``orders`` =
    ``presort(features, rows)``: None if the node stays a leaf, else its
    best split and the (rows, orders) pairs of its left and right children.
    A child that cannot split gets None for its orders."""
    if not config.can_split(depth, rows.size):
        return None
    cand = best_split_generic(features, rows, config, crit, orders)
    if cand is None:
        return None
    go_left = features[rows, cand.feature_index] <= cand.threshold
    left, right = rows[go_left], rows[~go_left]
    keep = (config.can_split(depth + 1, left.size),
            config.can_split(depth + 1, right.size))
    left_orders, right_orders = split_orders(orders, left, features.shape[0], keep)
    return cand, (left, left_orders), (right, right_orders)


def grow_tree(features, crit, config: FitConfig, feature_names,
              grid_prices) -> PolicyTree:
    """Greedy top-down growth shared by SPT and the baseline trees."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    n, d = features.shape
    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{i}" for i in range(d))

    def visit(state):
        rows, orders, depth = state
        got = split_node(features, rows, orders, depth, config, crit)
        if got is None:
            price, revsum = crit.leaf_payload(crit.node_sums(rows), rows.size)
            return LeafNode(price, revsum, int(rows.size))
        cand, left, right = got
        return (cand.feature_index, cand.threshold,
                (*left, depth + 1), (*right, depth + 1))

    rows = np.arange(n)
    nodes = grow_preorder((rows, presort(features, rows), 0), visit)
    return PolicyTree(nodes, 0, names, np.asarray(grid_prices, dtype=np.float64),
                      check_structure(nodes, 0))


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
    return best_split_generic(features, rows, config, _RevenueCriterion(revmat))


def fit_spt(features, revmat: RevenueMatrix, config: FitConfig,
            feature_names=None) -> PolicyTree:
    """Fit the student prescriptive tree on a revenue matrix."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] != revmat.n:
        raise ValueError("features and revenue matrix row counts differ")
    return grow_tree(features, _RevenueCriterion(revmat), config,
                     feature_names, revmat.grid.prices)


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


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def tree_from_json(text: str) -> PolicyTree:
    """Inverse of export_tree(..., 'json')."""
    doc = json.loads(text)
    names = json_field(doc, "feature_names", "tree", tuple)
    grid = json_field(doc, "price_grid", "tree", _float_array)
    nodes, root, depth = nodes_from_json(doc, LeafNode, "tree", len(names))
    return PolicyTree(nodes, root, names, grid, depth)


def single_leaf_tree(price: float, revenue_sum: float = 0.0, n_train: int = 0,
                     grid_prices=None) -> PolicyTree:
    """Constant policy as a one-leaf tree."""
    grid = np.asarray(grid_prices, dtype=np.float64) if grid_prices is not None \
        else np.asarray([price])
    return PolicyTree([LeafNode(float(price), float(revenue_sum), int(n_train))],
                      0, (), grid, 0)
