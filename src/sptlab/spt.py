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
its rows in feature order (``sptlab.presort``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DataError
from .presort import presort, split_orders
from .teacher import RevenueMatrix


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


@dataclass(frozen=True)
class SplitNode:
    feature: int
    threshold: float
    left: int
    right: int


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
        x = np.asarray(x, dtype=np.float64).ravel()
        nid = self.root
        while isinstance(self.nodes[nid], SplitNode):
            node = self.nodes[nid]
            if node.feature >= x.size:
                raise ValueError(
                    f"feature vector of dim {x.size} too short for split on "
                    f"feature {node.feature}")
            nid = node.left if x[node.feature] <= node.threshold else node.right
        leaf = self.nodes[nid]
        if np.isnan(leaf.price):
            raise EmptyLeafError("routed to an unpriced (empty) leaf")
        return float(leaf.price)

    def prescribe(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            if idx.size == 0:
                continue
            node = self.nodes[nid]
            if isinstance(node, LeafNode):
                if np.isnan(node.price):
                    raise EmptyLeafError("routed to an unpriced (empty) leaf")
                out[idx] = node.price
                continue
            if node.feature >= X.shape[1]:
                raise ValueError(
                    f"feature matrix of dim {X.shape[1]} too narrow for split on "
                    f"feature {node.feature}")
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(n, LeafNode) for n in self.nodes)

    def leaf_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            if idx.size == 0:
                continue
            node = self.nodes[nid]
            if isinstance(node, LeafNode):
                out[idx] = nid
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def validate(self) -> None:
        check_structure(self.nodes, self.root)


def check_structure(nodes, root) -> None:
    """Check proper binary structure: acyclic, all nodes reachable once."""
    seen = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            raise DataError("tree has a repeated/reachable-twice node")
        seen.add(nid)
        node = nodes[nid]
        if isinstance(node, SplitNode):
            stack.extend((node.left, node.right))
    if len(seen) != len(nodes):
        raise DataError("tree has unreachable nodes")


class _RevenueCriterion:
    """max-over-prices column-sum score for the student prescriptive tree."""

    def __init__(self, revmat: RevenueMatrix):
        self.stats = revmat.values
        self.grid = revmat.grid

    def node_sums(self, rows):
        return self.stats[rows].sum(axis=0)

    def node_score(self, sums, count):
        return float(sums.max())

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


def grow_preorder(root, visit) -> list:
    """Nodes of a tree grown top-down, numbered in preorder.

    ``visit(state)`` returns a leaf node, or ``(feature, threshold,
    left_state, right_state)`` to split. Only pending right children wait
    on the stack, so with disjoint row sets the live states of a fit hold
    each row at most about twice.
    """
    nodes: list = []
    stack = [(root, None)]
    while stack:
        state, parent = stack.pop()
        nid = len(nodes)
        if parent is not None:  # a right child completes its parent
            nodes[parent] = replace(nodes[parent], right=nid)
        got = visit(state)
        if isinstance(got, tuple):  # unpacked names would outlive the states
            nodes.append(SplitNode(got[0], got[1], nid + 1, -1))
            stack.append((got[3], nid))
            stack.append((got[2], None))
        else:
            nodes.append(got)
    return nodes


def split_rows(features, rows, orders, cand: SplitCandidate):
    """(left, right) children of a node as (rows, orders) pairs."""
    go_left = features[rows, cand.feature_index] <= cand.threshold
    left_orders, right_orders = split_orders(orders, rows[go_left],
                                             features.shape[0])
    return (rows[go_left], left_orders), (rows[~go_left], right_orders)


def grow_tree(features, crit, config: FitConfig,
              feature_names=None, grid_prices=None) -> PolicyTree:
    """Greedy top-down growth shared by SPT and the baseline trees."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    n, d = features.shape
    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{i}" for i in range(d))
    max_depth_seen = 0

    def visit(state):
        nonlocal max_depth_seen
        rows, orders, depth = state
        max_depth_seen = max(max_depth_seen, depth)
        cand = None
        depth_ok = config.max_depth is None or depth < config.max_depth
        if depth_ok and rows.size >= config.minsplit:
            cand = best_split_generic(features, rows, config, crit, orders)
        if cand is None:
            price, revsum = crit.leaf_payload(crit.node_sums(rows), rows.size)
            return LeafNode(price, revsum, int(rows.size))
        left, right = split_rows(features, rows, orders, cand)
        return (cand.feature_index, cand.threshold,
                (*left, depth + 1), (*right, depth + 1))

    rows = np.arange(n)
    nodes = grow_preorder((rows, presort(features, rows), 0), visit)
    grid = np.asarray(grid_prices, dtype=np.float64) if grid_prices is not None \
        else np.unique([nd.price for nd in nodes if isinstance(nd, LeafNode)])
    tree = PolicyTree(nodes, 0, names, grid, max_depth_seen)
    tree.validate()
    return tree


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


def predict_price(tree: PolicyTree, x) -> float:
    return tree.predict_price(x)


def training_revenue(tree: PolicyTree) -> float:
    """Total predicted revenue sum over all leaves (training objective)."""
    return float(sum(n.revenue_sum for n in tree.nodes if isinstance(n, LeafNode)))


def export_tree(tree: PolicyTree, format: str = "json") -> str:
    """Serialize to the documented JSON schema or to Graphviz DOT."""
    if format == "json":
        nodes = []
        for i, node in enumerate(tree.nodes):
            if isinstance(node, SplitNode):
                nodes.append({"id": i, "kind": "split", "feature": node.feature,
                              "threshold": node.threshold,
                              "left": node.left, "right": node.right})
            else:
                nodes.append({"id": i, "kind": "leaf", "price": node.price,
                              "revenue_sum": node.revenue_sum,
                              "n_train": node.n_train})
        doc = {"feature_names": list(tree.feature_names),
               "price_grid": [float(p) for p in tree.grid_prices],
               "nodes": nodes, "root": tree.root}
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


def json_field(doc, key: str, where: str, kind=None):
    """``doc[key]``, converted by ``kind`` when given; a DataError naming
    ``where`` if the key is missing or its value does not convert."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"{where}: missing key {key!r}")
    if kind is None:
        return doc[key]
    try:
        return kind(doc[key])
    except (TypeError, ValueError):
        raise DataError(f"{where}: bad {key!r} value {doc[key]!r}") from None


def nodes_from_json(doc, make_leaf, where: str, n_features: int | None = None):
    """Decode the ``nodes`` list and ``root`` of one serialized tree.

    ``make_leaf(nd, at)`` builds a leaf from its dict. Raises DataError
    naming the node for a missing key, an id, child or root outside the node
    list, a repeated id, or a split feature at or past ``n_features``, and
    naming the tree if it is not a proper binary tree.
    """
    raw = json_field(doc, "nodes", where)
    root = json_field(doc, "root", where, int)
    if not isinstance(raw, list):
        raise DataError(f"{where}: 'nodes' must be a list")
    n = len(raw)
    nodes: list = [None] * n
    for pos, nd in enumerate(raw):
        at = f"{where} node {pos}"
        nid = json_field(nd, "id", at, int)
        if not 0 <= nid < n or nodes[nid] is not None:
            raise DataError(f"{at}: id {nid} is repeated or outside 0..{n - 1}")
        kind = json_field(nd, "kind", at)
        if kind == "split":
            node = SplitNode(json_field(nd, "feature", at, int),
                             json_field(nd, "threshold", at, float),
                             json_field(nd, "left", at, int),
                             json_field(nd, "right", at, int))
            for child in (node.left, node.right):
                if not 0 <= child < n:
                    raise DataError(f"{at}: child id {child} outside 0..{n - 1}")
            if node.feature < 0 or (n_features is not None
                                    and node.feature >= n_features):
                known = "" if n_features is None else f" for {n_features} feature names"
                raise DataError(f"{at}: split feature {node.feature} out of range{known}")
        elif kind == "leaf":
            node = make_leaf(nd, at)
        else:
            raise DataError(f"{at}: unknown node kind {kind!r}")
        nodes[nid] = node
    if not 0 <= root < n:
        raise DataError(f"{where}: root id {root} outside 0..{n - 1}")
    try:
        check_structure(nodes, root)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    return nodes, root


def tree_from_json(text: str) -> PolicyTree:
    """Inverse of export_tree(..., 'json')."""
    doc = json.loads(text)
    names = json_field(doc, "feature_names", "tree", tuple)
    grid = json_field(doc, "price_grid", "tree", _float_array)

    def leaf(nd, at):
        return LeafNode(json_field(nd, "price", at, float),
                        json_field(nd, "revenue_sum", at, float),
                        json_field(nd, "n_train", at, int))

    nodes, root = nodes_from_json(doc, leaf, "tree", len(names))
    return PolicyTree(nodes, root, names, grid, _tree_depth(nodes, root))


def _tree_depth(nodes, root) -> int:
    depth = 0
    stack = [(root, 0)]
    while stack:
        nid, lvl = stack.pop()
        depth = max(depth, lvl)
        node = nodes[nid]
        if isinstance(node, SplitNode):
            stack.append((node.left, lvl + 1))
            stack.append((node.right, lvl + 1))
    return depth


def single_leaf_tree(price: float, revenue_sum: float = 0.0, n_train: int = 0,
                     grid_prices=None) -> PolicyTree:
    """Constant policy as a one-leaf tree."""
    grid = np.asarray(grid_prices, dtype=np.float64) if grid_prices is not None \
        else np.asarray([price])
    return PolicyTree([LeafNode(float(price), float(revenue_sum), int(n_train))],
                      0, (), grid, 0)
