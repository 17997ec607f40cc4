"""Gradient boosted trees with logistic loss, built from scratch.

Second-order boosting on regression trees: per round, gradients
g_i = sigmoid(F_i) - y_i and hessians h_i = sigmoid(F_i)(1 - sigmoid(F_i))
are fitted by a tree grown leaf-wise (always splitting the leaf with the
largest gain) up to ``max_leaves`` leaves, with exact split search over all
observed feature values. A fit sorts each column once and every node reads
its rows in that order (``sptlab.presort``). Leaf weight is -G/(H + l2);
split gain is G_L^2/(H_L + l2) + G_R^2/(H_R + l2) - G^2/(H + l2).

Predictions are sigmoid(base_score + learning_rate * sum_t tree_t(x)), so
the ensemble is prefix-stable: adding rounds never changes earlier trees.
Training is fully deterministic (no subsampling), ties in split search
resolve to the lowest feature index then lowest threshold.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .presort import presort, split_orders

_EPS_GAIN = 1e-12


@dataclass
class Tree:
    """Flat-array regression tree; leaves have feature == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            if self.feature[nid] < 0:
                out[idx] = self.value[nid]
                continue
            go_left = X[idx, self.feature[nid]] <= self.threshold[nid]
            stack.append((self.left[nid], idx[go_left]))
            stack.append((self.right[nid], idx[~go_left]))
        return out

    @property
    def n_nodes(self) -> int:
        return self.feature.size


def _best_split(X, g, h, rows, orders, min_child, l2):
    """Best (gain, feature, threshold) for one node, or None; ``orders`` is
    the node's ``presort(X, rows)``."""
    n = rows.size
    if n < 2 * min_child:
        return None
    G, H = g[rows].sum(), h[rows].sum()
    parent = G * G / (H + l2)
    best = None
    for j in range(X.shape[1]):
        order = orders[j]
        xs = X[order, j]
        bnd = np.nonzero(xs[:-1] < xs[1:])[0]
        if bnd.size == 0:
            continue
        n_left = bnd + 1
        ok = (n_left >= min_child) & (n - n_left >= min_child)
        bnd = bnd[ok]
        if bnd.size == 0:
            continue
        gc = np.cumsum(g[order])[bnd]
        hc = np.cumsum(h[order])[bnd]
        gains = gc * gc / (hc + l2) + (G - gc) ** 2 / (H - hc + l2) - parent
        i = int(np.argmax(gains))
        if gains[i] > _EPS_GAIN and (best is None or gains[i] > best[0]):
            best = (float(gains[i]), j, float(xs[bnd[i]]))
    return best


def _grow_tree(X, g, h, root_orders, max_leaves, min_child, l2):
    """One leaf-wise tree and its training partition: (tree, {leaf id: rows}).

    ``root_orders`` is ``presort(X, all rows)``, shared by every round."""
    feature, threshold, left, right, value = [], [], [], [], []
    rows_of, orders_of = {}, {}

    def new_node(rows, orders):
        nid = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        G, H = g[rows].sum(), h[rows].sum()
        value.append(-G / (H + l2))
        rows_of[nid] = rows
        cand = _best_split(X, g, h, rows, orders, min_child, l2)
        if cand is not None:  # only leaves that may split keep their orders
            orders_of[nid] = orders
            heapq.heappush(heap, (-cand[0], nid, cand[1], cand[2]))  # ties: older leaf

    heap = []
    new_node(np.arange(X.shape[0]), root_orders)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        _, nid, j, thr = heapq.heappop(heap)
        rows = rows_of.pop(nid)
        go_left = X[rows, j] <= thr
        left_orders, right_orders = split_orders(orders_of.pop(nid),
                                                 rows[go_left], X.shape[0])
        feature[nid], threshold[nid] = j, thr
        left[nid], right[nid] = len(feature), len(feature) + 1
        value[nid] = np.nan
        new_node(rows[go_left], left_orders)
        new_node(rows[~go_left], right_orders)
        n_leaves += 1

    tree = Tree(np.asarray(feature, dtype=np.int64),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(left, dtype=np.int64),
                np.asarray(right, dtype=np.int64),
                np.asarray(value, dtype=np.float64))
    return tree, rows_of


@dataclass
class BoostedTrees:
    """Fitted ensemble: sigmoid(base_score + learning_rate * sum of trees)."""

    base_score: float
    learning_rate: float
    n_features: int
    trees: list[Tree] = field(default_factory=list)

    def predict_margin(self, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        margin = np.full(X.shape[0], self.base_score)
        for tree in self.trees[:n_trees]:
            margin += self.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
        return expit(self.predict_margin(X, n_trees))


def fit_boosted_trees(X, y, rounds=50, learning_rate=0.1, max_leaves=31,
                      min_child_samples=20, l2=1.0) -> BoostedTrees:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    base = float(np.log(p0 / (1.0 - p0)))
    model = BoostedTrees(base, learning_rate, X.shape[1])
    margin = np.full(X.shape[0], base)
    orders = presort(X, np.arange(X.shape[0]))
    for _ in range(rounds):
        p = expit(margin)
        tree, leaf_rows = _grow_tree(X, p - y, p * (1.0 - p), orders,
                                     max_leaves, min_child_samples, l2)
        for nid, rows in leaf_rows.items():  # what tree.predict(X) would add
            margin[rows] += learning_rate * tree.value[nid]
        model.trees.append(tree)
    return model


def save_boosted_trees(model: BoostedTrees, path) -> None:
    """Self-describing text format, one node per line; see README."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("sptlab-gbt v1\n")
        f.write(f"base_score {float(model.base_score)!r}\n")
        f.write(f"learning_rate {float(model.learning_rate)!r}\n")
        f.write(f"n_features {model.n_features}\n")
        f.write(f"n_trees {len(model.trees)}\n")
        for t_idx, tree in enumerate(model.trees):
            f.write(f"tree {t_idx} {tree.n_nodes}\n")
            for i in range(tree.n_nodes):
                if tree.feature[i] < 0:
                    f.write(f"{i} leaf {float(tree.value[i])!r}\n")
                else:
                    f.write(f"{i} split {int(tree.feature[i])} "
                            f"{float(tree.threshold[i])!r} "
                            f"{int(tree.left[i])} {int(tree.right[i])}\n")


def load_boosted_trees(path) -> BoostedTrees:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != "sptlab-gbt v1":
        raise ValueError(f"{path}: not a sptlab-gbt v1 model file")
    base = float(lines[1].split()[1])
    lr = float(lines[2].split()[1])
    n_features = int(lines[3].split()[1])
    n_trees = int(lines[4].split()[1])
    model = BoostedTrees(base, lr, n_features)
    pos = 5
    for _ in range(n_trees):
        head = lines[pos].split()
        if head[0] != "tree":
            raise ValueError(f"{path}: expected tree header at line {pos + 1}")
        n_nodes = int(head[2])
        pos += 1
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.full(n_nodes, np.nan)
        left = np.full(n_nodes, -1, dtype=np.int64)
        right = np.full(n_nodes, -1, dtype=np.int64)
        value = np.full(n_nodes, np.nan)
        for _ in range(n_nodes):
            parts = lines[pos].split()
            i = int(parts[0])
            if parts[1] == "leaf":
                value[i] = float(parts[2])
            else:
                feature[i] = int(parts[2])
                threshold[i] = float(parts[3])
                left[i] = int(parts[4])
                right[i] = int(parts[5])
            pos += 1
        model.trees.append(Tree(feature, threshold, left, right, value))
    return model
