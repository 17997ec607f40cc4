"""Gradient boosted trees with logistic loss, built from scratch.

Second-order boosting on regression trees: per round, gradients
g_i = sigmoid(F_i) - y_i and hessians h_i = sigmoid(F_i)(1 - sigmoid(F_i))
are fitted by a tree grown leaf-wise (always splitting the leaf with the
largest gain) up to ``max_leaves`` leaves, with exact split search over all
observed feature values. A fit reads its features through one column-major
copy, sorts each column once and every node reads its rows in that order
(``sptlab.tree``): each round copies the sorted orders into one buffer that
its splits partition in place. Each round packs its gradients and hessians
into one complex vector g + 1j * h, so that a node cumulates both with one
complex cumsum, each lane adding what a float cumsum of g or h alone adds.
A node scores all its features at once, in cache-sized chunks of
features; only a column with ties is read to mask the gaps that are not
value boundaries. Leaf weight is -G/(H + l2); split gain is
G_L^2/(H_L + l2) + G_R^2/(H_R + l2) - G^2/(H + l2).

Predictions are sigmoid(base_score + learning_rate * sum_t tree_t(x)), so
the ensemble is prefix-stable: adding rounds never changes earlier trees.
Given a price grid, a prediction is made for each row of X with each grid
price appended as the last feature: each tree routes a row once per range
of prices, not once per price (``sptlab.tree.walk``), and each entry adds
the same numbers in the same order as a prediction at its one price.
Training is fully deterministic (no subsampling), ties in split search
resolve to the lowest feature index then lowest threshold.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dataset import DataError, open_text
from .tree import (SplitNode, check_structure, leaf_values, place_node,
                   presort, split_orders)

_EPS_GAIN = 1e-12


@dataclass(frozen=True)
class ValueLeaf:
    value: float


@dataclass
class Tree:
    """Regression tree rooted at node 0: ``SplitNode``s and ``ValueLeaf``s."""

    nodes: list

    def predict(self, X: np.ndarray, prices=None) -> np.ndarray:
        """Leaf value per row of X; with ascending ``prices``, the (m, n)
        values of ``tree.leaf_values`` over the price grid."""
        return leaf_values(self.nodes, 0, X, "value", prices)


# Feature x row cells per chunk of the whole-node split search. A node with
# more cells than this searches its features in chunks of at least one
# feature. A chunk's blocks and temporaries take about 40 bytes a cell, so a
# call holds at most about 42 * max(_SPLIT_CELLS, n) bytes, 0.7 MB at 2**14
# cells; blocks that small stay in a core's L2 cache, which measured faster
# than whole-node blocks for d=20.
_SPLIT_CELLS = 1 << 14


def _best_split(columns, gh, orders, untied, G, H, min_child, l2):
    """Best (gain, feature, threshold) for one node, or None.

    ``columns`` is the fit's (d, n) column-major features, ``gh`` the
    complex per-row statistics g + 1j * h, ``orders, untied`` the node's
    ``presort(columns, rows)`` (``untied`` may be that of any superset of
    the rows) and G, H the node's gradient and hessian sums. The features of
    a chunk are scored at once: row j of a (features, rows) block of ``gh``
    is gathered through ``orders[j]`` and cumulated left to right by one
    complex cumsum, whose real and imaginary lanes add the same numbers in
    the same order as a cumsum of g and of h alone for feature j. Only the
    gaps of a tied column need its values, to mask those that are not a
    value boundary. One argmax over the chunk's row-major gains takes the
    lowest feature, then the lowest threshold, among equal gains."""
    d, n = orders.shape
    m = max(min_child, 1)  # each side holds at least one row anyway
    if n < 2 * m:
        return None
    lo, hi = m - 1, n - m  # a split after sorted position i has i + 1 rows left
    parent = G * G / (H + l2)
    best = None
    step = max(1, _SPLIT_CELLS // n)
    for j0 in range(0, d, step):
        order = orders[j0:j0 + step]
        tied = (~untied[j0:j0 + order.shape[0]]).nonzero()[0]
        if tied.size:  # in an untied column every gap is a value boundary
            # columns.ravel()[j * n_all + r] is columns[j, r]
            xs = columns.ravel()[order[tied, lo:hi + 1]
                                 + (j0 + tied)[:, None] * columns.shape[1]]
            cut = np.zeros((order.shape[0], hi - lo), dtype=bool)
            cut[tied] = ~(xs[:, :-1] < xs[:, 1:])  # not a value boundary
            del xs
        cum = gh[order[:, :hi]]
        cum.cumsum(axis=1, out=cum)
        gc, hc = cum.real[:, lo:], cum.imag[:, lo:]
        gains = gc * gc
        den = hc + l2
        gains /= den
        num = G - gc
        num *= num
        np.subtract(H, hc, out=den)
        den += l2
        num /= den
        gains += num
        gains -= parent
        del cum, gc, hc, den, num  # freed before the next chunk's blocks
        if tied.size:
            gains[cut] = -np.inf
        k, t = divmod(int(gains.argmax()), gains.shape[1])
        gain = gains[k, t]
        if gain != gain:  # NaN: it hides only its own feature's gains
            gains[np.isnan(gains).any(axis=1)] = -np.inf
            k, t = divmod(int(gains.argmax()), gains.shape[1])
            gain = gains[k, t]
        if gain > _EPS_GAIN and (best is None or gain > best[0]):
            best = (float(gain), j0 + k, float(columns[j0 + k, order[k, lo + t]]))
    return best


def _grow_tree(columns, g, h, root_orders, untied, max_leaves, min_child, l2):
    """One leaf-wise tree and its training partition: (tree, {leaf id: rows}).

    ``root_orders, untied`` is ``presort(columns, all rows)``; the splits
    partition ``root_orders`` in place. Node ids are given in creation
    order, the two children of a split together."""
    nodes, rows_of, orders_of = [], {}, {}
    n_all = columns.shape[1]
    gh = np.empty(n_all, dtype=np.complex128)
    gh.real, gh.imag = g, h

    def new_node(rows, orders):
        nid = len(nodes)
        G, H = g[rows].sum(), h[rows].sum()
        nodes.append(ValueLeaf(-G / (H + l2)))
        rows_of[nid] = rows
        cand = (None if orders is None  # no orders: the node never splits
                else _best_split(columns, gh, orders, untied, G, H, min_child, l2))
        if cand is not None:  # only leaves that may split keep their orders
            orders_of[nid] = orders
            heapq.heappush(heap, (-cand[0], nid, cand[1], cand[2]))  # ties: older leaf

    heap = []
    new_node(np.arange(n_all), root_orders)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        _, nid, j, thr = heapq.heappop(heap)
        rows = rows_of.pop(nid)
        go_left = columns[j][rows] <= thr
        left, right = rows.compress(go_left), rows.compress(~go_left)
        n_leaves += 1
        # a child under 2 * min_child rows has no split candidate, and the
        # children of the split that reaches max_leaves are never split
        last = n_leaves == max_leaves
        keep = (not last and left.size >= 2 * min_child,
                not last and right.size >= 2 * min_child)
        left_orders, right_orders = split_orders(orders_of.pop(nid), left,
                                                 n_all, keep)
        nodes[nid] = SplitNode(j, thr, len(nodes), len(nodes) + 1)
        new_node(left, left_orders)
        new_node(right, right_orders)
    return Tree(nodes), rows_of


@dataclass
class BoostedTrees:
    """Fitted ensemble: sigmoid(base_score + learning_rate * sum of trees)."""

    base_score: float
    learning_rate: float
    n_features: int
    trees: list[Tree] = field(default_factory=list)

    def predict_margin(self, X: np.ndarray, prices=None) -> np.ndarray:
        """Margin per row of X; with ascending ``prices``, the (m, n) margins
        whose [k, i] is the margin of row i of X with ``prices[k]`` appended
        as the last feature, adding the same numbers in the same order."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        shape = X.shape[0] if prices is None else (len(prices), X.shape[0])
        margin = np.full(shape, self.base_score)
        for tree in self.trees:
            values = tree.predict(X, prices)
            values *= self.learning_rate  # in place: no second (m, n) block
            margin += values
        return margin

    def predict_proba(self, X: np.ndarray, prices=None) -> np.ndarray:
        return expit(self.predict_margin(X, prices))


def fit_boosted_trees(X, y, rounds=50, learning_rate=0.1, max_leaves=31,
                      min_child_samples=20, l2=1.0) -> BoostedTrees:
    """Fit on the (n, d) features X. The fit reads X through one (d, n)
    column-major copy (none when X is already a float64 F-order array)."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    y = np.asarray(y, dtype=np.float64)
    p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    base = float(np.log(p0 / (1.0 - p0)))
    model = BoostedTrees(base, learning_rate, columns.shape[0])
    margin = np.full(columns.shape[1], base)
    root_orders, untied = presort(columns, np.arange(columns.shape[1]))
    orders = np.empty_like(root_orders)  # each tree partitions its own copy
    for _ in range(rounds):
        p = expit(margin)
        np.copyto(orders, root_orders)
        tree, leaf_rows = _grow_tree(columns, p - y, p * (1.0 - p), orders,
                                     untied, max_leaves, min_child_samples, l2)
        for nid, rows in leaf_rows.items():  # what tree.predict(X) would add
            margin[rows] += learning_rate * tree.nodes[nid].value
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
            f.write(f"tree {t_idx} {len(tree.nodes)}\n")
            for i, node in enumerate(tree.nodes):
                if isinstance(node, SplitNode):
                    f.write(f"{i} split {int(node.feature)} "
                            f"{float(node.threshold)!r} "
                            f"{int(node.left)} {int(node.right)}\n")
                else:
                    f.write(f"{i} leaf {float(node.value)!r}\n")


def _fields(lines, pos, path, *kinds):
    """The fields of line ``pos``, each converted by its kind (a str kind
    must equal its field); a DataError naming the line otherwise."""
    parts = lines[pos].split() if pos < len(lines) else []
    try:
        if len(parts) == len(kinds) and all(
                k == p for k, p in zip(kinds, parts) if isinstance(k, str)):
            return [p if isinstance(k, str) else k(p) for k, p in zip(kinds, parts)]
    except ValueError:
        pass
    expect = " ".join(k if isinstance(k, str) else f"<{k.__name__}>" for k in kinds)
    got = repr(lines[pos]) if pos < len(lines) else "the end of the file"
    raise DataError(f"{path} line {pos + 1}: expected {expect!r}, got {got}")


def load_boosted_trees(path) -> BoostedTrees:
    """Inverse of ``save_boosted_trees``. A malformed file raises a DataError
    naming the path and line: a missing or unreadable line, a node id,
    child or feature out of range, or a tree that is not a proper binary
    tree rooted at node 0; a file that is not UTF-8, naming the path."""
    with open_text(path, newline=None) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != "sptlab-gbt v1":
        raise DataError(f"{path}: not a sptlab-gbt v1 model file")
    base, lr, n_features, n_trees = (
        _fields(lines, pos, path, key, kind)[1] for pos, key, kind in (
            (1, "base_score", float), (2, "learning_rate", float),
            (3, "n_features", int), (4, "n_trees", int)))
    model = BoostedTrees(base, lr, n_features)
    head = 5
    for t in range(n_trees):
        _, _, n_nodes = _fields(lines, head, path, "tree", int, int)
        if not 1 <= n_nodes < len(lines) - head:
            raise DataError(f"{path} line {head + 1}: tree {t} needs {n_nodes} "
                            f"node lines, {len(lines) - head - 1} follow")
        nodes: list = [None] * n_nodes
        for pos in range(head + 1, head + 1 + n_nodes):
            leaf = len(lines[pos].split()) == 3
            got = _fields(lines, pos, path, *((int, "leaf", float) if leaf else
                                              (int, "split", int, float, int, int)))
            node = ValueLeaf(got[2]) if leaf else SplitNode(*got[2:])
            place_node(nodes, got[0], node, f"{path} line {pos + 1}", n_features)
        check_structure(nodes, 0, f"{path} line {head + 1}: tree {t}")
        model.trees.append(Tree(nodes))
        head += 1 + n_nodes
    return model
