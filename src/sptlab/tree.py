"""The one tree core: every sptlab tree is a list of nodes.

The student prescriptive tree, the PT/CT/naive baselines and the boosted
teacher's regression trees are all axis-aligned binary trees that send
``x[feature] <= threshold`` left. Each is a node list: ``SplitNode``s plus
leaves of the tree's own kind (a frozen dataclass whose fields are the leaf
payload). This module routes, checks, grows and serializes every such list.

Growers sort each feature once per fit (the pre-sorted column blocks of
XGBoost's exact greedy method, Chen & Guestrin 2016, section 4.1). A fit
holds one (d x n) order buffer: a node's orders are a column range of it,
one row per feature listing the node's rows by ascending value. A split
partitions the node's range in place, stably, so that each feature's row
reads [left rows | right rows], and the children take the two halves.
Partitioning keeps the relative order of the rows on each side, so a
child's orders equal a stable argsort of the child's own values: ties
stay in the order of the child's rows. Sweeps over these orders therefore
add the same numbers in the same order as a per-node argsort, and pick the
same splits. Sorting reads one column-major feature at a time, so a fit
keeps a single column-major copy of its features, and it notes which
columns have no tie: in such a column, and in any node's subset of it,
every gap between adjacent sorted rows is a value boundary. The
policy-tree growers of ``sptlab.spt`` also give each fit one
``SweepWorkspace``: that copy, those flags and the buffers in which every
node's sweep over these orders gathers and cumulates its statistics, owned
by the fit alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DataError


@dataclass(frozen=True)
class SplitNode:
    feature: int
    threshold: float
    left: int
    right: int


def apply(nodes, root, X) -> np.ndarray:
    """Leaf node id reached by each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        if idx.size == 0:
            continue
        node = nodes[nid]
        if not isinstance(node, SplitNode):
            out[idx] = nid
            continue
        if node.feature >= X.shape[1]:
            raise ValueError(
                f"feature matrix of dim {X.shape[1]} too narrow for split on "
                f"feature {node.feature}")
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def leaf_values(nodes, root, X, field: str) -> np.ndarray:
    """The ``field`` of the leaf each row of X reaches."""
    values = np.asarray([getattr(node, field, np.nan) for node in nodes],
                        dtype=np.float64)
    return values[apply(nodes, root, X)]


def grid_leaf_values(nodes, root, X, prices, field: str) -> np.ndarray:
    """(m, n) array whose [k, i] is the ``field`` of the leaf that row i of
    X reaches with ``prices[k]`` appended as its last feature, feature
    ``X.shape[1]``; ``prices`` must be ascending.

    A node is reached by a set of rows and a range [a, b) of prices. The
    prices at or below a price split's threshold are a prefix of the range,
    so that split cuts the range and sends the same rows both ways; any other
    split partitions the rows. Each row is therefore routed once per price
    range rather than once per price, and reaches the leaf that ``apply``
    finds for each of its (row, price) pairs.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    prices = np.asarray(prices, dtype=np.float64)
    d = X.shape[1]
    out = np.empty((prices.size, X.shape[0]))
    stack = [(root, 0, prices.size, np.arange(X.shape[0]))]
    while stack:
        nid, a, b, idx = stack.pop()
        if a == b or idx.size == 0:
            continue
        node = nodes[nid]
        if not isinstance(node, SplitNode):
            out[a:b, idx] = getattr(node, field)
        elif node.feature == d:
            cut = a + int(np.searchsorted(prices[a:b], node.threshold, side="right"))
            stack.append((node.left, a, cut, idx))
            stack.append((node.right, cut, b, idx))
        else:
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, a, b, idx[go_left]))
            stack.append((node.right, a, b, idx[~go_left]))
    return out


def check_structure(nodes, root, where: str = "") -> int:
    """Depth of a proper binary tree: a DataError, its message prefixed by
    ``where``, unless every node is reached from ``root`` exactly once (no
    cycles, no shared or unreachable nodes)."""
    prefix = f"{where}: " if where else ""
    seen = set()
    depth = 0
    stack = [(root, 0)]
    while stack:
        nid, level = stack.pop()
        if nid in seen:
            raise DataError(f"{prefix}tree has a repeated/reachable-twice node")
        seen.add(nid)
        depth = max(depth, level)
        node = nodes[nid]
        if isinstance(node, SplitNode):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    if len(seen) != len(nodes):
        raise DataError(f"{prefix}tree has unreachable nodes")
    return depth


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


def presort(columns: np.ndarray, rows: np.ndarray) -> tuple:
    """``(orders, untied)``: the (d, len(rows)) orders of the ``(d, n)``
    feature values ``columns`` (column-major: one row per feature), whose
    row j lists ``rows`` by ascending ``columns[j]``, ties in the order they
    appear in ``rows``; and a (d,) bool array, true for a column whose
    values on ``rows`` are all distinct. The columns are gathered one at a
    time, so no second copy of the features is made.

    Each column is sorted by numpy's default (vectorized, unstable) argsort.
    Without ties the ascending order is unique, so it equals the stable one;
    a column whose sorted values are not strictly increasing (a tie, or a
    NaN) is sorted again with ``kind="stable"`` and is not untied. A column
    with a tie in an evenly spaced sample of 256 to 511 of its values (all
    of them below 512 rows), as a feature of few levels has, goes to the
    stable sort at once. Any subset of an untied column's rows is untied
    too, so a sweep at any node below may treat every gap between adjacent
    sorted rows of that column as a value boundary.
    """
    rows = np.asarray(rows, dtype=np.int64)
    orders = np.empty((columns.shape[0], rows.size), dtype=np.int64)
    untied = np.zeros(columns.shape[0], dtype=bool)
    step = max(1, rows.size // 256)
    for j, (values, out) in enumerate(zip(columns, orders)):
        col = values[rows]
        sample = np.sort(col[::step])
        order = None
        if not np.any(sample[1:] == sample[:-1]):
            order = np.argsort(col)
            ranked = col[order]
            untied[j] = np.all(ranked[1:] > ranked[:-1])
            if not untied[j]:
                order = None
        if order is None:
            order = np.argsort(col, kind="stable")
        out[:] = rows[order]
    return orders, untied


# Feature x row cells partitioned per chunk by ``split_orders``. A chunk's
# copy, masks and gathered halves take about 18 bytes a cell, so at the root
# of an n=50k fit (one feature a chunk) they take 0.9 MB, where children
# built beside their parent would take a second (d x n) order matrix.
_PARTITION_CELLS = 1 << 14


def split_orders(orders: np.ndarray, left_rows: np.ndarray, n: int,
                 keep=(True, True)) -> tuple:
    """The two children's orders, given the rows that go left out of ``n``:
    each row of ``orders`` is stably partitioned in place into [left rows |
    right rows], and the children get the column ranges of ``orders`` that
    hold their rows. A child whose ``keep`` flag is false gets None instead;
    when neither is kept ``orders`` is left as it is."""
    if not any(keep):
        return None, None
    is_left = np.zeros(n, dtype=bool)
    is_left[left_rows] = True
    d, width = orders.shape
    n_left = left_rows.size
    step = max(1, _PARTITION_CELLS // max(width, 1))
    for j in range(0, d, step):
        block = orders[j:j + step]
        chunk = block.copy()  # contiguous: numpy indexes with it 3x faster
        go_left = is_left[chunk]
        block[:, :n_left] = chunk[go_left].reshape(chunk.shape[0], n_left)
        block[:, n_left:] = chunk[~go_left].reshape(chunk.shape[0], width - n_left)
    return (orders[:, :n_left] if keep[0] else None,
            orders[:, n_left:] if keep[1] else None)


# --- JSON node codec ----------------------------------------------------------

def json_field(doc, key: str, where: str, kind=None):
    """``doc[key]``, converted by ``kind`` when given; a DataError naming
    ``where`` if the key is missing or its value does not convert."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataError(f"{where}: missing key {key!r}")
    if kind is None:
        return doc[key]
    try:
        return kind(doc[key])
    except (TypeError, ValueError, OverflowError):  # int(1e400) overflows
        raise DataError(f"{where}: bad {key!r} value {doc[key]!r}") from None


def nodes_to_json(nodes, root) -> dict:
    """``{"nodes": [...], "root": root}``; each node record is its id, its
    kind and the node's own fields in declaration order."""
    return {"nodes": [{"id": i,
                       "kind": "split" if isinstance(node, SplitNode) else "leaf",
                       **vars(node)} for i, node in enumerate(nodes)],
            "root": root}


_CONVERT = {"int": int, "float": float}  # field annotations to converters


def place_node(nodes: list, nid: int, node, at: str, n_features=None) -> None:
    """``nodes[nid] = node`` for a decoder; a DataError naming ``at`` for an
    id that is repeated or outside the list, a child outside the list, a
    split feature at or past ``n_features`` or a non-finite split threshold
    (it sends every row the same way)."""
    n = len(nodes)
    if not 0 <= nid < n or nodes[nid] is not None:
        raise DataError(f"{at}: id {nid} is repeated or outside 0..{n - 1}")
    if isinstance(node, SplitNode):
        for child in (node.left, node.right):
            if not 0 <= child < n:
                raise DataError(f"{at}: child id {child} outside 0..{n - 1}")
        if node.feature < 0 or (n_features is not None
                                and node.feature >= n_features):
            known = "" if n_features is None else f" for {n_features} feature names"
            raise DataError(f"{at}: split feature {node.feature} out of range{known}")
        if not math.isfinite(node.threshold):
            raise DataError(f"{at}: split threshold {node.threshold!r} is not finite")
    nodes[nid] = node


def nodes_from_json(doc, leaf_cls, where: str, n_features: int | None = None):
    """Inverse of ``nodes_to_json``: (nodes, root, depth).

    Leaves are ``leaf_cls`` built from the leaf record's fields. Raises
    DataError naming the node for a missing key or a node ``place_node``
    refuses, and naming the tree for a root outside the node list or a tree
    that is not a proper binary tree.
    """
    raw = json_field(doc, "nodes", where)
    root = json_field(doc, "root", where, int)
    if not isinstance(raw, list):
        raise DataError(f"{where}: 'nodes' must be a list")
    nodes: list = [None] * len(raw)
    for pos, nd in enumerate(raw):
        at = f"{where} node {pos}"
        nid = json_field(nd, "id", at, int)
        kind = json_field(nd, "kind", at)
        if kind not in ("split", "leaf"):
            raise DataError(f"{at}: unknown node kind {kind!r}")
        cls = SplitNode if kind == "split" else leaf_cls
        node = cls(*[json_field(nd, f.name, at, _CONVERT.get(f.type, f.type))
                     for f in dataclasses.fields(cls)])
        place_node(nodes, nid, node, at, n_features)
    if not 0 <= root < len(nodes):
        raise DataError(f"{where}: root id {root} outside 0..{len(nodes) - 1}")
    return nodes, root, check_structure(nodes, root, where)
