"""Sort-once row orders for exact greedy split search.

Each tree fit sorts every feature column once (the pre-sorted column blocks
of XGBoost's exact greedy method, Chen & Guestrin 2016, section 4.1). A
node's per-feature order is then its parent's order filtered to the node's
rows. Filtering keeps the relative order of the survivors, so it yields the
same order as a stable argsort of the node's own values: ties stay in the
order of the node's rows. Sweeps over these orders therefore add the same
numbers in the same order as a per-node argsort, and pick the same splits.

An order matrix holds one int64 per feature and row, d x n for the root.
"""

from __future__ import annotations

import numpy as np


def presort(features: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(d, len(rows)) orders: row j lists ``rows`` by ascending
    ``features[:, j]``, ties in the order they appear in ``rows``."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(features[rows], axis=0, kind="stable")
    return np.ascontiguousarray(rows[order].T)


def split_orders(orders: np.ndarray, left_rows: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two children's orders, given the rows that go left out of ``n``."""
    is_left = np.zeros(n, dtype=bool)
    is_left[left_rows] = True
    go_left = is_left[orders]
    d, n_left = orders.shape[0], left_rows.size
    return (orders[go_left].reshape(d, n_left),
            orders[~go_left].reshape(d, orders.shape[1] - n_left))
