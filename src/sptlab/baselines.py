"""Comparator policies: personalization trees, one-vs-all causal trees,
naive distill-then-optimize, constant price, and the historical policy."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset, PriceGrid, half_rows
from .spt import (_BLOCK_ROWS, FitConfig, PolicyTree, StatsCriterion,
                  SweepWorkspace, grow_tree, single_leaf_tree, split_node,
                  stat_pairs)
from .teacher import RevenueMatrix, TeacherModel
from .tree import (grow_preorder, json_field, leaf_values, nodes_from_json,
                   nodes_to_json, presort)


def assign_treatments(prices, grid: PriceGrid) -> np.ndarray:
    """Each observed price's treatment: the index of its nearest grid price,
    ties to the lower, as a read-only int64 array."""
    p = np.asarray(prices, dtype=np.float64)
    pos = np.searchsorted(grid.prices, p)
    lo = np.clip(pos - 1, 0, grid.m - 1)
    hi = np.clip(pos, 0, grid.m - 1)
    d_lo = np.abs(p - grid.prices[lo])
    d_hi = np.abs(grid.prices[hi] - p)
    idx = np.where(d_lo <= d_hi, lo, hi).astype(np.int64)
    idx.flags.writeable = False
    return idx


class _PersonalizationCriterion(StatsCriterion):
    """Node score: best per-treatment average observed revenue.

    I(S) = max_t sum(p_i y_i [t_i = t]) / sum([t_i = t]), treatments with no
    observation in the node excluded from the max. Stored leaf revenue_sum is
    the winning average scaled by the node size so it shares the sum scale
    used by the other trees.
    """

    def __init__(self, data: Dataset, grid: PriceGrid):
        n, m = data.n, grid.m
        treatments = assign_treatments(data.prices, grid)
        pairs = np.zeros((m, n), dtype=np.complex128)  # stat_pairs' layout
        flat = pairs.view(np.float64)  # [s // 2, 2 * i + s % 2] is statistic s of row i
        twice = 2 * np.arange(n)
        for s, value in ((treatments, data.prices * data.outcomes),
                         (m + treatments, 1.0)):
            flat[s // 2, twice + s % 2] = value
        super().__init__(pairs, 2 * m)
        self.grid = grid
        self.m = m

    def _avgs(self, sums):
        rev, cnt = sums[..., :self.m], sums[..., self.m:]
        return np.where(cnt > 0.5, rev / np.maximum(cnt, 1.0), -np.inf)

    def scores_batch(self, sums, out):
        """Divides each revenue row of ``sums`` by its count row in place. An
        unobserved treatment's 0/0 is NaN, which fmax skips."""
        rev = sums[:self.m]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(rev, sums[self.m:], out=rev)
        np.fmax.reduce(rev, axis=0, out=out)

    def leaf_payload(self, sums, count):
        avgs = self._avgs(sums)
        t = int(np.argmax(avgs))  # first max = lowest price
        return float(self.grid.prices[t]), float(avgs[t] * count)


def sum_rows_pairwise(block, out):
    """The sums over the rows of a 2-D block into ``out``, adding in the
    order of numpy's pairwise sum along a contiguous axis, so that they equal
    ``block.T.sum(axis=1)`` bit for bit: one row after another below 8 rows,
    8 running sums up to 128 rows, halves above that. Overwrites ``block``.

    On a 2-vCPU Xeon a (9, 4096) block takes about 45 us, against 165 us for
    a row-major copy summed by numpy's ``sum(axis=1)``, whose inner loop
    restarts for every 9-entry row."""
    m = block.shape[0]
    if m > 128:
        half = m // 2 - (m // 2) % 8
        sum_rows_pairwise(block[half:], block[half])
        sum_rows_pairwise(block[:half], out)
        np.add(out, block[half], out=out)
        return
    if m < 8:
        np.copyto(out, block[0])
        rest = 1
    else:
        acc = block[:8]
        rest = m - m % 8
        for i in range(8, rest, 8):
            np.add(acc, block[i:i + 8], out=acc)
        np.add(acc[0::2], acc[1::2], out=acc[0::2])  # (r0 + r1), (r2 + r3), ...
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=out)
    for row in block[rest:]:
        np.add(out, row, out=out)


class _MultiOutputMseCriterion(StatsCriterion):
    """Negative sum-of-squared-errors of the teacher probability vectors.
    The statistics are the targets, their squared norm and a row of ones."""

    def __init__(self, targets: np.ndarray, grid: PriceGrid):
        n, self.m = targets.shape
        super().__init__(stat_pairs([*targets.T, (targets ** 2).sum(axis=1), 1.0],
                                    n), self.m + 2)
        self.grid = grid

    def node_score(self, rows):  # s @ s adds in its own order: kept as is
        sums = self.node_sums(rows)
        s = sums[: self.m]
        return float(-(sums[self.m] - (s @ s) / rows.size))

    def scores_batch(self, sums, out):
        s = sums[:self.m]
        np.multiply(s, s, out=s)
        sum_rows_pairwise(s, out)
        np.divide(out, sums[self.m + 1], out=out)
        np.subtract(sums[self.m], out, out=out)
        np.negative(out, out=out)

    def leaf_payload(self, sums, count):
        s = sums[: self.m]
        k = int(np.argmax(self.grid.prices * (s / count)))
        return float(self.grid.prices[k]), float(self.grid.prices[k] * s[k])


def fit_pt(data: Dataset, grid: PriceGrid, config: FitConfig) -> PolicyTree:
    """Personalization tree: greedy maximization of per-treatment averages."""
    return grow_tree(data.features, _PersonalizationCriterion(data, grid), config,
                     data.feature_names)


def fit_naive_distill(features, probs, grid: PriceGrid, config: FitConfig,
                      feature_names=None) -> PolicyTree:
    """Distill-then-optimize: regress the teacher's probability vectors
    ``probs`` = P[i, k] = f(x_i, p_k) with a multi-output MSE tree, then price
    each leaf by its mean predicted demand."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return grow_tree(X, _MultiOutputMseCriterion(probs, grid), config,
                     feature_names)


def naive_training_mse(tree: PolicyTree, features, targets) -> float:
    """Multi-output training MSE of the fitted regression partition."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    T = np.asarray(targets, dtype=np.float64)
    leaf_ids = tree.leaf_rows(X)
    sse = 0.0
    for nid in np.unique(leaf_ids):
        sub = T[leaf_ids == nid]
        sse += float(((sub - sub.mean(axis=0)) ** 2).sum())
    return sse / T.size


def constant_price_policy(revmat: RevenueMatrix) -> PolicyTree:
    """Depth-0 comparator: the single grid price best on the whole sample.

    The axis-0 sum of the C-order matrix adds its rows in the order that
    ``leaf_revenue`` over every row does, without that call's copy of the
    matrix."""
    sums = revmat.values.sum(axis=0)
    k = int(np.argmax(sums))
    return single_leaf_tree(float(revmat.grid.prices[k]), float(sums[k]), revmat.n,
                            revmat.grid.prices)


def historical_policy_revenue(data: Dataset, truth: TeacherModel) -> float:
    """Mean expected revenue of the observed prices (the no-change policy)."""
    probs = truth.predict_proba_batch(data.features, data.prices)
    return float(np.mean(data.prices * probs))


# --- one-vs-all causal trees -------------------------------------------------

@dataclass(frozen=True)
class EffectLeaf:
    effect: float
    treated_mean: float
    n_est: int


@dataclass
class EffectTree:
    """Honest per-treatment effect tree: structure from one half, estimates
    (treated-vs-rest outcome means) from the other."""

    nodes: list
    root: int

    def treated_means(self, X: np.ndarray) -> np.ndarray:
        return leaf_values(self.nodes, self.root, X, "treated_mean")

    def effects(self, X: np.ndarray) -> np.ndarray:
        return leaf_values(self.nodes, self.root, X, "effect")


class _EffectVarianceCriterion(StatsCriterion):
    """Split score: sum over children of n * (effect estimate)^2, the greedy
    proxy for maximizing the variance of leaf effect estimates. Children
    lacking a treated or control observation are invalid (-inf). The
    statistics are w, w * y, y and a row of ones."""

    WIDTH = 4  # statistics per row

    def __init__(self, y: np.ndarray, w: np.ndarray):
        super().__init__(stat_pairs([w, w * y, y, 1.0], y.size), self.WIDTH)
        block = min(y.size, _BLOCK_ROWS)
        self._nc, self._invalid = np.empty(block), np.empty(block, dtype=bool)

    def scores_batch(self, sums, out):
        """n * delta^2 with delta = sty / max(nt, 1) - (sy - sty) / max(nc, 1),
        computed in ``out``, the rows of ``sums`` and two reused buffers."""
        nc, invalid = self._nc[:out.size], self._invalid[:out.size]
        nt, sty, sy, counts = sums
        np.subtract(counts, nt, out=nc)
        np.minimum(nt, nc, out=out)
        np.less_equal(out, 0.5, out=invalid)  # no treated or no control row
        np.maximum(nt, 1.0, out=nt)
        np.divide(sty, nt, out=nt)  # treated mean
        np.subtract(sy, sty, out=sy)
        np.maximum(nc, 1.0, out=nc)
        np.divide(sy, nc, out=sy)  # control mean
        np.subtract(nt, sy, out=nt)  # delta
        np.multiply(counts, nt, out=out)
        np.multiply(out, nt, out=out)
        np.copyto(out, -np.inf, where=invalid)


def _group_means(y, w, rows):
    """(effect, treated_mean) on the given rows, or None if a group is empty."""
    nt = w[rows].sum()
    nc = rows.size - nt
    if nt < 1 or nc < 1:
        return None
    mu1 = float(y[rows][w[rows] > 0.5].mean())
    mu0 = float(y[rows][w[rows] <= 0.5].mean())
    return mu1 - mu0, mu1


def _fit_effect_tree(ws: SweepWorkspace, X, y, w, struct_rows, struct_orders,
                     est_rows, config: FitConfig) -> EffectTree:
    crit = _EffectVarianceCriterion(y, w)
    root_est = _group_means(y, w, est_rows)
    if root_est is None:
        raise DataError("causal tree needs treated and control rows in the "
                        "estimation half")

    def visit(state):
        srows, sorders, erows, depth, parent_est = state
        est = _group_means(y, w, erows) if erows.size else None
        eff, mu1 = est if est is not None else parent_est
        got = split_node(ws, srows, sorders, depth, config, crit)
        if got is None:
            return EffectLeaf(eff, mu1, int(erows.size))
        cand, left, right = got
        e_left = X[erows, cand.feature_index] <= cand.threshold
        return (cand.feature_index, cand.threshold,
                (*left, erows[e_left], depth + 1, (eff, mu1)),
                (*right, erows[~e_left], depth + 1, (eff, mu1)))

    root = (struct_rows, struct_orders, est_rows, 0, root_est)
    return EffectTree(grow_preorder(root, visit), 0)


@dataclass
class OneVsAllPolicy:
    """One honest effect tree per grid price; prescribes the price whose
    honest treated-mean converts to the highest expected revenue."""

    trees: list
    grid: PriceGrid

    def prescribe(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        mu1 = np.column_stack([t.treated_means(X) for t in self.trees])
        scores = self.grid.prices[None, :] * mu1
        return self.grid.prices[np.argmax(scores, axis=1)]  # ties: lowest price

    def predict_price(self, x) -> float:
        return float(self.prescribe(np.atleast_2d(x))[0])

    @property
    def n_leaves(self) -> float:
        """Mean leaf count of the per-price trees."""
        counts = [sum(isinstance(n, EffectLeaf) for n in t.nodes) for t in self.trees]
        return float(np.mean(counts))


def fit_ct_one_vs_all(data: Dataset, grid: PriceGrid, config: FitConfig,
                      seed: int) -> OneVsAllPolicy:
    """Fit one honest causal tree per grid price, each observed price snapped
    to its nearest grid price; the sample is split once (by seed) into
    structure and estimation halves shared by all treatments."""
    treatments = assign_treatments(data.prices, grid)
    struct_rows, est_rows = half_rows(data.n, seed)
    X = data.features
    y = data.outcomes.astype(np.float64)
    ws = SweepWorkspace(X, struct_rows.size, _EffectVarianceCriterion.WIDTH)
    struct_orders, ws.untied = presort(ws.columns, struct_rows)  # these and ws serve all m trees
    orders = np.empty_like(struct_orders)  # each tree partitions its own copy
    trees = []
    for t in range(grid.m):
        w = (treatments == t).astype(np.float64)
        if w.sum() < 1 or (data.n - w.sum()) < 1:
            raise DataError(f"treatment {t} has an empty treated or control group")
        np.copyto(orders, struct_orders)
        trees.append(_fit_effect_tree(ws, X, y, w, struct_rows, orders,
                                      est_rows, config))
    return OneVsAllPolicy(trees, grid)


def export_one_vs_all(policy: OneVsAllPolicy) -> str:
    """JSON: array of per-treatment effect trees plus the grid."""
    return json.dumps({"price_grid": [float(p) for p in policy.grid.prices],
                       "trees": [nodes_to_json(t.nodes, t.root)
                                 for t in policy.trees]}, indent=2)


def one_vs_all_from_json(text: str) -> OneVsAllPolicy:
    """Inverse of export_one_vs_all; malformed input raises a DataError."""
    doc = json.loads(text)
    grid = json_field(doc, "price_grid", "policy", PriceGrid)
    docs = json_field(doc, "trees", "policy")
    if not isinstance(docs, list) or len(docs) != grid.m:
        raise DataError(f"policy: 'trees' must list one tree per grid price "
                        f"({grid.m})")
    trees = [EffectTree(*nodes_from_json(td, EffectLeaf, f"policy tree {t}")[:2])
             for t, td in enumerate(docs)]
    return OneVsAllPolicy(trees, grid)
