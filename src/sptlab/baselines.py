"""Comparator policies: personalization trees, one-vs-all causal trees,
naive distill-then-optimize, constant price, and the historical policy."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset, PriceGrid, half_rows
from .spt import (FitConfig, PolicyTree, StatsCriterion, grow_tree,
                  leaf_revenue, single_leaf_tree, split_node)
from .teacher import RevenueMatrix, TeacherModel, probability_matrix
from .tree import (grow_preorder, json_field, leaf_values, nodes_from_json,
                   nodes_to_json, presort)


@dataclass(frozen=True)
class TreatmentAssignment:
    """Observed prices snapped to grid indices (nearest price, ties to lower)."""

    indices: np.ndarray
    grid: PriceGrid


def assign_treatments(prices, grid: PriceGrid) -> TreatmentAssignment:
    p = np.asarray(prices, dtype=np.float64)
    pos = np.searchsorted(grid.prices, p)
    lo = np.clip(pos - 1, 0, grid.m - 1)
    hi = np.clip(pos, 0, grid.m - 1)
    d_lo = np.abs(p - grid.prices[lo])
    d_hi = np.abs(grid.prices[hi] - p)
    idx = np.where(d_lo <= d_hi, lo, hi).astype(np.int64)
    idx.flags.writeable = False
    return TreatmentAssignment(idx, grid)


class _PersonalizationCriterion(StatsCriterion):
    """Node score: best per-treatment average observed revenue.

    I(S) = max_t sum(p_i y_i [t_i = t]) / sum([t_i = t]), treatments with no
    observation in the node excluded from the max. Stored leaf revenue_sum is
    the winning average scaled by the node size so it shares the sum scale
    used by the other trees.
    """

    def __init__(self, data: Dataset, assign: TreatmentAssignment):
        n, m = data.n, assign.grid.m
        stats = np.zeros((n, 2 * m))
        rows = np.arange(n)
        stats[rows, assign.indices] = data.prices * data.outcomes
        stats[rows, m + assign.indices] = 1.0
        self.stats = stats
        self.grid = assign.grid
        self.m = m

    def _avgs(self, sums):
        rev, cnt = sums[..., :self.m], sums[..., self.m:]
        return np.where(cnt > 0.5, rev / np.maximum(cnt, 1.0), -np.inf)

    def scores_batch(self, sums, counts):
        return self._avgs(sums).max(axis=1)

    def leaf_payload(self, sums, count):
        avgs = self._avgs(sums)
        t = int(np.argmax(avgs))  # first max = lowest price
        return float(self.grid.prices[t]), float(avgs[t] * count)


class _MultiOutputMseCriterion(StatsCriterion):
    """Negative sum-of-squared-errors of the teacher probability vectors."""

    def __init__(self, targets: np.ndarray, grid: PriceGrid):
        self.m = targets.shape[1]
        self.stats = np.column_stack([targets, (targets ** 2).sum(axis=1)])
        self.grid = grid

    def node_score(self, sums, count):  # s @ s adds in its own order: kept as is
        s = sums[: self.m]
        return float(-(sums[self.m] - (s @ s) / count))

    def scores_batch(self, sums, counts):
        s = sums[:, : self.m]
        return -(sums[:, self.m] - (s * s).sum(axis=1) / counts)

    def leaf_payload(self, sums, count):
        s = sums[: self.m]
        k = int(np.argmax(self.grid.prices * (s / count)))
        return float(self.grid.prices[k]), float(self.grid.prices[k] * s[k])


def fit_pt(data: Dataset, grid: PriceGrid, assign: TreatmentAssignment,
           config: FitConfig) -> PolicyTree:
    """Personalization tree: greedy maximization of per-treatment averages."""
    crit = _PersonalizationCriterion(data, assign)
    return grow_tree(data.features, crit, config, data.feature_names, grid.prices)


def fit_naive_distill(teacher: TeacherModel, features, grid: PriceGrid,
                      config: FitConfig, feature_names=None,
                      targets=None) -> PolicyTree:
    """Distill-then-optimize: regress the teacher's probability vector with a
    multi-output MSE tree, then price each leaf by its mean predicted demand.

    ``targets`` may pass the teacher's n x m probability matrix when the
    caller already has it; otherwise the teacher is queried over the grid."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if targets is None:
        targets = probability_matrix(teacher, X, grid)
    return grow_tree(X, _MultiOutputMseCriterion(targets, grid), config,
                     feature_names, grid.prices)


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
    """Depth-0 comparator: the single grid price best on the whole sample."""
    k, total = leaf_revenue(revmat, np.arange(revmat.n))
    return single_leaf_tree(float(revmat.grid.prices[k]), total, revmat.n,
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
    lacking a treated or control observation are invalid (-inf)."""

    def __init__(self, y: np.ndarray, w: np.ndarray):
        self.stats = np.column_stack([w, w * y, y])

    def scores_batch(self, sums, counts):
        nt = sums[..., 0]
        sty = sums[..., 1]
        sy = sums[..., 2]
        nc = counts - nt
        valid = (nt > 0.5) & (nc > 0.5)
        delta = sty / np.maximum(nt, 1.0) - (sy - sty) / np.maximum(nc, 1.0)
        return np.where(valid, counts * delta * delta, -np.inf)


def _group_means(y, w, rows):
    """(effect, treated_mean) on the given rows, or None if a group is empty."""
    nt = w[rows].sum()
    nc = rows.size - nt
    if nt < 1 or nc < 1:
        return None
    mu1 = float(y[rows][w[rows] > 0.5].mean())
    mu0 = float(y[rows][w[rows] <= 0.5].mean())
    return mu1 - mu0, mu1


def _fit_effect_tree(X, y, w, struct_rows, struct_orders, est_rows,
                     config: FitConfig) -> EffectTree:
    crit = _EffectVarianceCriterion(y, w)
    root_est = _group_means(y, w, est_rows)
    if root_est is None:
        raise DataError("causal tree needs treated and control rows in the "
                        "estimation half")

    def visit(state):
        srows, sorders, erows, depth, parent_est = state
        est = _group_means(y, w, erows) if erows.size else None
        eff, mu1 = est if est is not None else parent_est
        got = split_node(X, srows, sorders, depth, config, crit)
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


def fit_ct_one_vs_all(data: Dataset, grid: PriceGrid, assign: TreatmentAssignment,
                      config: FitConfig, seed: int) -> OneVsAllPolicy:
    """Fit m one-vs-all honest causal trees; the sample is split once (by
    seed) into structure and estimation halves shared by all treatments."""
    struct_rows, est_rows = half_rows(data.n, seed)
    X = data.features
    y = data.outcomes.astype(np.float64)
    struct_orders = presort(X, struct_rows)  # shared by all m trees
    trees = []
    for t in range(grid.m):
        w = (assign.indices == t).astype(np.float64)
        if w.sum() < 1 or (data.n - w.sum()) < 1:
            raise DataError(f"treatment {t} has an empty treated or control group")
        trees.append(_fit_effect_tree(X, y, w, struct_rows, struct_orders,
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
