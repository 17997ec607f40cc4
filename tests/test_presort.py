"""Sort-once split search against a per-node argsort reference.

The reference below is the exact greedy search as it reads without
presorting: every node sorts each feature of its own rows with a stable
argsort. Growers that filter one presorted order per feature must give the
same trees byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptlab.baselines import (EffectLeaf, EffectTree, OneVsAllPolicy,
                              _EffectVarianceCriterion, _group_means,
                              _MultiOutputMseCriterion,
                              _PersonalizationCriterion, assign_treatments,
                              export_one_vs_all, fit_ct_one_vs_all,
                              fit_naive_distill, fit_pt)
from sptlab.dataset import Dataset, percentile_grid
from sptlab.tree import presort, split_orders
from sptlab.rng import CounterRng
from sptlab.spt import (FitConfig, LeafNode, PolicyTree, SplitCandidate,
                        SplitNode, _RevenueCriterion, export_tree, fit_spt)
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import probability_matrix, revenue_matrix


# --- stable filtering --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_filtered_global_order_equals_node_argsort(n, d, levels, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)  # many ties
    orders = presort(X, np.arange(n))
    rows = np.flatnonzero(rng.random(n) < 0.5)  # sorted, as growers keep them
    is_node = np.zeros(n, dtype=bool)
    is_node[rows] = True
    for j in range(d):
        filtered = orders[j][is_node[orders[j]]]
        expect = rows[np.argsort(X[rows, j], kind="stable")]
        np.testing.assert_array_equal(filtered, expect)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_split_orders_match_children_presort(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    rows = np.flatnonzero(rng.random(n) < 0.7)
    go_left = rng.random(rows.size) < 0.5
    left, right = split_orders(presort(X, rows), rows[go_left], n)
    np.testing.assert_array_equal(left, presort(X, rows[go_left]))
    np.testing.assert_array_equal(right, presort(X, rows[~go_left]))


def test_presort_keeps_caller_row_order_for_ties():
    X = np.asarray([[1.0], [0.0], [1.0], [0.0]])
    np.testing.assert_array_equal(presort(X, np.asarray([2, 3, 0, 1])),
                                  [[3, 1, 2, 0]])


# --- per-node argsort reference growers ---------------------------------------

def _ref_best_split(features, rows, config, crit):
    stats_rows = crit.stats[rows]
    node = crit.node_score(stats_rows.sum(axis=0), rows.size)
    n, best = rows.size, None
    for j in range(features.shape[1]):
        x = features[rows, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        bnd = np.nonzero(xs[:-1] < xs[1:])[0]
        n_left = bnd + 1
        bnd = bnd[(n_left >= config.min_leaf) & (n - n_left >= config.min_leaf)]
        if bnd.size == 0:
            continue
        csum = np.cumsum(stats_rows[order], axis=0)
        left = csum[bnd]
        combined = (crit.scores_batch(left, bnd + 1)
                    + crit.scores_batch(csum[-1] - left, n - bnd - 1))
        i = int(np.argmax(combined))
        if combined[i] > node and (best is None or combined[i] > best.combined_revenue):
            best = SplitCandidate(j, float(xs[bnd[i]]), float(combined[i]),
                                  int(bnd[i] + 1), int(n - bnd[i] - 1))
    return best


def _can_split(config, depth, count):
    return ((config.max_depth is None or depth < config.max_depth)
            and count >= config.minsplit)


def _ref_grow_tree(features, crit, config, grid_prices):
    nodes, deepest = [], [0]

    def rec(rows, depth):
        deepest[0] = max(deepest[0], depth)
        cand = _ref_best_split(features, rows, config, crit) \
            if _can_split(config, depth, rows.size) else None
        if cand is None:
            price, revsum = crit.leaf_payload(crit.node_sums(rows), rows.size)
            nodes.append(LeafNode(price, revsum, int(rows.size)))
            return len(nodes) - 1
        go_left = features[rows, cand.feature_index] <= cand.threshold
        nid = len(nodes)
        nodes.append(None)
        left = rec(rows[go_left], depth + 1)
        right = rec(rows[~go_left], depth + 1)
        nodes[nid] = SplitNode(cand.feature_index, cand.threshold, left, right)
        return nid

    rec(np.arange(features.shape[0]), 0)
    names = tuple(f"x{i}" for i in range(features.shape[1]))
    return PolicyTree(nodes, 0, names, np.asarray(grid_prices), deepest[0])


def _ref_one_vs_all(data, grid, assign, config, seed):
    perm = CounterRng(seed).permutation(data.n)
    cut = (data.n + 1) // 2
    struct_rows, est_rows = np.sort(perm[:cut]), np.sort(perm[cut:])
    X, y = data.features, data.outcomes.astype(np.float64)
    trees = []
    for t in range(grid.m):
        w = (assign.indices == t).astype(np.float64)
        crit = _EffectVarianceCriterion(y, w)
        nodes = []

        def rec(srows, erows, depth, parent):
            est = _group_means(y, w, erows) if erows.size else None
            eff, mu1 = est if est is not None else parent
            cand = _ref_best_split(X, srows, config, crit) \
                if _can_split(config, depth, srows.size) else None
            if cand is None:
                nodes.append(EffectLeaf(eff, mu1, int(erows.size)))
                return len(nodes) - 1
            nid = len(nodes)
            nodes.append(None)
            s_left = X[srows, cand.feature_index] <= cand.threshold
            e_left = X[erows, cand.feature_index] <= cand.threshold
            left = rec(srows[s_left], erows[e_left], depth + 1, (eff, mu1))
            right = rec(srows[~s_left], erows[~e_left], depth + 1, (eff, mu1))
            nodes[nid] = SplitNode(cand.feature_index, cand.threshold, left, right)
            return nid

        rec(struct_rows, est_rows, 0, _group_means(y, w, est_rows))
        trees.append(EffectTree(nodes, 0))
    return OneVsAllPolicy(trees, grid)


def _world(spec_id, n, tie_levels):
    """A synthetic sample; with ``tie_levels`` the features are rounded to
    that many values per unit, so most thresholds are shared by many rows."""
    spec = make_spec(spec_id)
    data = generate(spec, n, 11)
    if tie_levels:
        data = Dataset(np.round(data.features * tie_levels), data.prices,
                       data.outcomes, data.feature_names)
    return data, percentile_grid(data.prices), oracle_teacher(spec)


CONFIGS = [FitConfig(max_depth=1), FitConfig(max_depth=3),
           FitConfig(max_depth=4, minsplit=30, min_leaf=5),
           FitConfig(max_depth=None, minsplit=60)]


@pytest.mark.parametrize("spec_id,n,tie_levels",
                         [(4, 700, 0), (4, 700, 2), (2, 300, 3), (6, 500, 1)])
def test_growers_match_per_node_argsort_reference(spec_id, n, tie_levels):
    data, grid, teacher = _world(spec_id, n, tie_levels)
    X = data.features
    revmat = revenue_matrix(teacher, X, grid)
    targets = probability_matrix(teacher, X, grid)
    assign = assign_treatments(data.prices, grid)
    for config in CONFIGS:
        got = export_tree(fit_spt(X, revmat, config))
        want = export_tree(_ref_grow_tree(X, _RevenueCriterion(revmat),
                                          config, grid.prices))
        assert got == want, ("spt", config)
        got = export_tree(fit_pt(data, grid, assign, config))
        want = export_tree(_ref_grow_tree(
            X, _PersonalizationCriterion(data, assign), config, grid.prices))
        assert got == want, ("pt", config)
        got = export_tree(fit_naive_distill(teacher, X, grid, config,
                                            targets=targets))
        want = export_tree(_ref_grow_tree(
            X, _MultiOutputMseCriterion(targets, grid), config, grid.prices))
        assert got == want, ("naive", config)
        if config.max_depth is not None:
            got = export_one_vs_all(fit_ct_one_vs_all(data, grid, assign, config, 5))
            want = export_one_vs_all(_ref_one_vs_all(data, grid, assign, config, 5))
            assert got == want, ("ct", config)
            assert json.loads(got)["trees"]  # the comparison saw real trees
