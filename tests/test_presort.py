"""Sort-once split search against a per-node argsort reference.

The reference below is the exact greedy search as it reads without
presorting: every node sorts each feature of its own rows with a stable
argsort. Growers that stably partition one presorted order per feature in
place must give the same trees byte for byte.
"""

import json
from unittest import mock

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
from sptlab import baselines, boosting, spt, tree
from sptlab.dataset import Dataset, PriceGrid, percentile_grid
from sptlab.tree import presort, split_orders
from sptlab.rng import CounterRng
from sptlab.spt import (FitConfig, LeafNode, PolicyTree, SplitCandidate,
                        SplitNode, SweepWorkspace, _RevenueCriterion,
                        _sweep_feature, export_tree, fit_spt)
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import RevenueMatrix, probability_matrix, revenue_matrix


# --- stable filtering --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_filtered_global_order_equals_node_argsort(n, d, levels, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(np.float64)  # many ties
    orders, _ = presort(X.T, np.arange(n))
    rows = np.flatnonzero(rng.random(n) < 0.5)  # sorted, as growers keep them
    is_node = np.zeros(n, dtype=bool)
    is_node[rows] = True
    for j in range(d):
        filtered = orders[j][is_node[orders[j]]]
        expect = rows[np.argsort(X[rows, j], kind="stable")]
        np.testing.assert_array_equal(filtered, expect)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 60), st.integers(1, 3), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([(True, True), (True, False), (False, True)]),
       st.sampled_from([1, 7, tree._PARTITION_CELLS]), st.integers(0, 2**32 - 1))
def test_split_orders_match_children_presort(n, d, p_left, keep, cells, seed):
    """The children's orders are the column ranges of the parent's orders,
    partitioned in place, and equal each child's own presort; with
    ``p_left`` 0 or 1 one child holds no rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    rows = np.flatnonzero(rng.random(n) < 0.7)
    go_left = rng.random(rows.size) < p_left
    orders, _ = presort(X.T, rows)
    with mock.patch.object(tree, "_PARTITION_CELLS", cells):
        got = split_orders(orders, rows[go_left], n, keep)
    for child, flag, child_rows, cols in zip(
            got, keep, (rows[go_left], rows[~go_left]),
            (slice(0, go_left.sum()), slice(go_left.sum(), rows.size))):
        if not flag:
            assert child is None
            continue
        np.testing.assert_array_equal(child, presort(X.T, child_rows)[0])
        assert child.base is orders  # a view
        np.testing.assert_array_equal(orders[:, cols], child)


def test_split_orders_keeping_neither_child_leaves_the_orders():
    X = np.asarray([[2.0], [0.0], [1.0]])
    orders, _ = presort(X.T, np.arange(3))
    assert split_orders(orders, np.asarray([0]), 3, (False, False)) == (None, None)
    np.testing.assert_array_equal(orders, [[1, 2, 0]])


@pytest.mark.parametrize("fit", ["ct", "gbt"])
def test_shared_root_orders_are_unchanged_by_a_fit(monkeypatch, fit):
    """CT's structure-half orders serve all m trees and GBT's root orders
    every round: each tree partitions a copy, so they stay as sorted."""
    module = baselines if fit == "ct" else boosting
    made = []

    def spy(columns, rows):
        orders, untied = tree.presort(columns, rows)
        made.append((orders, orders.copy()))
        return orders, untied

    monkeypatch.setattr(module, "presort", spy)
    data, grid, _ = _world(4, 700, 2)
    if fit == "ct":
        policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=3), 5)
        assert all(len(t.nodes) > 1 for t in policy.trees)
    else:
        model = boosting.fit_boosted_trees(data.features, data.outcomes,
                                           rounds=3, min_child_samples=5)
        assert all(len(t.nodes) > 1 for t in model.trees)
    assert len(made) == 1
    np.testing.assert_array_equal(*made[0])


@pytest.mark.parametrize("width", [1, 2, 3, 4, 9, 11, 18])
@pytest.mark.parametrize("block_rows", [7, spt._BLOCK_ROWS])
def test_blocked_node_sums_equal_one_sum(width, block_rows):
    """``node_sums`` adds block by block what ``stats[rows].sum(axis=0)``
    adds at once, bit for bit, across block boundaries."""
    rng = np.random.default_rng(width)
    n = 10000
    crit = spt.StatsCriterion(spt.stat_pairs(
        rng.normal(size=(width, n)) * 10.0 ** rng.integers(-3, 4, size=(width, n)),
        n), width)
    for size in (0, 1, 7, 8, 4095, 4096, 4097, 8193, n):
        rows = np.sort(rng.choice(n, size, replace=False))
        with mock.patch.object(spt, "_BLOCK_ROWS", block_rows):
            got = crit.node_sums(rows)
        assert got.tobytes() == _stats(crit)[rows].sum(axis=0).tobytes(), size


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 19), st.integers(1, 5000), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_complex_cumsum_of_pairs_equals_each_float_cumsum(width, n, p_zero,
                                                          p_subnormal, seed):
    """Every policy sweep and the GBT split search cumulate two statistics
    per complex add; each lane must add the same numbers in the same order
    as a float cumsum of its statistic alone. Zeros, subnormals and signed
    magnitudes from 1e-300 to 1e300 (no overflow over 5000 rows), odd
    widths included. Like ``test_sum_rows_pairwise_matches_numpy_row_sum``,
    this says whether the invariant still holds if the numpy pin moves."""
    rng = np.random.default_rng(seed)
    stats = (rng.choice([-1.0, 1.0], (width, n))
             * 10.0 ** rng.uniform(-300, 300, (width, n)))
    kind = rng.random((width, n))
    stats[kind < p_subnormal] = rng.integers(-2**40, 2**40, (width, n))[
        kind < p_subnormal] * 5e-324
    stats[kind < p_zero * p_subnormal] = 0.0
    order = rng.permutation(n)  # the sweep cumulates a gathered block in place
    cum = spt.stat_pairs(stats, n)[:, order]
    np.cumsum(cum, axis=1, out=cum)
    lanes = np.stack([cum.real, cum.imag], axis=1).reshape(-1, n)
    for s in range(width):
        assert lanes[s].tobytes() == np.cumsum(stats[s][order]).tobytes(), s


def test_presort_flags_untied_columns():
    """``untied`` is true exactly for a column whose values on the rows are
    all distinct: distinct values, 2 and 100 levels, a tie the sample of
    presort misses, and a tie only among rows the node does not hold."""
    n = 1000
    rng = np.random.default_rng(3)
    rare = rng.permutation(n).astype(float)
    rare[2] = rare[1]  # presort samples every 3rd value: both outside it
    outside = rng.permutation(n).astype(float)
    outside[5] = outside[4]  # tied only through row 5, left out below
    X = np.column_stack([rng.random(n), rng.integers(0, 2, n).astype(float),
                         rng.integers(0, 100, n).astype(float), rare, outside])
    for rows in (np.arange(n), rng.permutation(np.delete(np.arange(n), 5)),
                 np.arange(1, 3), np.arange(1)):
        _, untied = presort(X.T, rows)
        want = [np.unique(col).size == rows.size for col in X[rows].T]
        np.testing.assert_array_equal(untied, want)
    assert presort(X.T, np.arange(n))[1].tolist() == [True, False, False,
                                                      False, False]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_presort_equals_stable_argsort_on_both_paths(n, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.permutation(n).astype(float),  # distinct values
                         rng.integers(0, 3, n).astype(float),  # ties
                         np.where(rng.random(n) < 0.5, 0.0, -0.0),  # equal zeros
                         rng.random(n)])
    rows = rng.permutation(n)[:max(1, n // 2)]  # ties keep this order
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        got, _ = presort(X.T, rows)
    want = rows[np.argsort(X[rows], axis=0, kind="stable")].T
    np.testing.assert_array_equal(got, want)
    stable = [c for c in spy.call_args_list if c.kwargs.get("kind") == "stable"]
    tied = [j for j in range(X.shape[1]) if np.unique(X[rows, j]).size < rows.size]
    assert len(stable) == len(tied)  # the stable sort runs for tied columns only


def test_presort_tie_outside_the_sample_falls_back_to_stable():
    n = 1000  # presort samples every 3rd value of a column
    rng = np.random.default_rng(0)
    rare = rng.permutation(n).astype(float)
    rare[2] = rare[1]  # one tie, both values outside the sample
    X = np.column_stack([rng.permutation(n).astype(float), rare,
                         rng.integers(0, 5, n).astype(float)])
    rows = rng.permutation(n)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        got, _ = presort(X.T, np.arange(n))
    want = np.argsort(X, axis=0, kind="stable").T
    np.testing.assert_array_equal(got, want)
    kinds = [c.kwargs.get("kind") for c in spy.call_args_list]
    # distinct: unstable only; rare tie: unstable, then stable; few levels:
    # the sample shows the tie, so stable only
    assert kinds == [None, None, "stable", "stable"]
    np.testing.assert_array_equal(
        presort(X.T, rows)[0], rows[np.argsort(X[rows], axis=0, kind="stable")].T)


def test_presort_keeps_caller_row_order_for_ties():
    X = np.asarray([[1.0], [0.0], [1.0], [0.0]])
    np.testing.assert_array_equal(presort(X.T, np.asarray([2, 3, 0, 1]))[0],
                                  [[3, 1, 2, 0]])


# --- per-node argsort reference growers ---------------------------------------

def _stats(crit):
    """The ``(n, width)`` float statistics that ``crit.pairs`` holds two to a
    complex row: statistic s is lane ``s % 2`` of row ``s // 2``."""
    lanes = np.stack([crit.pairs.real, crit.pairs.imag], axis=1)
    return lanes.reshape(-1, crit.pairs.shape[1])[:crit.width].T


def _ref_scores(crit, sums, counts):
    """Node scores from column sums and row counts, as each criterion read
    before the sweep reused its buffers; frozen here so that the reference
    does not follow the criteria it checks."""
    if isinstance(crit, _RevenueCriterion):
        return sums.max(axis=1)
    if isinstance(crit, _PersonalizationCriterion):
        rev, cnt = sums[:, :crit.m], sums[:, crit.m:2 * crit.m]
        return np.where(cnt > 0.5, rev / np.maximum(cnt, 1.0), -np.inf).max(axis=1)
    if isinstance(crit, _MultiOutputMseCriterion):
        s = sums[:, :crit.m]
        return -(sums[:, crit.m] - (s * s).sum(axis=1) / counts)
    nt, sty, sy = sums[:, 0], sums[:, 1], sums[:, 2]
    nc = counts - nt
    valid = (nt > 0.5) & (nc > 0.5)
    delta = sty / np.maximum(nt, 1.0) - (sy - sty) / np.maximum(nc, 1.0)
    return np.where(valid, counts * delta * delta, -np.inf)


def _ref_node_score(crit, sums, count):
    if isinstance(crit, _MultiOutputMseCriterion):
        s = sums[:crit.m]
        return float(-(sums[crit.m] - (s @ s) / count))
    return float(_ref_scores(crit, sums[None, :], np.asarray([count]))[0])


def _ref_best_split(features, rows, config, crit):
    stats_rows = _stats(crit)[rows]
    node = _ref_node_score(crit, stats_rows.sum(axis=0), rows.size)
    best = None
    for j in range(features.shape[1]):
        x = features[rows, j]
        order = np.argsort(x, kind="stable")
        got = _frozen_sweep(x[order], stats_rows, order, config.min_leaf,
                            lambda s, c: _ref_scores(crit, s, c))
        if got is None:
            continue
        combined, threshold, left_count = got
        if combined > node and (best is None or combined > best.combined_revenue):
            best = SplitCandidate(j, threshold, combined,
                                  left_count, rows.size - left_count)
    return best


def _frozen_sweep(xs, stats, order, min_leaf, scores_batch):
    """The per-feature sweep as it read before it reused a workspace."""
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
    i = int(np.argmax(combined))
    return float(combined[i]), float(xs[bnd[i]]), int(bnd[i] + 1)


def _criterion(kind, X, rng):
    n = X.shape[0]
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0]))
    # skewed treatments: nodes often miss one on a side of a boundary
    t = rng.choice(3, size=n, p=[0.75, 0.2, 0.05])
    if kind == "spt":
        return _RevenueCriterion(RevenueMatrix(rng.random((n, 3)) * grid.prices,
                                               grid))
    if kind == "pt":
        data = Dataset(X, grid.prices[t], rng.integers(0, 2, n),
                       tuple(f"x{j}" for j in range(X.shape[1])))
        return _PersonalizationCriterion(data, grid)
    if kind == "naive":
        return _MultiOutputMseCriterion(rng.random((n, 3)), grid)
    return _EffectVarianceCriterion(rng.integers(0, 2, n).astype(float),
                                    (t == 0).astype(float))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["spt", "pt", "naive", "ct"]), st.integers(2, 30),
       st.integers(1, 4), st.sampled_from([1, 3, 4096]),
       st.integers(0, 2**32 - 1))
def test_sweep_matches_frozen_sweep(kind, n, levels, block_rows, seed):
    """A tied column (integer levels) beside untied ones (distinct random
    values, and their copy rounded to 2 decimals, tied once n grows)."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    X = np.column_stack([rng.integers(0, levels, n).astype(float),  # ties
                         u, np.round(u, 2)])
    crit = _criterion(kind, X, rng)
    with mock.patch.object(spt, "_BLOCK_ROWS", block_rows):
        _check_sweeps(X, crit, rng)


def _check_sweeps(X, crit, rng):
    """Sweeps of every feature at nodes of several sizes in one workspace,
    whose ``untied`` flags, like a grower's, are those of all the rows."""
    n = X.shape[0]
    ws = SweepWorkspace(X, n, crit.width)  # one for every node below
    _, ws.untied = presort(X.T, np.arange(n))
    for size in (n, max(1, n // 3), n, max(2, (2 * n) // 3), 1):
        rows = np.sort(rng.choice(n, size=size, replace=False))
        orders, _ = presort(X.T, rows)
        for j, order in enumerate(orders):
            for min_leaf in range(1, max(1, size // 2) + 1):
                got = _sweep_feature(ws, j, order, crit, min_leaf)
                want = _frozen_sweep(X[order, j], _stats(crit), order, min_leaf,
                                     lambda s, c: _ref_scores(crit, s, c))
                assert got == want, (size, j, min_leaf)


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


def _ref_one_vs_all(data, grid, treatments, config, seed):
    perm = CounterRng(seed).permutation(data.n)
    cut = (data.n + 1) // 2
    struct_rows, est_rows = np.sort(perm[:cut]), np.sort(perm[cut:])
    X, y = data.features, data.outcomes.astype(np.float64)
    trees = []
    for t in range(grid.m):
        w = (treatments == t).astype(np.float64)
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
    targets = probability_matrix(teacher, X, grid)
    revmat = revenue_matrix(targets, grid)
    treatments = assign_treatments(data.prices, grid)
    for config in CONFIGS:
        got = export_tree(fit_spt(X, revmat, config))
        want = export_tree(_ref_grow_tree(X, _RevenueCriterion(revmat),
                                          config, grid.prices))
        assert got == want, ("spt", config)
        got = export_tree(fit_pt(data, grid, config))
        want = export_tree(_ref_grow_tree(
            X, _PersonalizationCriterion(data, grid), config, grid.prices))
        assert got == want, ("pt", config)
        got = export_tree(fit_naive_distill(X, targets, grid, config))
        want = export_tree(_ref_grow_tree(
            X, _MultiOutputMseCriterion(targets, grid), config, grid.prices))
        assert got == want, ("naive", config)
        if config.max_depth is not None:
            got = export_one_vs_all(fit_ct_one_vs_all(data, grid, config, 5))
            want = export_one_vs_all(_ref_one_vs_all(data, grid, treatments, config, 5))
            assert got == want, ("ct", config)
            assert json.loads(got)["trees"]  # the comparison saw real trees
