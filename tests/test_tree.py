"""The shared tree core: routing, structure checks and the JSON node codec,
for every kind of tree (policy, one-vs-all effect and boosted regression)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptlab import boosting, spt
from sptlab.baselines import (EffectLeaf, EffectTree, export_one_vs_all,
                              fit_ct_one_vs_all, one_vs_all_from_json)
from sptlab.dataset import DataError, percentile_grid
from sptlab.spt import (FitConfig, LeafNode, PolicyTree, export_tree, fit_spt,
                        tree_from_json)
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import probability_matrix, revenue_matrix
from sptlab.tree import SplitNode, apply, check_structure, leaf_values


def _reference_leaf(nodes, root, x):
    """The leaf one row reaches, walking down from the root."""
    nid = root
    while isinstance(nodes[nid], SplitNode):
        node = nodes[nid]
        nid = node.left if x[node.feature] <= node.threshold else node.right
    return nid


def _random_nodes(rng, d, n_splits, make_leaf):
    """A random proper binary tree in preorder, thresholds on a coarse
    lattice so that many rows tie with them."""
    nodes = []

    def build(budget):
        nid = len(nodes)
        if budget == 0:
            nodes.append(make_leaf(nid))
            return nid
        nodes.append(None)
        left_budget = int(rng.integers(0, budget))
        left = build(left_budget)
        right = build(budget - 1 - left_budget)
        nodes[nid] = SplitNode(int(rng.integers(0, d)),
                               float(rng.integers(-2, 3)) / 2, left, right)
        return nid

    build(n_splits)
    return nodes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(1, 4), st.integers(0, 40),
       st.integers(0, 2**32 - 1))
def test_apply_matches_per_row_walk(n_splits, d, n_rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(n_rows, d)).astype(np.float64) / 2
    policy = _random_nodes(rng, d, n_splits,
                           lambda nid: LeafNode(float(nid), 0.0, 1))
    effect = _random_nodes(rng, d, n_splits,
                           lambda nid: EffectLeaf(-float(nid), float(nid), 1))
    gbt = _random_nodes(rng, d, n_splits,
                        lambda nid: boosting.ValueLeaf(float(nid) / 7))
    for nodes in (policy, effect, gbt):
        want = [_reference_leaf(nodes, 0, x) for x in X]
        np.testing.assert_array_equal(apply(nodes, 0, X), want)
    names = tuple(f"x{j}" for j in range(d))
    tree = PolicyTree(policy, 0, names, np.asarray([1.0]), check_structure(policy, 0))
    np.testing.assert_array_equal(
        tree.prescribe(X), [policy[_reference_leaf(policy, 0, x)].price for x in X])
    effects = EffectTree(effect, 0)
    np.testing.assert_array_equal(
        effects.treated_means(X),
        [effect[_reference_leaf(effect, 0, x)].treated_mean for x in X])
    np.testing.assert_array_equal(
        leaf_values(effect, 0, X, "effect"),
        [effect[_reference_leaf(effect, 0, x)].effect for x in X])
    np.testing.assert_array_equal(
        boosting.Tree(gbt).predict(X),
        [gbt[_reference_leaf(gbt, 0, x)].value for x in X])


def _mask_apply(nodes, root, X):
    """``apply`` as it was written with boolean-mask row selection."""
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
        go_left = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def _mask_grid_leaf_values(nodes, root, X, prices, field):
    """``leaf_values`` over a price grid as it was written with boolean-mask
    selection."""
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


# Feature values lie in [-1, 1]; a threshold of -3 sends every row right and
# one of 3 every row left, so masks that select all rows or none are drawn.
_THRESHOLDS = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])


@st.composite
def _mask_trees(draw):
    """(nodes, X, prices): a proper binary tree in preorder over the d
    features of X and the price as feature d, its leaves ``ValueLeaf``s."""
    d = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 30))
    X = np.asarray(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                 min_size=n_rows * d, max_size=n_rows * d)),
                   dtype=np.float64).reshape(n_rows, d)
    prices = np.unique(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                     min_size=1, max_size=5)))
    nodes = []

    def build(budget):
        nid = len(nodes)
        if budget == 0:
            nodes.append(boosting.ValueLeaf(float(nid) / 7))
            return nid
        nodes.append(None)
        feature = draw(st.integers(0, d))
        threshold = draw(_THRESHOLDS)
        left_budget = draw(st.integers(0, budget - 1))
        left = build(left_budget)
        right = build(budget - 1 - left_budget)
        nodes[nid] = SplitNode(feature, threshold, left, right)
        return nid

    build(draw(st.integers(0, 8)))
    return nodes, X, prices


@settings(max_examples=150, deadline=None)
@given(_mask_trees())
def test_routing_matches_boolean_mask_reference(tree_case):
    """``apply`` and ``leaf_values`` over a price grid select each child's
    rows with ``compress``; they equal the boolean-mask routing bit for bit,
    also when a split sends every row, or none, to one side."""
    nodes, X, prices = tree_case
    # apply routes on the d features and the price column as feature d
    Xp = np.column_stack([X, np.full(X.shape[0], prices[0])])
    got = apply(nodes, 0, Xp)
    assert got.dtype == np.int64
    assert got.tobytes() == _mask_apply(nodes, 0, Xp).tobytes()
    got = leaf_values(nodes, 0, X, "value", prices)
    want = _mask_grid_leaf_values(nodes, 0, X, prices, "value")
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_grid_query_names_a_split_past_the_price_column():
    """With prices the price is feature d; a split on a later feature is
    refused, as a split on a feature past X is without prices."""
    nodes = [SplitNode(3, 0.0, 1, 2), boosting.ValueLeaf(1.0),
             boosting.ValueLeaf(2.0)]
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="dim 3 too narrow for split on feature 3"):
        boosting.Tree(nodes).predict(X, prices=[1.0, 2.0])
    with pytest.raises(ValueError, match="dim 2 too narrow for split on feature 3"):
        boosting.Tree(nodes).predict(X)


def test_check_structure_returns_depth():
    nodes = [SplitNode(0, 0.0, 1, 2), LeafNode(1.0, 0.0, 1),
             SplitNode(0, 1.0, 3, 4), LeafNode(1.0, 0.0, 1), LeafNode(1.0, 0.0, 1)]
    assert check_structure(nodes, 0) == 2
    assert check_structure([LeafNode(1.0, 0.0, 1)], 0) == 0
    with pytest.raises(DataError):
        check_structure([SplitNode(0, 0.0, 0, 1), LeafNode(1.0, 0.0, 1)], 0)


def test_empty_leaf_raises_only_when_reached():
    nodes = [SplitNode(0, 0.5, 1, 2), LeafNode(float("nan"), 0.0, 0),
             LeafNode(3.0, 0.0, 1)]
    tree = PolicyTree(nodes, 0, ("x0",), np.asarray([3.0]), 1)
    np.testing.assert_array_equal(tree.prescribe([[1.0], [2.0]]), [3.0, 3.0])
    with pytest.raises(spt.EmptyLeafError):
        tree.prescribe([[1.0], [0.0]])


def _world():
    spec = make_spec(4)
    data = generate(spec, 600, 3)
    grid = percentile_grid(data.prices)
    return data, grid, oracle_teacher(spec)


@pytest.mark.parametrize("config", [FitConfig(max_depth=3),
                                    FitConfig(max_depth=None, minsplit=60,
                                              min_leaf=20)])
def test_tree_json_is_a_fixed_point(config):
    data, grid, teacher = _world()
    probs = probability_matrix(teacher, data.features, grid)
    tree = fit_spt(data.features, revenue_matrix(probs, grid), config,
                   data.feature_names)
    text = export_tree(tree)
    back = tree_from_json(text)
    assert export_tree(back) == text
    assert back.max_depth_used == tree.max_depth_used > 0
    assert export_tree(tree_from_json(export_tree(back))) == text


def test_one_vs_all_json_is_a_fixed_point():
    data, grid, _ = _world()
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=3), seed=1)
    text = export_one_vs_all(policy)
    back = one_vs_all_from_json(text)
    assert export_one_vs_all(back) == text
    assert [t.nodes for t in back.trees] == [t.nodes for t in policy.trees]
    assert any(len(t.nodes) > 1 for t in back.trees)
    np.testing.assert_array_equal(back.prescribe(data.features),
                                  policy.prescribe(data.features))


def test_leaf_records_carry_the_leaf_fields_in_order():
    data, grid, _ = _world()
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=1), seed=1)
    leaf = next(nd for nd in json.loads(export_one_vs_all(policy))["trees"][0]["nodes"]
                if nd["kind"] == "leaf")
    assert list(leaf) == ["id", "kind", "effect", "treated_mean", "n_est"]


@pytest.mark.parametrize("config", [FitConfig(max_depth=2),
                                    FitConfig(max_depth=None, minsplit=200,
                                              min_leaf=10)])
def test_children_that_cannot_split_get_no_orders(monkeypatch, config):
    """A fit builds a child's orders only when the child may split."""
    data, grid, teacher = _world()
    calls = []
    real = spt.split_orders

    def spy(orders, left_rows, n, keep=(True, True)):
        got = real(orders, left_rows, n, keep)
        calls.append((keep, left_rows.size, orders.shape[1] - left_rows.size, got))
        return got

    monkeypatch.setattr(spt, "split_orders", spy)
    probs = probability_matrix(teacher, data.features, grid)
    tree = fit_spt(data.features, revenue_matrix(probs, grid), config)
    assert len(calls) == sum(isinstance(nd, SplitNode) for nd in tree.nodes)
    skipped = 0
    for keep, n_left, n_right, got in calls:
        for flag, size, orders in zip(keep, (n_left, n_right), got):
            assert (orders is not None) == flag
            if flag:
                assert orders.shape == (data.d, size)
            else:
                skipped += 1
    assert skipped > 0
