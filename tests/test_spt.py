import numpy as np
import pytest

from sptlab.dataset import PriceGrid
from sptlab.spt import (EmptyLeafError, FitConfig, LeafNode, PolicyTree,
                        SplitNode, export_tree, fit_spt,
                        leaf_revenue, single_leaf_tree,
                        training_revenue, tree_from_json)
from sptlab.teacher import RevenueMatrix


def make_revmat(values, prices=None):
    values = np.asarray(values, dtype=float)
    if prices is None:
        prices = np.arange(1.0, values.shape[1] + 1.0)
    return RevenueMatrix(values, PriceGrid(np.asarray(prices, dtype=float)))


def brute_force_depth1(revmat, X, config):
    """Exhaustive (j, s, left price, right price) search with the documented
    tie-breaks; independent of the production split sweep."""
    n, d = X.shape
    rows = np.arange(n)
    base_k, base_sum = leaf_revenue(revmat, rows)
    best = None  # (combined, j, s)
    for j in range(d):
        for s in sorted(set(X[:, j])):
            left = rows[X[:, j] <= s]
            right = rows[X[:, j] > s]
            if len(left) < config.min_leaf or len(right) < config.min_leaf:
                continue
            _, ls = leaf_revenue(revmat, left)
            _, rs = leaf_revenue(revmat, right)
            combined = ls + rs
            if combined > base_sum and (best is None or combined > best[0]):
                best = (combined, j, s)
    return base_sum, best


# --- leaf_revenue ---------------------------------------------------------------

def test_leaf_revenue_enumeration():
    rm = make_revmat([[1.0, 2.0], [3.0, 1.0]], prices=[4.0, 8.0])
    k, total = leaf_revenue(rm, [0, 1])
    assert (k, total) == (0, 4.0)


def test_leaf_revenue_all_tie_lowest_price():
    rm = make_revmat([[0.0, 0.0]], prices=[1.0, 2.0])
    k, total = leaf_revenue(rm, [0])
    assert (k, total) == (0, 0.0)


def test_leaf_revenue_toy(toy_revmat):
    k, total = leaf_revenue(toy_revmat, [0, 1])
    assert toy_revmat.grid.prices[k] == 10.0
    assert total == 20.0


def test_leaf_revenue_empty_rows():
    rm = make_revmat([[1.0]], prices=[2.0])
    with pytest.raises(ValueError):
        leaf_revenue(rm, [])


# --- the split step, through depth-1 fits ----------------------------------------

def test_best_split_single_boundary():
    X = np.asarray([[0.0], [1.0]])
    rm = make_revmat([[5.0, 0.0], [0.0, 6.0]], prices=[6.0, 7.0])
    tree = fit_spt(X, rm, FitConfig(max_depth=1))
    root = tree.nodes[tree.root]
    assert isinstance(root, SplitNode)
    assert (root.feature, root.threshold) == (0, 0.0)
    assert training_revenue(tree) == 11.0
    assert [tree.nodes[c].n_train for c in (root.left, root.right)] == [1, 1]


def test_best_split_identical_features():
    X = np.zeros((4, 2))
    rm = make_revmat(np.random.default_rng(0).uniform(0, 1, (4, 3)),
                     prices=[1.0, 2.0, 3.0])
    assert fit_spt(X, rm, FitConfig(max_depth=1)).n_leaves == 1


def test_best_split_constant_revenue_no_improvement():
    X = np.asarray([[0.0], [1.0], [2.0]])
    rm = make_revmat(np.full((3, 2), 1.5), prices=[2.0, 3.0])
    assert fit_spt(X, rm, FitConfig(max_depth=1)).n_leaves == 1


def test_best_split_respects_min_leaf():
    X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    vals = np.asarray([[9.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    rm = make_revmat(vals, prices=[10.0, 11.0])
    tree = fit_spt(X, rm, FitConfig(max_depth=1, minsplit=4, min_leaf=2))
    root = tree.nodes[tree.root]
    assert isinstance(root, SplitNode)
    assert [tree.nodes[c].n_train for c in (root.left, root.right)] == [2, 2]


# --- fit_spt ---------------------------------------------------------------------

def test_fit_depth0_single_leaf(toy_revmat, toy_features):
    tree = fit_spt(toy_features, toy_revmat, FitConfig(max_depth=0))
    assert tree.n_leaves == 1
    assert tree.prescribe([[0.0]])[0] == 10.0
    assert training_revenue(tree) == 20.0


def test_fit_toy_depth1_reaches_optimum(toy_revmat, toy_features):
    tree = fit_spt(toy_features, toy_revmat, FitConfig(max_depth=1))
    assert tree.n_leaves == 2
    assert tree.prescribe([[0.0], [1.0]]).tolist() == [10.0, 12.0]
    assert training_revenue(tree) == 22.0  # 11 per customer


def test_fit_deterministic_and_row_order_invariant():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3))
    vals = rng.uniform(0, 1, (60, 4))
    prices = np.asarray([1.0, 2.0, 3.0, 4.0])
    rm = make_revmat(vals * prices, prices=prices)
    cfg = FitConfig(max_depth=3)
    t1 = fit_spt(X, rm, cfg)
    perm = rng.permutation(60)
    rm2 = make_revmat((vals * prices)[perm], prices=prices)
    t2 = fit_spt(X[perm], rm2, cfg)
    assert export_tree(t1, "json") == export_tree(t2, "json")


@pytest.mark.parametrize("c", [0.5, 4.0])
def test_scaling_covariance(c):
    # power-of-two factors scale exactly in binary floating point; other
    # factors can flip exact ties (e.g. two features isolating the same row)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 2))
    prices = np.asarray([1.0, 2.5, 4.0])
    vals = rng.uniform(0, 1, (80, 3)) * prices
    cfg = FitConfig(max_depth=2)
    base = fit_spt(X, make_revmat(vals, prices=prices), cfg)
    scaled = fit_spt(X, make_revmat(vals * c, prices=prices * c), cfg)
    assert [type(n) for n in base.nodes] == [type(n) for n in scaled.nodes]
    for nb, ns in zip(base.nodes, scaled.nodes):
        if isinstance(nb, SplitNode):
            assert (nb.feature, nb.threshold) == (ns.feature, ns.threshold)
        else:
            assert ns.price == c * nb.price


def test_leaf_prices_in_grid():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 3))
    prices = np.asarray([2.0, 3.0, 5.0, 8.0])
    vals = rng.uniform(0, 1, (120, 4)) * prices
    tree = fit_spt(X, make_revmat(vals, prices=prices), FitConfig(max_depth=4))
    leaf_prices = {n.price for n in tree.nodes if isinstance(n, LeafNode)}
    assert leaf_prices <= set(prices.tolist())


def test_monotone_depth_training_revenue():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(150, 2))
    prices = np.asarray([1.0, 2.0, 3.0])
    vals = rng.uniform(0, 1, (150, 3)) * prices
    rm = make_revmat(vals, prices=prices)
    revs = [training_revenue(fit_spt(X, rm, FitConfig(max_depth=k)))
            for k in range(6)]
    assert all(b >= a - 1e-9 for a, b in zip(revs, revs[1:]))


def _cut_back(small, big):
    """Whether ``small`` is ``big`` with some subtrees cut back to leaves:
    the same splits in preorder, and each cut leaf holds the rows of the
    subtree it replaces."""
    def rows(tree, nid):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return node.n_train
        return rows(tree, node.left) + rows(tree, node.right)

    stack = [(small.root, big.root)]
    while stack:
        a, b = stack.pop()
        na, nb = small.nodes[a], big.nodes[b]
        if isinstance(na, SplitNode):
            if not (isinstance(nb, SplitNode) and (na.feature, na.threshold)
                    == (nb.feature, nb.threshold)):
                return False
            stack += [(na.right, nb.right), (na.left, nb.left)]
        elif na.n_train != rows(big, b) or (isinstance(nb, LeafNode) and na != nb):
            return False
    return True


@pytest.mark.parametrize("min_leaf", [1, 7])
def test_larger_minsplit_grows_a_prefix_of_the_tree(min_leaf):
    """With min_leaf fixed, minsplit only decides whether a node may split,
    never which split it takes; so a larger minsplit cuts the tree back and
    its training revenue is no higher."""
    rng = np.random.default_rng(29)
    X = np.round(rng.normal(size=(500, 3)), 1)
    prices = np.asarray([1.0, 2.0, 3.0, 5.0])
    rm = make_revmat(rng.uniform(0, 1, (500, 4)) * prices, prices=prices)
    trees = [fit_spt(X, rm, FitConfig(max_depth=None, minsplit=ms, min_leaf=min_leaf))
             for ms in (2 * min_leaf, 30, 90, 250)]
    assert trees[0].n_leaves > trees[-1].n_leaves > 1
    for big, small in zip(trees, trees[1:]):
        assert _cut_back(small, big)
        assert training_revenue(small) <= training_revenue(big) + 1e-9


@pytest.mark.parametrize("depth,minsplit", [(3, 2), (6, 20), (None, 40)])
def test_leaf_revenue_sum_is_recomputed_column_max(depth, minsplit):
    """Each leaf stores R(S) = max_k sum_{i in S} r[i, k] over the rows that
    reach it, and its row count."""
    rng = np.random.default_rng(23)
    X = np.round(rng.normal(size=(400, 3)), 1)  # ties in every feature
    prices = np.asarray([1.0, 2.0, 3.0, 5.0])
    vals = rng.uniform(0, 1, (400, 4)) * prices
    rm = make_revmat(vals, prices=prices)
    tree = fit_spt(X, rm, FitConfig(max_depth=depth, minsplit=minsplit))
    reached = tree.leaf_rows(X)
    leaves = [i for i, nd in enumerate(tree.nodes) if isinstance(nd, LeafNode)]
    assert len(leaves) >= 4
    assert set(reached.tolist()) == set(leaves)
    for nid in leaves:
        in_leaf = reached == nid
        assert tree.nodes[nid].revenue_sum == vals[in_leaf].sum(axis=0).max()
        assert tree.nodes[nid].n_train == in_leaf.sum()


def test_depth1_matches_brute_force_small():
    rng = np.random.default_rng(17)
    for trial in range(5):
        n, d, m = 40, 3, 3
        X = np.round(rng.normal(size=(n, d)), 2)
        prices = np.sort(rng.uniform(1, 5, m))
        prices += np.arange(m) * 1e-3  # ensure distinct
        vals = rng.uniform(0, 1, (n, m)) * prices
        rm = make_revmat(vals, prices=prices)
        cfg = FitConfig(max_depth=1)
        tree = fit_spt(X, rm, cfg)
        base_sum, best = brute_force_depth1(rm, X, cfg)
        if best is None:
            assert tree.n_leaves == 1
            assert training_revenue(tree) == pytest.approx(base_sum, abs=1e-9)
        else:
            assert tree.n_leaves == 2
            root = tree.nodes[tree.root]
            assert (root.feature, root.threshold) == (best[1], best[2])
            assert training_revenue(tree) == pytest.approx(best[0], abs=1e-9)


def test_fit_shape_mismatch():
    rm = make_revmat([[1.0], [1.0]], prices=[2.0])
    with pytest.raises(ValueError):
        fit_spt(np.zeros((3, 1)), rm, FitConfig(max_depth=1))


def test_fit_config_invariants():
    with pytest.raises(ValueError):
        FitConfig(max_depth=-1)
    with pytest.raises(ValueError):
        FitConfig(max_depth=2, minsplit=3, min_leaf=2)
    FitConfig(max_depth=None, minsplit=10, min_leaf=5)


# --- prediction and routing -------------------------------------------------------

def test_predict_single_leaf_any_input():
    tree = single_leaf_tree(2.99)
    assert tree.prescribe([[123.0, -5.0]])[0] == 2.99


def test_boundary_routes_left():
    nodes = [SplitNode(0, 1.5, 1, 2), LeafNode(1.99, 0.0, 1), LeafNode(2.99, 0.0, 1)]
    tree = PolicyTree(nodes, 0, ("x0",), np.asarray([1.99, 2.99]), 1)
    assert tree.prescribe([[1.5, 0.0]])[0] == 1.99
    assert tree.prescribe([[1.5000001]])[0] == 2.99


def test_named_feature_routing():
    # income < 125k and single-female path reaches its own leaf price
    nodes = [
        SplitNode(0, 125_000.0, 1, 2),          # income <= 125k
        SplitNode(1, 0.5, 3, 4),                # single_female <= 0.5
        LeafNode(2.99, 0.0, 1),                 # high income
        LeafNode(2.49, 0.0, 1),                 # low income, not single female
        LeafNode(1.99, 0.0, 1),                 # low income, single female
    ]
    tree = PolicyTree(nodes, 0, ("income", "single_female"),
                      np.asarray([1.99, 2.49, 2.99]), 2)
    X = [[80_000.0, 1.0], [80_000.0, 0.0], [200_000.0, 1.0]]
    assert tree.prescribe(X).tolist() == [1.99, 2.49, 2.99]


def test_predict_dimension_error():
    nodes = [SplitNode(1, 0.0, 1, 2), LeafNode(1.0, 0.0, 1), LeafNode(2.0, 0.0, 1)]
    tree = PolicyTree(nodes, 0, ("a", "b"), np.asarray([1.0, 2.0]), 1)
    with pytest.raises(ValueError):
        tree.prescribe([[1.0]])


def test_prescribe_matches_pointwise():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    prices = np.asarray([1.0, 2.0])
    vals = rng.uniform(0, 1, (50, 2)) * prices
    tree = fit_spt(X, make_revmat(vals, prices=prices), FitConfig(max_depth=2))
    batch = tree.prescribe(X)
    single = [tree.prescribe([x])[0] for x in X]
    np.testing.assert_array_equal(batch, single)


def test_unpriced_leaf_raises():
    tree = single_leaf_tree(float("nan"))
    with pytest.raises(EmptyLeafError):
        tree.prescribe([[0.0]])


# --- export / import -----------------------------------------------------------

def test_json_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 2))
    prices = np.asarray([1.0, 2.0, 3.0])
    vals = rng.uniform(0, 1, (100, 3)) * prices
    tree = fit_spt(X, make_revmat(vals, prices=prices), FitConfig(max_depth=3),
                   feature_names=("alpha", "beta"))
    text = export_tree(tree, "json")
    back = tree_from_json(text)
    assert export_tree(back, "json") == text
    np.testing.assert_array_equal(back.prescribe(X), tree.prescribe(X))


def test_dot_single_leaf():
    tree = single_leaf_tree(4.99, 10.0, 5)
    dot = export_tree(tree, "dot")
    assert dot.count("n0 [") == 1
    assert "->" not in dot


def _full_tree(depth, next_id=0):
    """Complete binary tree with 2^depth leaves, for node-count checks."""
    nodes = []

    def build(level):
        nid = len(nodes)
        if level == depth:
            nodes.append(LeafNode(1.0, 0.0, 1))
            return nid
        nodes.append(None)
        left = build(level + 1)
        right = build(level + 1)
        nodes[nid] = SplitNode(0, float(level), left, right)
        return nid

    build(0)
    return PolicyTree(nodes, 0, ("x0",), np.asarray([1.0]), depth)


def test_dot_full_depth3_counts():
    tree = _full_tree(3)
    dot = export_tree(tree, "dot")
    assert sum(1 for line in dot.splitlines() if "[shape=box" in line) == 7
    assert sum(1 for line in dot.splitlines() if "[shape=oval" in line) == 8
    assert dot.count('label="yes"') == 7
    assert dot.count('label="no"') == 7


def test_dot_escapes_quotes_and_backslashes_in_feature_names():
    tree = PolicyTree([SplitNode(0, 5.5, 1, 2), LeafNode(1.0, 0.0, 1),
                       LeafNode(2.0, 0.0, 1)], 0, ('a"b\\c',),
                      np.asarray([1.0, 2.0]), 1)
    dot = export_tree(tree, "dot")
    assert 'label="a\\"b\\\\c ≤ 5.5"' in dot
    plain = PolicyTree(tree.nodes, 0, ("x0",), tree.grid_prices, 1)
    assert 'label="x0 ≤ 5.5"' in export_tree(plain, "dot")


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_tree(single_leaf_tree(1.0), "xml")


def test_validate_rejects_broken_trees():
    nodes = [SplitNode(0, 0.0, 1, 1), LeafNode(1.0, 0.0, 1)]
    tree = PolicyTree(nodes, 0, ("x0",), np.asarray([1.0]), 1)
    with pytest.raises(ValueError):
        tree.validate()
