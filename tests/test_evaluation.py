import hashlib

import numpy as np
import pytest

from sptlab.dataset import PriceGrid
from sptlab.evaluation import (RegretBoundParams, expected_revenue,
                               hypercube_policy, hypercube_side_count,
                               numeric_lipschitz, policy_mse, regret_bound,
                               verify_regret_bound)
from sptlab.spt import EmptyLeafError, LeafNode, export_tree, single_leaf_tree
from sptlab.synth import (OraclePolicy, fine_price_grid, generate, make_spec,
                          oracle_teacher, standard_normal_cdf)
from sptlab.teacher import OracleTeacher


def designed_truth():
    """f(x, p) = Phi(x0 - p) on [0,1]^2; the regret-suite fixture."""
    return OracleTeacher(
        lambda X, p: standard_normal_cdf(np.atleast_2d(X)[:, 0]
                                         - np.asarray(p, dtype=float)), 2)


# --- expected revenue ----------------------------------------------------------

def test_expected_revenue_toy(toy_teacher, toy_features):
    assert expected_revenue(single_leaf_tree(10.0), toy_features, toy_teacher) == 10.0
    assert expected_revenue(single_leaf_tree(11.0), toy_features, toy_teacher) == 5.5
    assert expected_revenue(single_leaf_tree(12.0), toy_features, toy_teacher) == 6.0


def test_expected_revenue_constant_half_truth():
    truth = OracleTeacher(lambda X, p: np.full(np.atleast_2d(X).shape[0], 0.5), 1)
    assert expected_revenue(single_leaf_tree(4.0), np.zeros((7, 1)), truth) == 2.0


def test_oracle_policy_dominates():
    spec = make_spec(4)
    data = generate(spec, 300, 1)
    grid = PriceGrid(np.percentile(data.prices, [10, 50, 90]))
    truth = oracle_teacher(spec)
    best = expected_revenue(OraclePolicy(spec, grid), data.features, truth)
    for p in grid.prices:
        assert best >= expected_revenue(single_leaf_tree(float(p)),
                                        data.features, truth) - 1e-12


# --- policy mse -----------------------------------------------------------------

def test_policy_mse_identity():
    a = single_leaf_tree(3.0)
    assert policy_mse(a, a, np.zeros((5, 1))) == 0.0


def test_policy_mse_constants():
    assert policy_mse(single_leaf_tree(2.0), single_leaf_tree(4.0),
                      np.zeros((3, 1))) == 4.0


def test_policy_mse_arithmetic():
    class _Two:
        def prescribe(self, X):
            return np.asarray([1.0, 3.0])

    assert policy_mse(_Two(), single_leaf_tree(2.0), np.zeros((2, 1))) == 1.0


# --- regret bound ----------------------------------------------------------------

def test_regret_bound_values():
    assert regret_bound(RegretBoundParams(1.0, 1, 3, 0.0)) == 0.25
    assert regret_bound(RegretBoundParams(1.0, 1, 0, 0.0)) == 2.0
    assert regret_bound(RegretBoundParams(1.0, 4, 8, 0.01)) == pytest.approx(1.02)


def test_regret_bound_monotonicity():
    for k in range(6):
        assert regret_bound(RegretBoundParams(1.0, 2, k + 1, 0.0)) < \
            regret_bound(RegretBoundParams(1.0, 2, k, 0.0))
    assert regret_bound(RegretBoundParams(2.0, 2, 3, 0.0)) > \
        regret_bound(RegretBoundParams(1.0, 2, 3, 0.0))


def test_regret_bound_validation():
    with pytest.raises(ValueError):
        RegretBoundParams(-1.0, 2, 3)


# --- hypercube policy --------------------------------------------------------------

def test_side_counts():
    assert hypercube_side_count(1, 1) == 2
    assert hypercube_side_count(4, 2) == 4
    assert hypercube_side_count(8, 2) == 16
    assert hypercube_side_count(3, 2) == 2
    assert hypercube_side_count(0, 2) == 1


def test_hypercube_d1_k1_cells():
    truth = designed_truth()
    flat = OracleTeacher(lambda X, p: truth.predict_proba_batch(
        np.column_stack([np.atleast_2d(X)[:, 0], np.zeros(np.atleast_2d(X).shape[0])]), p), 1)
    grid = fine_price_grid(0.1, 1.5, 50)
    probes = np.linspace(0.0, 1.0, 41)[:, None]
    tree = hypercube_policy(flat, grid, 1, 1, probes)
    assert tree.n_leaves == 2
    # boundary membership: 0.5 belongs to the left cell
    at_half, left, past_half, right = tree.prescribe([[0.5], [0.1], [0.50001], [0.9]])
    assert at_half == left and past_half == right


def test_hypercube_d2_k4_structure():
    truth = designed_truth()
    grid = fine_price_grid(0.1, 1.5, 30)
    rng = np.random.default_rng(0)
    probes = rng.uniform(size=(4000, 2))
    tree = hypercube_policy(truth, grid, 4, 2, probes)
    assert tree.n_leaves == 16
    assert tree.n_leaves <= 2 ** 4
    assert tree.max_depth_used <= 4


def test_hypercube_constant_truth_single_price():
    const = OracleTeacher(lambda X, p: np.full(np.atleast_2d(X).shape[0], 0.7), 2)
    grid = fine_price_grid(0.5, 2.0, 25)
    rng = np.random.default_rng(1)
    tree = hypercube_policy(const, grid, 4, 2, rng.uniform(size=(2000, 2)))
    prices = {n.price for n in tree.nodes if isinstance(n, LeafNode)}
    assert prices == {2.0}  # revenue monotone in price for constant demand


def test_hypercube_empty_cell_reported_at_prediction():
    truth = designed_truth()
    grid = fine_price_grid(0.1, 1.5, 10)
    probes = np.asarray([[0.1, 0.1], [0.9, 0.9]])  # leaves many cells empty
    tree = hypercube_policy(truth, grid, 4, 2, probes)
    assert tree.prescribe([[0.05, 0.05]])[0] > 0
    with pytest.raises(EmptyLeafError):
        tree.prescribe([[0.9, 0.1]])


def test_hypercube_probe_domain_check():
    truth = designed_truth()
    grid = fine_price_grid(0.1, 1.5, 10)
    with pytest.raises(ValueError):
        hypercube_policy(truth, grid, 2, 2, np.asarray([[1.2, 0.0]]))


# Recorded from the recursive cell builder; the preorder grower must write
# the same JSON, empty (unpriced) cells included.
HYPERCUBE_D2_K4_SHA256 = {
    "full": "b6b2693c9630cd39b47b734e90dca76359ecf872a854cff653ee89a6a1278928",
    "sparse": "f4d5b556471adb80b5ad4105016af1534129e3d16cba8f93ff080a2531f059a5",
}


def test_hypercube_d2_k4_json_pinned():
    truth = designed_truth()
    full = hypercube_policy(truth, fine_price_grid(0.1, 1.5, 30), 4, 2,
                            np.random.default_rng(0).uniform(size=(4000, 2)))
    sparse = hypercube_policy(truth, fine_price_grid(0.1, 1.5, 10), 4, 2,
                              np.asarray([[0.1, 0.1], [0.9, 0.9]]))
    for name, tree in (("full", full), ("sparse", sparse)):
        digest = hashlib.sha256(export_tree(tree).encode()).hexdigest()
        assert digest == HYPERCUBE_D2_K4_SHA256[name], name
        assert tree.max_depth_used == 4


# --- verify_regret_bound -------------------------------------------------------------

def test_verify_regret_l_zero_case():
    const = OracleTeacher(lambda X, p: np.clip(1.2 - np.asarray(p, dtype=float)
                                               * np.ones(np.atleast_2d(X).shape[0]),
                                               0.0, 1.0), 2)
    grid = fine_price_grid(0.2, 1.2, 400)
    check = verify_regret_bound(const, grid, 4, 2, n_probe=3000, n_test=500, seed=0)
    L = numeric_lipschitz(const, 2, grid)
    assert L == pytest.approx(0.0, abs=1e-9)
    assert check.max_observed_regret <= check.slack + 1e-12
    assert check.passed


def test_verify_regret_designed_truth_k4():
    truth = designed_truth()
    grid = fine_price_grid(0.2, 2.0, 500)
    check = verify_regret_bound(truth, grid, 4, 2, n_probe=8000, n_test=1000, seed=1)
    assert check.passed
    assert check.max_observed_regret >= 0.0
    assert check.bound > 0.0


def test_numeric_lipschitz_refuses_huge_lattice():
    def never_called(X, p):
        raise AssertionError("lattice was built")

    truth = OracleTeacher(never_called, 20)
    grid = PriceGrid(np.asarray([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"n_axis=101 .* d=20 "):
        numeric_lipschitz(truth, 20, grid)
