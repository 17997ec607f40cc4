import math
import os
import pickle
import warnings

import numpy as np
import pytest

from sptlab import baselines
from sptlab.baselines import (OneVsAllPolicy, assign_treatments,
                              constant_price_policy, export_one_vs_all,
                              fit_ct_one_vs_all, fit_naive_distill, fit_pt,
                              historical_policy_revenue, naive_training_mse,
                              one_vs_all_from_json, sum_rows_pairwise)
from sptlab.dataset import (DataError, Dataset, PriceGrid, half_rows,
                            percentile_grid)
from sptlab.spt import FitConfig, LeafNode, leaf_revenue
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import (OracleTeacher, RevenueMatrix, fit_gbt, GbtConfig,
                            probability_matrix, revenue_matrix)


def dataset_from(prices, outcomes, features=None):
    prices = np.asarray(prices, dtype=float)
    if features is None:
        features = np.zeros((prices.size, 1))
    return Dataset(np.asarray(features, dtype=float), prices,
                   np.asarray(outcomes), ("x0",))


# --- treatment assignment -----------------------------------------------------

def test_assignment_identity_on_grid_members():
    grid = PriceGrid(np.asarray([2.0, 3.0, 4.0]))
    a = assign_treatments([2.0, 4.0, 3.0, 2.0], grid)
    np.testing.assert_array_equal(a, [0, 2, 1, 0])
    assert a.dtype == np.int64 and not a.flags.writeable


def test_assignment_nearest_with_ties_down():
    grid = PriceGrid(np.asarray([2.0, 3.0]))
    a = assign_treatments([2.4, 2.5, 2.6, 0.0, 9.9], grid)
    np.testing.assert_array_equal(a, [0, 0, 1, 0, 1])


# --- personalization tree -----------------------------------------------------

def test_pt_leaf_example():
    grid = PriceGrid(np.asarray([2.0, 3.0]))
    data = dataset_from([2.0, 2.0, 3.0], [1, 0, 1])
    tree = fit_pt(data, grid, FitConfig(max_depth=0))
    leaf = tree.nodes[tree.root]
    assert leaf.price == 3.0
    assert leaf.revenue_sum / leaf.n_train == pytest.approx(3.0)  # impurity value


def test_pt_all_zero_outcomes_lowest_price():
    grid = PriceGrid(np.asarray([2.0, 3.0]))
    data = dataset_from([2.0, 3.0, 3.0], [0, 0, 0])
    tree = fit_pt(data, grid, FitConfig(max_depth=0))
    assert tree.nodes[tree.root].price == 2.0


def test_pt_singleton():
    grid = PriceGrid(np.asarray([5.0]))
    data = dataset_from([5.0], [1])
    tree = fit_pt(data, grid, FitConfig(max_depth=0))
    leaf = tree.nodes[tree.root]
    assert leaf.price == 5.0
    assert leaf.revenue_sum == pytest.approx(5.0)


def test_pt_prescription_always_supported():
    rng = np.random.default_rng(0)
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0]))
    n = 300
    prices = grid.prices[rng.integers(0, 3, n)]
    X = rng.normal(size=(n, 2))
    y = (rng.uniform(size=n) < 0.5).astype(int)
    data = Dataset(X, prices, y, ("a", "b"))
    treatments = assign_treatments(prices, grid)
    tree = fit_pt(data, grid, FitConfig(max_depth=3))
    leaf_ids = tree.leaf_rows(X)
    for nid in np.unique(leaf_ids):
        leaf = tree.nodes[nid]
        rows = leaf_ids == nid
        t = int(np.nonzero(grid.prices == leaf.price)[0][0])
        assert np.sum(treatments[rows] == t) >= 1


@pytest.mark.parametrize("config", [FitConfig(max_depth=4),
                                    FitConfig.for_knob(None, 30)])
def test_pt_leaf_is_best_observed_treatment_average(config):
    data = generate(make_spec(4), 600, 3)
    grid = percentile_grid(data.prices)
    treatments = assign_treatments(data.prices, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes the fit
        tree = fit_pt(data, grid, config)
    assert tree.n_leaves > 4
    leaf_of = tree.leaf_rows(data.features)
    revenue = data.prices * data.outcomes
    for nid, node in enumerate(tree.nodes):
        if not isinstance(node, LeafNode):
            continue
        rows = leaf_of == nid
        assert node.n_train == rows.sum()
        avgs = np.full(grid.m, -np.inf)
        for t in range(grid.m):
            treated = rows & (treatments == t)
            if treated.any():
                avgs[t] = revenue[treated].sum() / treated.sum()
        best = avgs.max()
        assert node.revenue_sum == pytest.approx(node.n_train * best, rel=1e-12)
        lowest = np.flatnonzero(np.isclose(avgs, best, rtol=1e-12, atol=0))[0]
        assert node.price == grid.prices[lowest]


def test_pt_splits_separate_segments():
    # segment x<=0 sells only at price 2; x>0 sells only at price 3
    grid = PriceGrid(np.asarray([2.0, 3.0]))
    X = np.asarray([[0.0]] * 40 + [[1.0]] * 40)
    rng = np.random.default_rng(1)
    prices = grid.prices[rng.integers(0, 2, 80)]
    y = np.where(X[:, 0] <= 0, (prices == 2.0), (prices == 3.0)).astype(int)
    data = Dataset(X, prices, y, ("x0",))
    tree = fit_pt(data, grid, FitConfig(max_depth=1))
    assert tree.prescribe([[0.0], [1.0]]).tolist() == [2.0, 3.0]


# --- one-vs-all causal trees ----------------------------------------------------

def test_ct_null_effect_tie_breaks_to_lowest():
    # nothing ever sells, so every treated mean is 0 and revenue scores tie
    rng = np.random.default_rng(3)
    grid = PriceGrid(np.asarray([2.0, 5.0]))
    n = 200
    prices = grid.prices[rng.integers(0, 2, n)]
    data = Dataset(rng.normal(size=(n, 2)), prices, np.zeros(n, int), ("a", "b"))
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=2), seed=0)
    np.testing.assert_array_equal(policy.prescribe(rng.normal(size=(20, 2))),
                                  np.full(20, 2.0))


def test_ct_two_segment_fixture():
    # segment A (x<=0) sells only at the low price; B sells at either
    rng = np.random.default_rng(5)
    grid = PriceGrid(np.asarray([2.0, 4.0]))
    n = 400
    X = np.column_stack([np.where(np.arange(n) < n // 2, -1.0, 1.0),
                         rng.normal(size=n)])
    prices = grid.prices[rng.integers(0, 2, n)]
    in_a = X[:, 0] <= 0
    y = np.where(in_a, prices == 2.0, True).astype(int)
    data = Dataset(X, prices, y, ("seg", "noise"))
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=2), seed=1)
    probe_a = np.asarray([[-1.0, 0.0]])
    probe_b = np.asarray([[1.0, 0.0]])
    assert policy.prescribe(probe_a)[0] == 2.0
    assert policy.prescribe(probe_b)[0] == 4.0  # B sells regardless: higher revenue


def test_ct_depth0_constant():
    rng = np.random.default_rng(7)
    grid = PriceGrid(np.asarray([1.0, 2.0]))
    n = 100
    prices = grid.prices[rng.integers(0, 2, n)]
    y = (rng.uniform(size=n) < 0.5).astype(int)
    data = Dataset(rng.normal(size=(n, 2)), prices, y, ("a", "b"))
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=0), seed=2)
    out = policy.prescribe(rng.normal(size=(50, 2)))
    assert np.unique(out).size == 1


def test_ct_requires_both_groups():
    grid = PriceGrid(np.asarray([1.0, 2.0]))
    data = dataset_from([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0])
    with pytest.raises(DataError):
        fit_ct_one_vs_all(data, grid, FitConfig(max_depth=1), seed=0)


# --- one-vs-all causal trees on forked processes --------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Counts the forks the code under test makes, and after the test
    checks that no child of this process is left, reaped or not."""
    made = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_path(monkeypatch, on):
    monkeypatch.setattr(baselines, "_FORK_MIN_CELLS", 0 if on else math.inf)


def _forks_expected(m):
    """The children a forced-on fit of m trees forks on this machine."""
    cpus = len(os.sched_getaffinity(0))
    return min(m, cpus) - 1 if cpus >= 2 else 0


def _tied(data):
    """``data`` with its features rounded to 0.1: tied columns."""
    return Dataset(np.round(data.features, 1), data.prices, data.outcomes,
                   data.feature_names)


@pytest.mark.parametrize("tie", [False, True], ids=["spec2", "spec2-rounded"])
def test_ct_fork_path_writes_the_in_process_bytes(monkeypatch, forks, tie):
    data = generate(make_spec(2), 3000, 4)
    data = _tied(data) if tie else data
    grid = percentile_grid(data.prices)
    texts = []
    for on in (True, False):
        _fork_path(monkeypatch, on)
        texts.append(export_one_vs_all(
            fit_ct_one_vs_all(data, grid, FitConfig(max_depth=4), 5)))
    assert texts[0] == texts[1]
    assert len(forks) == _forks_expected(grid.m)


def test_ct_child_pickle_that_does_not_load_is_refitted(monkeypatch, forks):
    data = generate(make_spec(4), 1000, 1)
    grid = percentile_grid(data.prices)
    _fork_path(monkeypatch, False)
    want = export_one_vs_all(fit_ct_one_vs_all(data, grid, FitConfig(max_depth=3), 2))
    _fork_path(monkeypatch, True)
    monkeypatch.setattr(pickle, "dump", lambda obj, f, *a: f.write(b"not a pickle"))
    got = export_one_vs_all(fit_ct_one_vs_all(data, grid, FitConfig(max_depth=3), 2))
    assert got == want
    assert len(forks) == _forks_expected(grid.m)


def _estimation_half_lacks(treatment, n=200, seed=0):
    """Data on a 4-price grid whose ``treatment`` is observed on three
    structure-half rows only, so its tree finds no estimation-half treated
    row; the other treatments are drawn at random."""
    rng = np.random.default_rng(seed)
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0, 4.0]))
    others = np.delete(grid.prices, treatment)
    prices = others[rng.integers(0, 3, n)]
    prices[half_rows(n, seed)[0][:3]] = grid.prices[treatment]
    y = (rng.uniform(size=n) < 0.5).astype(int)
    return Dataset(rng.normal(size=(n, 2)), prices, y, ("a", "b")), grid


@pytest.mark.parametrize("treatment", [0, 3], ids=["parent", "child"])
def test_ct_tree_that_raises_raises_as_in_process(monkeypatch, forks, treatment):
    """Tree 0 is the parent's, tree 3 a child's: the parent raises with its
    child still running, or the child fails and its trees are refitted."""
    data, grid = _estimation_half_lacks(treatment)
    messages = []
    for on in (False, True):
        _fork_path(monkeypatch, on)
        with pytest.raises(DataError) as info:
            fit_ct_one_vs_all(data, grid, FitConfig(max_depth=2), 0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "estimation half" in messages[0]
    assert len(forks) == _forks_expected(grid.m)


def test_ct_empty_group_names_the_first_bad_treatment_before_any_fork(
        monkeypatch, forks):
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0, 4.0]))
    data = dataset_from([1.0, 3.0, 1.0, 3.0], [1, 0, 1, 0])  # no 2.0 or 4.0
    _fork_path(monkeypatch, True)
    with pytest.raises(DataError, match="^treatment 1 has an empty treated or "
                                        "control group$"):
        fit_ct_one_vs_all(data, grid, FitConfig(max_depth=1), 0)
    every = dataset_from([2.0] * 4, [1, 0, 1, 0])  # 0 has no treated, 1 no control
    with pytest.raises(DataError, match="^treatment 0 has"):
        fit_ct_one_vs_all(every, grid, FitConfig(max_depth=1), 0)
    assert forks == []


def test_ct_export_round_trip():
    rng = np.random.default_rng(11)
    grid = PriceGrid(np.asarray([1.0, 3.0]))
    n = 120
    prices = grid.prices[rng.integers(0, 2, n)]
    y = (rng.uniform(size=n) < (prices == 1.0) * 0.8).astype(int)
    data = Dataset(rng.normal(size=(n, 2)), prices, y, ("a", "b"))
    policy = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=2), seed=3)
    X = rng.normal(size=(30, 2))
    back = one_vs_all_from_json(export_one_vs_all(policy))
    np.testing.assert_array_equal(back.prescribe(X), policy.prescribe(X))


def test_one_vs_all_tie_breaks_lowest_price():
    class _Const:
        def __init__(self, mu):
            self.mu = mu

        def treated_means(self, X):
            return np.full(np.atleast_2d(X).shape[0], self.mu)

    grid = PriceGrid(np.asarray([2.0, 4.0]))
    policy = OneVsAllPolicy([_Const(0.5), _Const(0.25)], grid)  # 2*0.5 == 4*0.25
    assert policy.prescribe([[0.0]])[0] == 2.0


# --- naive distillation ----------------------------------------------------------

def test_naive_constant_teacher_single_leaf():
    t = OracleTeacher(lambda X, p: np.full(np.atleast_2d(X).shape[0], 0.5), 2)
    grid = PriceGrid(np.asarray([2.0, 3.0]))
    X = np.random.default_rng(0).normal(size=(50, 2))
    tree = fit_naive_distill(X, probability_matrix(t, X, grid), grid,
                             FitConfig(max_depth=4))
    assert tree.n_leaves == 1
    assert tree.prescribe([[0.0, 0.0]])[0] == 3.0  # grid-wide argmax of p * 0.5


def test_naive_leaf_prices_in_grid_and_mse_monotone():
    spec = make_spec(4)
    data = generate(spec, 800, 0)
    grid = PriceGrid(np.percentile(data.prices, [20, 50, 80]))
    teacher = fit_gbt(data, GbtConfig(rounds=10))
    targets = probability_matrix(teacher, data.features, grid)
    mses = []
    for depth in range(5):
        tree = fit_naive_distill(data.features, targets, grid,
                                 FitConfig(max_depth=depth))
        prices = {n.price for n in tree.nodes if isinstance(n, LeafNode)}
        assert prices <= set(grid.prices.tolist())
        mses.append(naive_training_mse(tree, data.features, targets))
    assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))


@pytest.mark.parametrize("n_rows", [1, 3, 257])
def test_sum_rows_pairwise_matches_numpy_row_sum(n_rows):
    """The naive criterion sums squares over a column-major block in the
    order numpy's ``sum(axis=1)`` adds a row-major one (pairwise)."""
    rng = np.random.default_rng(n_rows)
    for m in range(1, 300):  # every row length up to 130 and two halvings
        a = rng.random((n_rows, m)) * 10.0 ** rng.integers(-8, 9, (n_rows, m))
        out = np.empty(n_rows)
        sum_rows_pairwise(a.T.copy(), out)  # it overwrites the block
        assert out.tobytes() == a.sum(axis=1).tobytes(), m


def test_naive_recovers_segment_prices():
    # teacher demand: segment 0 buys only below 10, segment 1 below 12
    def prob(X, p):
        X = np.atleast_2d(X)
        cap = np.where(X[:, 0] <= 0.5, 10.0, 12.0)
        return (np.broadcast_to(np.asarray(p, float), (X.shape[0],)) <= cap) * 1.0

    t = OracleTeacher(prob, 1)
    grid = PriceGrid(np.asarray([10.0, 12.0]))
    X = np.asarray([[0.0]] * 10 + [[1.0]] * 10)
    tree = fit_naive_distill(X, probability_matrix(t, X, grid), grid,
                             FitConfig(max_depth=1))
    assert tree.prescribe([[0.0], [1.0]]).tolist() == [10.0, 12.0]


# --- constant and historical ------------------------------------------------------

def test_constant_price_policy_toy(toy_revmat):
    tree = constant_price_policy(toy_revmat)
    assert tree.n_leaves == 1
    assert tree.prescribe([[0.0]])[0] == 10.0
    assert tree.nodes[tree.root].revenue_sum == 20.0


def test_constant_price_single_column():
    rm = RevenueMatrix(np.asarray([[1.0], [2.0]]), PriceGrid(np.asarray([3.0])))
    assert constant_price_policy(rm).prescribe([[0.0]])[0] == 3.0


def test_constant_price_uniform_ties_low():
    rm = RevenueMatrix(np.full((3, 2), 0.5), PriceGrid(np.asarray([1.0, 2.0])))
    assert constant_price_policy(rm).prescribe([[0.0]])[0] == 1.0


@pytest.mark.parametrize("spec_id", [2, 4, 6])
def test_constant_price_policy_matches_leaf_revenue_bytes(spec_id):
    """The column sums of the whole matrix are those of its gathered copy."""
    spec = make_spec(spec_id)
    data = generate(spec, 3000, 2)
    grid = percentile_grid(data.prices)
    rm = revenue_matrix(probability_matrix(oracle_teacher(spec), data.features,
                                           grid), grid)
    leaf = constant_price_policy(rm).nodes[0]
    k, total = leaf_revenue(rm, np.arange(rm.n))
    assert leaf.price == grid.prices[k]
    assert np.float64(leaf.revenue_sum).tobytes() == np.float64(total).tobytes()
    assert leaf.n_train == rm.n


def test_historical_policy_revenue():
    always = OracleTeacher(lambda X, p: np.ones(np.atleast_2d(X).shape[0]), 1)
    never = OracleTeacher(lambda X, p: np.zeros(np.atleast_2d(X).shape[0]), 1)
    data = dataset_from([2.0, 4.0], [1, 0])
    assert historical_policy_revenue(data, always) == 3.0
    assert historical_policy_revenue(data, never) == 0.0
    half_quarter = OracleTeacher(
        lambda X, p: np.where(np.broadcast_to(np.asarray(p, float),
                                              (np.atleast_2d(X).shape[0],)) == 2.0,
                              0.5, 0.25), 1)
    assert historical_policy_revenue(data, half_quarter) == 1.0
