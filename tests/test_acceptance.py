"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with measured values and asserting its stated tolerance and runtime budget."""

import time

import numpy as np
import pytest

import conftest
from sptlab.baselines import (fit_ct_one_vs_all, fit_naive_distill, fit_pt,
                              naive_training_mse)
from sptlab.dataset import PriceGrid, percentile_grid
from sptlab.evaluation import expected_revenue, verify_regret_bound
from sptlab.experiments import load_plan, run_experiment
from sptlab.rng import derive_seed
from sptlab.spt import (FitConfig, fit_spt, single_leaf_tree,
                        training_revenue)
from sptlab.synth import (SPEC_IDS, OraclePolicy, baseline_utility,
                          fine_price_grid, generate, make_spec, oracle_teacher,
                          price_sensitivity, standard_normal_cdf)
from sptlab.teacher import (OracleTeacher, fit_gbt, probability_matrix,
                            revenue_matrix)

SEEDS = tuple(range(10))


def report(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def spec4_runs():
    """Per-seed artifacts for spec 4 shared by criteria 3, 4 and 9."""
    runs = {}
    for seed in SEEDS:
        spec = make_spec(4, seed)
        data = generate(spec, 5000, seed)
        grid = percentile_grid(data.prices)
        probs = probability_matrix(fit_gbt(data), data.features, grid)
        runs[seed] = {
            "spec": spec, "data": data, "grid": grid, "probs": probs,
            "revmat": revenue_matrix(probs, grid),
            "test": generate(spec, 5000, derive_seed(seed, 1)),
            "truth": oracle_teacher(spec),
        }
    return runs


def _spt_depth3_mean(spec4_runs):
    revs = []
    for seed in SEEDS:
        r = spec4_runs[seed]
        tree = fit_spt(r["data"].features, r["revmat"], FitConfig(max_depth=3))
        revs.append(expected_revenue(tree, r["test"].features, r["truth"]))
    return float(np.mean(revs))


def test_criterion_1_toy_exactness(toy_teacher, toy_features, toy_revmat):
    t0 = time.time()
    single = fit_spt(toy_features, toy_revmat, FitConfig(max_depth=0))
    single_price = single.prescribe([[0.0]])[0]
    single_rev = expected_revenue(single, toy_features, toy_teacher)

    # naive comparator: one-leaf MSE regression on the teacher-optimal prices
    opt_prices = toy_revmat.grid.prices[np.argmax(toy_revmat.values, axis=1)]
    reg_price = float(opt_prices.mean())
    reg_rev = expected_revenue(single_leaf_tree(reg_price), toy_features,
                               toy_teacher)

    deep = fit_spt(toy_features, toy_revmat, FitConfig(max_depth=1))
    deep_rev = expected_revenue(deep, toy_features, toy_teacher)
    elapsed = time.time() - t0

    ok = (abs(single_price - 10.0) <= 1e-12 and abs(single_rev - 10.0) <= 1e-12
          and abs(reg_price - 11.0) <= 1e-12 and abs(reg_rev - 5.5) <= 1e-12
          and abs(deep_rev - 11.0) <= 1e-12 and elapsed < 1.0)
    report(1, ok, f"SPT price {single_price:g} rev {single_rev:g}; "
                  f"regression price {reg_price:g} rev {reg_rev:g}; "
                  f"depth-1 rev {deep_rev:g} [{elapsed:.2f}s]")


def test_criterion_2_table1_optimal_column():
    t0 = time.time()
    means = {}
    for spec_id in (1, 4):
        revs = []
        for seed in SEEDS:
            spec = make_spec(spec_id, seed)
            train = generate(spec, 5000, seed)
            grid = percentile_grid(train.prices)
            fine = fine_price_grid(float(grid.prices[0]),
                                   float(grid.prices[-1]), 1000)
            test = generate(spec, 5000, derive_seed(seed, 1))
            revs.append(expected_revenue(OraclePolicy(spec, fine),
                                         test.features, oracle_teacher(spec)))
        means[spec_id] = float(np.mean(revs))
    elapsed = time.time() - t0
    ok = (abs(means[1] - 3.28) <= 0.10 and abs(means[4] - 3.49) <= 0.10
          and elapsed < 60)
    report(2, ok, f"optimal mean spec1 {means[1]:.4f} (target 3.28+-0.10), "
                  f"spec4 {means[4]:.4f} (target 3.49+-0.10) [{elapsed:.0f}s]")


def test_criterion_3_table1_ordering(spec4_runs):
    t0 = time.time()
    means = {}
    for spec_id in (2, 4, 6):
        acc = {"spt": [], "pt": [], "ct": []}
        for seed in SEEDS:
            if spec_id == 4:
                r = spec4_runs[seed]
                spec, data, grid = r["spec"], r["data"], r["grid"]
                revmat = r["revmat"]
                test, truth = r["test"], r["truth"]
            else:
                spec = make_spec(spec_id, seed)
                data = generate(spec, 5000, seed)
                grid = percentile_grid(data.prices)
                revmat = revenue_matrix(
                    probability_matrix(fit_gbt(data), data.features, grid), grid)
                test = generate(spec, 5000, derive_seed(seed, 1))
                truth = oracle_teacher(spec)
            for depth in (1, 2, 3, 4, 5):
                cfg = FitConfig(max_depth=depth)
                acc["spt"].append(expected_revenue(
                    fit_spt(data.features, revmat, cfg), test.features, truth))
                acc["pt"].append(expected_revenue(
                    fit_pt(data, grid, cfg), test.features, truth))
                acc["ct"].append(expected_revenue(
                    fit_ct_one_vs_all(data, grid, cfg, derive_seed(seed, 2)),
                    test.features, truth))
        means[spec_id] = {k: float(np.mean(v)) for k, v in acc.items()}
    elapsed = time.time() - t0
    ok = all(means[s]["spt"] > means[s]["pt"] and means[s]["spt"] > means[s]["ct"]
             for s in (2, 4, 6)) and elapsed < 600
    detail = "; ".join(
        f"spec{s}: SPT {means[s]['spt']:.3f} vs PT {means[s]['pt']:.3f} / "
        f"CT {means[s]['ct']:.3f}" for s in (2, 4, 6))
    report(3, ok, detail + f" [{elapsed:.0f}s]")


def test_criterion_4_naive_gap(spec4_runs):
    # Known-red: regressing the teacher's probability vector over the grid
    # distills optimal-price structure almost as well as the revenue
    # criterion itself on this world, so the expected 0.3 revenue gap to the
    # depth-3 SPT (anchored at naive <= 2.80 vs SPT ~= 3.36) never opens up.
    t0 = time.time()
    spt3 = _spt_depth3_mean(spec4_runs)
    naive_by_depth = {}
    for depth in (1, 2, 3, 4, 5):
        revs = []
        for seed in SEEDS:
            r = spec4_runs[seed]
            tree = fit_naive_distill(r["data"].features, r["probs"], r["grid"],
                                     FitConfig(max_depth=depth))
            revs.append(expected_revenue(tree, r["test"].features, r["truth"]))
        naive_by_depth[depth] = float(np.mean(revs))
    worst = max(naive_by_depth.values())
    elapsed = time.time() - t0
    ok = worst <= spt3 - 0.3 and elapsed < 300
    report(4, ok, f"SPT@3 {spt3:.3f}; naive depths 1..5 "
                  f"{[round(v, 3) for v in naive_by_depth.values()]}; "
                  f"required naive <= {spt3 - 0.3:.3f} [{elapsed:.0f}s]")


def test_criterion_5_regret_bound_suite():
    t0 = time.time()
    truth = OracleTeacher(
        lambda X, p: standard_normal_cdf(np.atleast_2d(X)[:, 0]
                                         - np.asarray(p, dtype=float)), 2)
    grid = fine_price_grid(0.2, 2.0, 1000)
    checks = {}
    for k in (2, 4, 6, 8):
        n_probe = max(4000, 100 * (2 ** k))
        checks[k] = verify_regret_bound(truth, grid, k, 2, n_probe=n_probe,
                                        n_test=2000, seed=k)
    elapsed = time.time() - t0
    ok = all(c.passed for c in checks.values()) and elapsed < 60
    detail = "; ".join(f"k={k}: regret {c.max_observed_regret:.4f} <= "
                       f"bound {c.bound:.4f} + slack {c.slack:.4f}"
                       for k, c in checks.items())
    report(5, ok, detail + f" [{elapsed:.0f}s]")


def _brute_force_depth1(values, grid_prices, X, min_leaf):
    """Independent oracle: direct subset sums for every (j, s) candidate."""
    n, d = X.shape
    totals = values.sum(axis=0)
    base = float(totals.max())
    best = None
    for j in range(d):
        for s in sorted(set(X[:, j].tolist()))[:-1]:
            mask = X[:, j] <= s
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            left = values[mask].sum(axis=0)
            combined = float(left.max()) + float((totals - left).max())
            if combined > base and (best is None or combined > best[0]):
                best = (combined, j, float(s),
                        float(grid_prices[int(np.argmax(left))]),
                        float(grid_prices[int(np.argmax(totals - left))]))
    return base, best


def test_criterion_6_greedy_oracle_equivalence():
    t0 = time.time()
    mismatches = []
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        # dyadic values make every subset sum exact in double precision, so
        # "matches exactly" (incl. zero-gain rejection) is well defined
        X = np.floor(rng.normal(size=(n, d)) * 64) / 64
        prices = np.sort(rng.uniform(0.5, 9.5, m))
        prices = np.floor(prices * 1024) / 1024 + np.arange(m) * 2.0 ** -10
        values = np.floor(rng.uniform(0.0, 1.0, (n, m)) * prices * 1024) / 1024
        from sptlab.teacher import RevenueMatrix
        rm = RevenueMatrix(values, PriceGrid(prices))
        tree = fit_spt(X, rm, FitConfig(max_depth=1))
        base, best = _brute_force_depth1(values, prices, X, 1)
        if best is None:
            if tree.n_leaves != 1 or abs(training_revenue(tree) - base) > 1e-9:
                mismatches.append(trial)
            continue
        root = tree.nodes[tree.root]
        got = (training_revenue(tree), root.feature, root.threshold,
               tree.nodes[root.left].price, tree.nodes[root.right].price)
        want = best
        if (abs(got[0] - want[0]) > 1e-9 or got[1] != want[1]
                or got[2] != want[2] or got[3] != want[3] or got[4] != want[4]):
            mismatches.append(trial)
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 30
    report(6, ok, f"50 random instances, mismatches: {mismatches} "
                  f"[{elapsed:.1f}s]")


def test_criterion_7_monotonicity_suite():
    t0 = time.time()
    bad = []
    for spec_id in SPEC_IDS:
        spec = make_spec(spec_id, 0)
        data = generate(spec, 2000, 0)
        grid = percentile_grid(data.prices)
        targets = probability_matrix(fit_gbt(data), data.features, grid)
        revmat = revenue_matrix(targets, grid)
        revs = [training_revenue(fit_spt(data.features, revmat,
                                         FitConfig(max_depth=k)))
                for k in range(6)]
        if not all(b >= a - 1e-9 for a, b in zip(revs, revs[1:])):
            bad.append((spec_id, "spt", [round(v, 3) for v in revs]))
        mses = [naive_training_mse(
            fit_naive_distill(data.features, targets, grid,
                              FitConfig(max_depth=k)),
            data.features, targets) for k in range(6)]
        if not all(b <= a + 1e-12 for a, b in zip(mses, mses[1:])):
            bad.append((spec_id, "naive", [round(v, 6) for v in mses]))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 120
    report(7, ok, f"specs 1-6 monotone (violations: {bad}) [{elapsed:.0f}s]")


def test_criterion_8_generator_calibration():
    t0 = time.time()
    results = {}
    for spec_id in SPEC_IDS:
        spec = make_spec(spec_id, 0)
        data = generate(spec, 100_000, 0)
        z = baseline_utility(spec, data.features) + \
            price_sensitivity(spec, data.features) * data.prices
        edges = np.linspace(-4.0, 4.0, 33)
        which = np.digitize(z, edges)
        ok_bins = 0
        occupied = 0
        for b in range(1, edges.size):
            rows = which == b
            cnt = int(rows.sum())
            if cnt == 0:
                continue
            occupied += 1
            expected = float(standard_normal_cdf(z[rows]).mean())
            se = np.sqrt(max(expected * (1 - expected), 1e-12) / cnt)
            if abs(data.outcomes[rows].mean() - expected) <= 3 * se:
                ok_bins += 1
        results[spec_id] = (ok_bins, occupied)
    elapsed = time.time() - t0
    ok = all(okb >= 0.95 * occ for okb, occ in results.values()) and elapsed < 60
    detail = ", ".join(f"spec{s}: {okb}/{occ}" for s, (okb, occ) in results.items())
    report(8, ok, detail + f" [{elapsed:.0f}s]")


def test_criterion_9_table2_shape(spec4_runs):
    t0 = time.time()
    reference_leaves = {50: 120.4, 150: 64.0, 500: 24.6, 1500: 5.4}
    mean_leaves = {}
    mean_rev = {}
    for ms in (50, 150, 500, 1500):
        cfg = FitConfig(max_depth=None, minsplit=ms, min_leaf=max(1, ms // 3))
        leaves, revs = [], []
        for seed in SEEDS:
            r = spec4_runs[seed]
            tree = fit_spt(r["data"].features, r["revmat"], cfg)
            leaves.append(tree.n_leaves)
            revs.append(expected_revenue(tree, r["test"].features, r["truth"]))
        mean_leaves[ms] = float(np.mean(leaves))
        mean_rev[ms] = float(np.mean(revs))
    elapsed = time.time() - t0
    counts = [mean_leaves[ms] for ms in (50, 150, 500, 1500)]
    ok = (all(a > b for a, b in zip(counts, counts[1:]))
          and all(reference_leaves[ms] / 2 <= mean_leaves[ms] <= reference_leaves[ms] * 2
                  for ms in reference_leaves)
          and all(v >= 3.25 for v in mean_rev.values())
          and elapsed < 300)
    detail = "; ".join(f"ms={ms}: leaves {mean_leaves[ms]:.1f} "
                       f"(ref {reference_leaves[ms]}), rev {mean_rev[ms]:.3f}"
                       for ms in (50, 150, 500, 1500))
    report(9, ok, detail + f" [{elapsed:.0f}s]")


def test_criterion_10_performance():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5000, 20))
    prices = np.linspace(1.0, 9.0, 9)
    values = rng.uniform(0.0, 1.0, (5000, 9)) * prices
    from sptlab.teacher import RevenueMatrix
    rm = RevenueMatrix(values, PriceGrid(prices))
    t0 = time.time()
    tree = fit_spt(X, rm, FitConfig(max_depth=5))
    fit_elapsed = time.time() - t0

    t1 = time.time()
    rows = run_experiment(load_plan("table1_small"))
    plan_elapsed = time.time() - t1
    ok = fit_elapsed < 5.0 and plan_elapsed < 600 and len(rows) == 6 * 7 * 3
    report(10, ok, f"fit_spt(n=5000,d=20,m=9,k=5) {fit_elapsed:.2f}s "
                   f"({tree.n_leaves} leaves); table1_small "
                   f"{plan_elapsed:.0f}s, {len(rows)} rows")
