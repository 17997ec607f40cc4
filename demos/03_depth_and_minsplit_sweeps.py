"""Complexity knobs: tree depth versus minsplit termination.

Shows the two complexity controls side by side at desk scale: revenue
as depth grows, and leaf counts as the minsplit threshold loosens (with
unbounded depth).
"""

from sptlab import (FitConfig, derive_seed, expected_revenue, fit_gbt,
                    fit_spt, generate, make_spec, oracle_teacher,
                    percentile_grid, revenue_matrix)

spec = make_spec(4, 0)
train = generate(spec, 5000, 0)
test = generate(spec, 5000, derive_seed(0, 1))
truth = oracle_teacher(spec)
grid = percentile_grid(train.prices)
teacher = fit_gbt(train)
revmat = revenue_matrix(teacher, train.features, grid)

print("depth sweep (full-width trees):")
for depth in range(6):
    tree = fit_spt(train.features, revmat, FitConfig(max_depth=depth))
    rev = expected_revenue(tree, test.features, truth)
    print(f"  depth {depth}: revenue {rev:.4f}, leaves {tree.n_leaves}")

print("\nminsplit sweep (unbounded depth, min_leaf = minsplit // 3):")
for minsplit in (50, 150, 500, 1500):
    tree = fit_spt(train.features, revmat, FitConfig.for_knob(None, minsplit))
    rev = expected_revenue(tree, test.features, truth)
    print(f"  minsplit {minsplit:>4}: revenue {rev:.4f}, leaves {tree.n_leaves}")
