"""Head-to-head on one synthetic world.

Generates the two-dimensional step-interaction world (spec 4), trains the
boosted teacher, fits every policy at depth 3, and scores them with exact
ground-truth counterfactuals on fresh draws.
"""

import numpy as np

from sptlab import (FitConfig, OraclePolicy, TeacherGridPolicy,
                    constant_price_policy, derive_seed, expected_revenue,
                    fine_price_grid, fit_ct_one_vs_all, fit_gbt,
                    fit_naive_distill, fit_pt, fit_spt, generate,
                    historical_policy_revenue, make_spec, oracle_teacher,
                    percentile_grid, policy_mse, probability_matrix,
                    revenue_matrix)

SPEC_ID, N, SEED, DEPTH = 4, 5000, 0, 3

spec = make_spec(SPEC_ID, SEED)
train = generate(spec, N, SEED)
test = generate(spec, N, derive_seed(SEED, 1))
truth = oracle_teacher(spec)

grid = percentile_grid(train.prices)
print(f"price grid ({grid.m} prices):", np.round(grid.prices, 2))

teacher = fit_gbt(train)
probs = probability_matrix(teacher, train.features, grid)
revmat = revenue_matrix(probs, grid)
config = FitConfig(max_depth=DEPTH)

spt = fit_spt(train.features, revmat, config, train.feature_names)
policies = {
    "spt": spt,
    "pt": fit_pt(train, grid, config),
    "ct (one-vs-all)": fit_ct_one_vs_all(train, grid, config, derive_seed(SEED, 2)),
    "naive distill": fit_naive_distill(train.features, probs, grid, config),
    "teacher policy": TeacherGridPolicy(teacher, grid),
    "constant price": constant_price_policy(revmat),
    "optimal (fine grid)": OraclePolicy(
        spec, fine_price_grid(float(grid.prices[0]), float(grid.prices[-1]))),
}

print(f"\nexpected revenue per customer (depth {DEPTH}, n={N}):")
for name, policy in policies.items():
    print(f"  {name:<20} {expected_revenue(policy, test.features, truth):.4f}")
print(f"  {'no change':<20} {historical_policy_revenue(test, truth):.4f}")

fidelity = policy_mse(spt, policies["teacher policy"], test.features)
print(f"\nSPT has {spt.n_leaves} leaves; its policy is a single readable tree.")
print(f"price MSE between SPT and the full teacher policy: {fidelity:.4f}")
