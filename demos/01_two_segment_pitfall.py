"""Why revenue-aware distillation beats price regression.

Two customer segments with perfectly inelastic demand: segment A buys at any
price up to 10, segment B up to 12. A single-price policy must choose between
charging 10 (everyone buys) and charging more (only B buys). Regressing the
teacher-optimal prices averages them to 11, which prices segment A out of the
market entirely.
"""

import numpy as np

from sptlab import (FitConfig, OracleTeacher, PriceGrid, RevenueMatrix,
                    expected_revenue, fit_spt, single_leaf_tree)


def demand(X, p):
    cap = np.where(np.atleast_2d(X)[:, 0] <= 0.5, 10.0, 12.0)
    return (np.broadcast_to(np.asarray(p, float), cap.shape) <= cap).astype(float)


teacher = OracleTeacher(demand, 1)
X = np.asarray([[0.0], [1.0]])              # one row per segment
grid = PriceGrid(np.asarray([10.0, 12.0]))
revmat = RevenueMatrix(np.asarray([[10.0, 0.0], [10.0, 12.0]]), grid)

single = fit_spt(X, revmat, FitConfig(max_depth=0))
print(f"single-price prescriptive tree: price {single.prescribe(X)[0]:g}, "
      f"expected revenue {expected_revenue(single, X, teacher):g}")

opt_prices = grid.prices[np.argmax(revmat.values, axis=1)]
regressed = single_leaf_tree(float(opt_prices.mean()))
print(f"single-leaf price regression:   price {regressed.prescribe(X)[0]:g}, "
      f"expected revenue {expected_revenue(regressed, X, teacher):g}")

segmented = fit_spt(X, revmat, FitConfig(max_depth=1))
low, high = segmented.prescribe(X)
print(f"depth-1 prescriptive tree:      prices {low:g}/{high:g}, "
      f"expected revenue {expected_revenue(segmented, X, teacher):g}")
