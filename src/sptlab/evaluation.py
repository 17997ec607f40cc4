"""Counterfactual policy evaluation and the regret-bound verification
machinery built from the hypercube construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import PriceGrid
from .rng import CounterRng
from .spt import LeafNode, PolicyTree
from .teacher import TeacherModel, probability_matrix, revenue_matrix
from .tree import check_structure, grow_preorder


@dataclass(frozen=True)
class RegretBoundParams:
    """Inputs to the worst-case revenue-gap bound for depth-k tree policies."""

    L: float
    d: int
    k: int
    K_n: float = 0.0

    def __post_init__(self):
        if self.L < 0 or self.K_n < 0 or self.d < 1 or self.k < 0:
            raise ValueError("invalid regret bound parameters")


def regret_bound(params: RegretBoundParams) -> float:
    """2^(-k/d + 1) * L * sqrt(d) + 2 * K_n."""
    return (2.0 ** (-params.k / params.d + 1.0) * params.L * math.sqrt(params.d)
            + 2.0 * params.K_n)


def expected_revenue(policy, features, truth: TeacherModel) -> float:
    """Mean of tau(x) * truth(x, tau(x)) over the rows of features."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    prices = policy.prescribe(X)
    probs = truth.predict_proba_batch(X, prices)
    return float(np.mean(prices * probs))


def policy_mse(policy_a, policy_b, features) -> float:
    """Mean squared difference between two policies' prescribed prices."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    diff = policy_a.prescribe(X) - policy_b.prescribe(X)
    return float(np.mean(diff * diff))


def hypercube_side_count(k: int, d: int) -> int:
    """Cells per axis for the depth-k feasible policy: 2^floor(k/d).

    Halving each axis floor(k/d) times is exactly representable by an
    axis-aligned tree of depth d*floor(k/d) <= k; general m^d cell grids
    need not be (guillotine cuts cannot always bisect the cell count).
    """
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return 2 ** (k // d)


def hypercube_policy(truth_or_teacher: TeacherModel, grid: PriceGrid, k: int,
                     d: int, probe_features) -> PolicyTree:
    """The feasible depth-<=k policy from the regret-bound construction.

    [0,1]^d is cut into width-1/m cells (m = 2^floor(k/d)); each cell is
    priced by the grid price maximizing the summed predicted revenue of the
    probe rows that fall inside it. Cells containing no probe row get an
    unpriced leaf, which raises when routing reaches it.
    """
    X = np.atleast_2d(np.asarray(probe_features, dtype=np.float64))
    if X.shape[1] != d:
        raise ValueError(f"probe features must have dimension {d}")
    if X.min() < 0.0 or X.max() > 1.0:
        raise ValueError("probe features must lie in [0, 1]^d")
    m = hypercube_side_count(k, d)

    # Cell index per axis: cell c covers ((c)/m, (c+1)/m], except cell 0
    # which also includes 0. Matches "left iff x <= s" routing at s = c/m.
    cells = np.clip(np.ceil(X * m).astype(np.int64) - 1, 0, m - 1)
    flat = np.ravel_multi_index(tuple(cells.T), (m,) * d)
    rev = revenue_matrix(probability_matrix(truth_or_teacher, X, grid), grid).values
    cell_sums = np.zeros((m ** d, grid.m))
    np.add.at(cell_sums, flat, rev)
    cell_counts = np.bincount(flat, minlength=m ** d)

    def visit(cell):
        lo, hi = cell
        extents = [h - l for l, h in zip(lo, hi)]
        if all(e == 1 for e in extents):
            idx = np.ravel_multi_index(lo, (m,) * d)
            if cell_counts[idx] == 0:
                return LeafNode(float("nan"), 0.0, 0)
            kbest = int(np.argmax(cell_sums[idx]))
            return LeafNode(float(grid.prices[kbest]),
                            float(cell_sums[idx][kbest]), int(cell_counts[idx]))
        j = int(np.argmax(extents))
        mid = (lo[j] + hi[j]) // 2
        return (j, mid / m, (lo, hi[:j] + (mid,) + hi[j + 1:]),
                (lo[:j] + (mid,) + lo[j + 1:], hi))

    nodes = grow_preorder(((0,) * d, (m,) * d), visit)
    names = tuple(f"x{i}" for i in range(d))
    return PolicyTree(nodes, 0, names, grid.prices, check_structure(nodes, 0))


_MAX_LATTICE_POINTS = 2_000_000  # 101 per axis: d=3 has 1,030,301, d=4 about 10**8


def numeric_lipschitz(truth: TeacherModel, d: int, grid: PriceGrid,
                      n_axis: int = 101) -> float:
    """max over a dense lattice of the L2 norm of d(p*f)/dx, by central
    differences; the revenue function's Lipschitz constant in x.

    Raises ValueError, before allocating, when the ``n_axis ** d`` lattice
    has more than ``_MAX_LATTICE_POINTS`` points (d=20 would need 101**20).
    """
    if n_axis ** d > _MAX_LATTICE_POINTS:
        raise ValueError(
            f"numeric_lipschitz: a lattice of n_axis={n_axis} points per axis "
            f"in d={d} dimensions has {n_axis}**{d} points, more than "
            f"{_MAX_LATTICE_POINTS}")
    axes = [np.linspace(0.0, 1.0, n_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.column_stack([a.ravel() for a in mesh])
    eps = 1e-5
    worst = 0.0
    for p in grid.prices[:: max(1, grid.m // 64)]:
        grads = np.zeros(X.shape[0])
        for j in range(d):
            hi = X.copy()
            hi[:, j] = np.minimum(hi[:, j] + eps, 1.0)
            lo = X.copy()
            lo[:, j] = np.maximum(lo[:, j] - eps, 0.0)
            f_hi = truth.predict_proba_batch(hi, float(p))
            f_lo = truth.predict_proba_batch(lo, float(p))
            gj = p * (f_hi - f_lo) / (hi[:, j] - lo[:, j])
            grads += gj * gj
        worst = max(worst, float(np.sqrt(grads.max())))
    return worst


def numeric_price_slope(truth: TeacherModel, d: int, grid: PriceGrid,
                        n_x: int = 512) -> float:
    """max |d(p*f)/dp| over probe points and the grid, by finite differences."""
    rng = CounterRng(20_240_901)
    X = rng.uniforms(n_x * d).reshape(n_x, d)
    eps = 1e-5
    worst = 0.0
    for p in grid.prices:
        f_hi = truth.predict_proba_batch(X, float(p) + eps)
        f_lo = truth.predict_proba_batch(X, float(p) - eps)
        fp = truth.predict_proba_batch(X, float(p))
        slope = fp + p * (f_hi - f_lo) / (2 * eps)
        worst = max(worst, float(np.abs(slope).max()))
    return worst


@dataclass(frozen=True)
class RegretCheck:
    max_observed_regret: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.max_observed_regret <= self.bound + self.slack


def verify_regret_bound(truth: TeacherModel, grid: PriceGrid, k: int, d: int,
                        n_probe: int, n_test: int, seed: int) -> RegretCheck:
    """Build the hypercube policy from an oracle truth (K(n) = 0) and check
    its pointwise regret against the bound, with a quantified grid slack."""
    rng = CounterRng(seed)
    probes = rng.substream(0).uniforms(n_probe * d).reshape(n_probe, d)
    tests = rng.substream(1).uniforms(n_test * d).reshape(n_test, d)

    policy = hypercube_policy(truth, grid, k, d, probes)
    prescribed = policy.prescribe(tests)
    rev_hat = prescribed * truth.predict_proba_batch(tests, prescribed)

    rev_star = revenue_matrix(probability_matrix(truth, tests, grid),
                              grid).values.max(axis=1)

    regret = float((rev_star - rev_hat).max())
    L = numeric_lipschitz(truth, d, grid)
    bound = regret_bound(RegretBoundParams(L, d, k, 0.0))
    spacing = float(np.diff(grid.prices).max()) if grid.m > 1 else 0.0
    slack = spacing * numeric_price_slope(truth, d, grid)
    return RegretCheck(regret, bound, slack)
