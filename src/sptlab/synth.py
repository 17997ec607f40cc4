"""Latent probit generative model behind the six synthetic pricing worlds.

Each world draws (X, P, eps), forms the latent utility g(X) + h(X)*P + eps,
and records a sale when it is positive, so the exact sale probability is
Phi(g(X) + h(X)*p) and ground-truth counterfactuals are available for
policy evaluation.

Normal laws are parameterized as N(mean, variance) throughout, consistent
with N(0, I_2) denoting an identity covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .dataset import Dataset, PriceGrid
from .rng import CounterRng
from .teacher import OracleTeacher

SPEC_IDS = (1, 2, 3, 4, 5, 6)

# Substream indices used by generate(); fixed so streams are addressable.
_STREAM_FEATURES = 0
_STREAM_PRICES = 1
_STREAM_NOISE = 2
_STREAM_BETA = 3


def standard_normal_cdf(z):
    """Phi(z) via the complementary error function, abs error <= 1e-12."""
    z = np.asarray(z, dtype=np.float64)
    out = 0.5 * erfc(-z / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SyntheticSpec:
    """One of the six generative worlds; id fixes d, g, h and the data laws."""

    id: int
    d: int
    beta: np.ndarray | None = None

    def __post_init__(self):
        if self.id not in SPEC_IDS:
            raise ValueError(f"unknown synthetic spec id {self.id}")
        expected_d = 20 if self.id == 2 else 2
        if self.d != expected_d:
            raise ValueError(f"spec {self.id} has dimension {expected_d}")
        if self.id == 2:
            if self.beta is None or np.asarray(self.beta).shape != (20,):
                raise ValueError("spec 2 requires a length-20 beta vector")
            b = np.asarray(self.beta, dtype=np.float64).copy()
            if np.any(b[5:] != 0.0):
                raise ValueError("spec 2 beta entries 6..20 must be zero")
            b.flags.writeable = False
            object.__setattr__(self, "beta", b)
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for spec 2")


def make_spec(spec_id: int, seed: int = 0) -> SyntheticSpec:
    """Build a spec; for id 2 the sparse beta is drawn once from the seed."""
    if spec_id == 2:
        beta = np.zeros(20)
        beta[:5] = CounterRng(seed).substream(_STREAM_BETA).normals(5)
        return SyntheticSpec(2, 20, beta)
    return SyntheticSpec(spec_id, 2)


def baseline_utility(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    """g(X) for each row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    x0 = X[:, 0]
    if spec.id in (1, 5):
        return x0.copy()
    if spec.id in (2, 3, 4):
        return np.full(X.shape[0], 5.0)
    return 4.0 * np.abs(x0 + X[:, 1])  # spec 6


def price_sensitivity(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    """h(X) for each row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    x0 = X[:, 0]
    if spec.id in (1, 5):
        return np.full(X.shape[0], -1.0)
    if spec.id == 2:
        return -1.5 * (X @ spec.beta)
    if spec.id == 3:
        return np.where(x0 < -1, -1.2,
                        np.where(x0 < 0, -1.1, np.where(x0 < 1, -0.9, -0.8)))
    if spec.id == 4:
        base = np.where(x0 < -1, -1.25,
                        np.where(x0 < 0, -1.1, np.where(x0 < 1, -0.9, -0.75)))
        return base + np.where(X[:, 1] < 0, -0.1, 0.1)
    return -np.abs(x0 + X[:, 1])  # spec 6


def true_probability_batch(spec: SyntheticSpec, X: np.ndarray, p) -> np.ndarray:
    """Exact sale probability Phi(g(x) + h(x) * p) per row; p scalar or per-row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != spec.d:
        raise ValueError(f"spec {spec.id} expects {spec.d} features, got {X.shape[1]}")
    z = baseline_utility(spec, X) + price_sensitivity(spec, X) * np.asarray(p, dtype=np.float64)
    return standard_normal_cdf(z)


def generate(spec: SyntheticSpec, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. rows from the spec's generative model.

    Streams are fixed per role (features / prices / noise) so the draw is
    fully determined by (spec, n, seed): feature row i consumes normals
    i*d .. i*d+d-1 of the feature substream, row-major.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    root = CounterRng(seed)
    X = root.substream(_STREAM_FEATURES).normals((n, spec.d))
    if spec.id in (1, 5):
        X += 5.0
    z_price = root.substream(_STREAM_PRICES).normals(n)
    if spec.id == 1:
        P = 5.0 + z_price                      # N(5, 1)
    elif spec.id == 2:
        P = math.sqrt(2.0) * z_price           # N(0, 2)
    elif spec.id == 5:
        # confounded prices centered at the valuation level; with features
        # already shifted to N(5, I) the +5 offset would double-shift and
        # price everything out of the market
        P = X[:, 0] + math.sqrt(2.0) * z_price  # N(X0, 2)
    else:
        P = X[:, 0] + 5.0 + math.sqrt(2.0) * z_price  # N(X0 + 5, 2)
    eps = root.substream(_STREAM_NOISE).normals(n)
    latent = baseline_utility(spec, X) + price_sensitivity(spec, X) * P + eps
    y = (latent > 0.0).astype(np.int64)
    names = tuple(f"x{i}" for i in range(spec.d))
    X.flags.writeable = False  # handed to the Dataset, which keeps it uncopied
    return Dataset(X, P, y, names)


def oracle_optimal_batch(spec: SyntheticSpec, X: np.ndarray,
                         grid: PriceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-row grid price maximizing p * Phi(g + h p); ties go to the lowest price."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    g = baseline_utility(spec, X)[:, None]
    h = price_sensitivity(spec, X)[:, None]
    rev = grid.prices[None, :] * standard_normal_cdf(g + h * grid.prices[None, :])
    best = np.argmax(rev, axis=1)
    return grid.prices[best], rev[np.arange(X.shape[0]), best]


def fine_price_grid(lo: float, hi: float, n_points: int = 1000) -> PriceGrid:
    """Equispaced dense grid approximating the continuous price optimum."""
    if not (hi > lo):
        raise ValueError("fine grid needs hi > lo")
    return PriceGrid(np.linspace(lo, hi, n_points))


class OraclePolicy:
    """Pointwise ground-truth-optimal pricing restricted to a grid."""

    def __init__(self, spec: SyntheticSpec, grid: PriceGrid):
        self.spec = spec
        self.grid = grid

    def prescribe(self, X: np.ndarray) -> np.ndarray:
        return oracle_optimal_batch(self.spec, X, self.grid)[0]


def oracle_teacher(spec: SyntheticSpec) -> OracleTeacher:
    """Teacher wrapper exposing the exact sale probability of a spec."""
    return OracleTeacher(lambda X, p: true_probability_batch(spec, X, p), spec.d)
