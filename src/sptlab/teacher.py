"""Teacher models of the sale probability f(x, p). Students see a teacher only
through P[i, k] = f(x_i, p_k) over a price grid (``probability_matrix``) and
the revenue matrix r[i, k] = p_k P[i, k] (``revenue_matrix``)."""

from __future__ import annotations

import abc
import csv
from dataclasses import dataclass, fields

import numpy as np

from . import boosting
from .dataset import DataError, Dataset, PriceGrid, open_text


@dataclass(frozen=True)
class GbtConfig:
    """Boosting hyperparameters; defaults mirror common library defaults."""

    rounds: int = 50
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_child_samples: int = 20

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")


# GbtConfig's option types by name, for a plan's "gbt" and ``--teacher gbt:k=v``
GBT_OPTION_KINDS = {f.name: type(f.default) for f in fields(GbtConfig)}


class TeacherModel(abc.ABC):
    """Deterministic estimator of the sale probability at (features, price)."""

    n_features: int

    @abc.abstractmethod
    def predict_proba_batch(self, X: np.ndarray, p) -> np.ndarray:
        """Probabilities for rows of X at price p (scalar or per-row vector)."""

    def _check_dim(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}")
        return X


class GradientBoostedTeacher(TeacherModel):
    """Boosted-tree demand model; price enters as an extra numeric feature."""

    def __init__(self, booster: boosting.BoostedTrees):
        self.booster = booster
        self.n_features = booster.n_features - 1

    def predict_proba_batch(self, X, p):
        X = self._check_dim(X)
        pcol = np.broadcast_to(np.asarray(p, dtype=np.float64), (X.shape[0],))
        aug = np.column_stack([X, pcol])
        return self.booster.predict_proba(aug)

    def save(self, path) -> None:
        boosting.save_boosted_trees(self.booster, path)

    @classmethod
    def load(cls, path) -> "GradientBoostedTeacher":
        return cls(boosting.load_boosted_trees(path))


class OracleTeacher(TeacherModel):
    """Wraps an exact probability function, e.g. a synthetic world's truth."""

    def __init__(self, prob_fn, n_features: int):
        self._prob_fn = prob_fn
        self.n_features = n_features

    def predict_proba_batch(self, X, p):
        X = self._check_dim(X)
        out = np.asarray(self._prob_fn(X, p), dtype=np.float64)
        return np.broadcast_to(out, (X.shape[0],)).copy()


class TableTeacher(TeacherModel):
    """Probability table over the rows of one dataset and a fixed price grid.

    Row i of the table answers for row i of a query, whatever that row's
    features: a query must have the table's row count, and its prices must
    be members of the grid.
    """

    def __init__(self, probs: np.ndarray, grid: PriceGrid):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise DataError("table teacher needs a 2-D probability matrix")
        if probs.shape[1] != grid.m:
            raise DataError(
                f"table has {probs.shape[1]} columns but grid has {grid.m} prices")
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
            raise DataError("table probabilities must lie in [0, 1]")
        self.probs = probs
        self.grid = grid

    def predict_proba_batch(self, X, p):
        n = self.probs.shape[0]
        rows = len(np.atleast_2d(X))
        if rows != n:
            raise ValueError(f"table teacher has {n} rows, the query has {rows}")
        pvec = np.broadcast_to(np.asarray(p, dtype=np.float64), (n,))
        # the first grid price within 1e-12 of each row's price
        hits = np.isclose(self.grid.prices, pvec[:, None], rtol=1e-12, atol=1e-12)
        cols = hits.argmax(axis=1)
        off = ~hits.any(axis=1)
        if off.any():
            raise ValueError(f"price {pvec[off][0]} is not on the table teacher's grid")
        return self.probs[np.arange(n), cols]


@dataclass(frozen=True)
class RevenueMatrix:
    """Precomputed r[i, k] = p_k * f(x_i, p_k); the student's sole model input."""

    values: np.ndarray
    grid: PriceGrid

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.grid.m:
            raise DataError("revenue matrix must be n x m with m = grid size")
        if not np.all(np.isfinite(v)):
            raise DataError("revenue matrix entries must be finite")
        lo = np.minimum(0.0, self.grid.prices)
        hi = np.maximum(0.0, self.grid.prices)
        if np.any(v < lo - 1e-9) or np.any(v > hi + 1e-9):
            raise DataError("revenue entries must lie between 0 and the grid price")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def fit_gbt(train: Dataset, config: GbtConfig = GbtConfig()) -> GradientBoostedTeacher:
    """Fit the boosted teacher on (x, p) -> y with price as the last feature."""
    if train.n < 2:
        raise DataError("teacher training needs at least 2 rows")
    if train.outcomes.min() == train.outcomes.max():
        raise DataError("teacher training data must contain both outcome classes")
    aug = np.vstack([train.features.T, train.prices]).T  # F-order: the fit's columns
    booster = boosting.fit_boosted_trees(
        aug, train.outcomes,
        rounds=config.rounds, learning_rate=config.learning_rate,
        max_leaves=config.max_leaves, min_child_samples=config.min_child_samples)
    return GradientBoostedTeacher(booster)


def probability_matrix(model: TeacherModel, features: np.ndarray,
                       grid: PriceGrid) -> np.ndarray:
    """P[i, k] = f(x_i, p_k) over the whole grid, C-contiguous n x m.

    The boosted teacher routes each row down each tree once per range of
    grid prices (``BoostedTrees.predict_proba_grid``); each entry adds the
    same numbers in the same order as ``predict_proba_batch`` at its price,
    so the bits match the per-price columns. Other teachers are queried one
    price at a time, since numpy does not promise identical bits for
    transcendental ufuncs evaluated over a broadcast array.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if isinstance(model, GradientBoostedTeacher):
        X = model._check_dim(X)
        return np.ascontiguousarray(model.booster.predict_proba_grid(X, grid.prices).T)
    return np.column_stack(
        [model.predict_proba_batch(X, float(p)) for p in grid.prices])


def revenue_matrix(probs: np.ndarray, grid: PriceGrid) -> RevenueMatrix:
    """r[i, k] = p_k * P[i, k] from the teacher's probabilities
    ``probs = probability_matrix(model, features, grid)``."""
    return RevenueMatrix(grid.prices * probs, grid)


def average_ranks(x) -> np.ndarray:
    """1-based ranks of the values of ``x``, each tie sharing the mean of its
    ranks, and all NaN when a value is NaN: the bits of
    ``scipy.stats.rankdata(x)``. sptlab does not import scipy.stats, which
    would more than double the start-up of every CLI command."""
    x = np.ravel(np.asarray(x, dtype=np.float64))
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x)
    xs = x[order]
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])  # first of each value
    count = np.diff(start, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(start + 1 + (count - 1) / 2, count)
    return ranks


def auc(model: TeacherModel, test: Dataset) -> float:
    """Mann-Whitney AUC of predicted probabilities at observed prices; ties 0.5."""
    y = test.outcomes
    if y.min() == y.max():
        raise DataError("AUC needs both classes in the test set")
    scores = model.predict_proba_batch(test.features, test.prices)
    ranks = average_ranks(scores)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def load_table_teacher(path, grid: PriceGrid) -> TableTeacher:
    """Read an n x m probability matrix (CSV, no header) aligned to the grid;
    a cell that is no number raises a DataError naming the path and line,
    any other fault a DataError naming the path."""
    rows = []
    with open_text(path) as f:
        reader = csv.reader(f)
        for row in (row for row in reader if row):
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty table teacher file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows in table teacher file")
    try:
        return TableTeacher(np.asarray(rows), grid)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


class TeacherGridPolicy:
    """Full teacher personalization: per row, the grid price maximizing p * f(x, p)."""

    def __init__(self, model: TeacherModel, grid: PriceGrid):
        self.model = model
        self.grid = grid

    def prescribe(self, X: np.ndarray) -> np.ndarray:
        rm = revenue_matrix(probability_matrix(self.model, X, self.grid), self.grid)
        return self.grid.prices[np.argmax(rm.values, axis=1)]

    def predict_price(self, x) -> float:
        return float(self.prescribe(np.atleast_2d(x))[0])
