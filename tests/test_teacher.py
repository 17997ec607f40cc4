import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptlab import boosting
from sptlab import teacher as teacher_module
from sptlab.dataset import DataError, Dataset, PriceGrid
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import (GbtConfig, GradientBoostedTeacher, OracleTeacher,
                            RevenueMatrix, auc, fit_gbt, load_table_teacher,
                            probability_matrix, revenue_matrix)
from sptlab.tree import SplitNode, presort


def erf_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def separable_dataset(n=200):
    """Sold iff price < 5; prices interleaved around the threshold."""
    rng = np.random.default_rng(1)
    prices = rng.uniform(2.0, 8.0, n)
    x = rng.normal(size=(n, 1))
    return Dataset(x, prices, (prices < 5.0).astype(int), ("x0",))


def test_gbt_config_invariants():
    with pytest.raises(ValueError):
        GbtConfig(rounds=0)
    with pytest.raises(ValueError):
        GbtConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        GbtConfig(max_leaves=1)


def test_fit_gbt_separable_training_accuracy():
    data = separable_dataset()
    model = fit_gbt(data, GbtConfig(rounds=50, min_child_samples=5))
    probs = model.predict_proba_batch(data.features, data.prices)
    assert np.all((probs > 0.5) == (data.outcomes == 1))


def test_fit_gbt_zero_learning_limit_is_base_rate():
    data = separable_dataset()
    model = fit_gbt(data, GbtConfig(rounds=1, learning_rate=1e-9))
    probs = model.predict_proba_batch(data.features, data.prices)
    np.testing.assert_allclose(probs, data.outcomes.mean(), atol=1e-6)


def test_fit_gbt_beats_base_rate_log_loss():
    spec = make_spec(1)
    train = generate(spec, 5000, 0)
    test = generate(spec, 2000, 1)
    model = fit_gbt(train)
    p = np.clip(model.predict_proba_batch(test.features, test.prices), 1e-12, 1 - 1e-12)
    y = test.outcomes
    model_ll = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    base = np.clip(train.outcomes.mean(), 1e-12, 1 - 1e-12)
    base_ll = -np.mean(y * np.log(base) + (1 - y) * np.log(1 - base))
    assert model_ll < base_ll


def test_fit_gbt_rejects_single_class():
    data = Dataset(np.zeros((5, 1)), np.ones(5), np.ones(5, dtype=int), ("x0",))
    with pytest.raises(DataError):
        fit_gbt(data)


def test_prefix_stability():
    data = separable_dataset(300)
    short = fit_gbt(data, GbtConfig(rounds=5))
    long = fit_gbt(data, GbtConfig(rounds=10))
    aug = np.column_stack([data.features, data.prices])
    np.testing.assert_array_equal(
        short.predict_proba_batch(data.features, data.prices),
        long.booster.predict_proba(aug, 5))


def test_gbt_save_load_round_trip(tmp_path):
    data = separable_dataset(300)
    model = fit_gbt(data, GbtConfig(rounds=8))
    path = tmp_path / "model.txt"
    model.save(path)
    loaded = GradientBoostedTeacher.load(path)
    np.testing.assert_array_equal(
        model.predict_proba_batch(data.features, data.prices),
        loaded.predict_proba_batch(data.features, data.prices))


# Recorded from the per-node argsort grower; the presorted grower must
# write the same bytes.
GBT_PIN_SHA256 = "2a9a1d95cd77efe531a1ef7fe42988236aa3923df910c129471b559639900c98"


def test_gbt_file_bytes_pinned(tmp_path):
    data = generate(make_spec(4), 600, 0)
    model = fit_gbt(data, GbtConfig(rounds=12, min_child_samples=5))
    path = tmp_path / "model.txt"
    model.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GBT_PIN_SHA256


@pytest.mark.parametrize("cells", [1, 1200])  # 1 and 2 features per chunk at the root
def test_gbt_file_bytes_pinned_in_feature_chunks(tmp_path, monkeypatch, cells):
    monkeypatch.setattr(boosting, "_SPLIT_CELLS", cells)
    test_gbt_file_bytes_pinned(tmp_path)


def test_gbt_file_bytes_same_for_every_chunk_size(tmp_path, monkeypatch):
    """d + 1 = 21 columns: chunks of 1, 2 and 20 features at the root (the
    last leaves a chunk of one), and the whole node at once."""
    data = generate(make_spec(2), 400, 0)
    texts = []
    for cells in (1, 800, 8000, 10**9):
        monkeypatch.setattr(boosting, "_SPLIT_CELLS", cells)
        path = tmp_path / f"model{cells}.txt"
        fit_gbt(data, GbtConfig(rounds=4, min_child_samples=5)).save(path)
        texts.append(path.read_bytes())
    assert all(t == texts[0] for t in texts)


def _ref_best_split(X, g, h, rows, orders, min_child, l2):
    """The per-feature split search the whole-node search replaced."""
    n = rows.size
    if n < 2 * min_child:
        return None
    G, H = g[rows].sum(), h[rows].sum()
    parent = G * G / (H + l2)
    best = None
    for j in range(X.shape[1]):
        order = orders[j]
        xs = X[order, j]
        bnd = np.nonzero(xs[:-1] < xs[1:])[0]
        if bnd.size == 0:
            continue
        n_left = bnd + 1
        ok = (n_left >= min_child) & (n - n_left >= min_child)
        bnd = bnd[ok]
        if bnd.size == 0:
            continue
        gc = np.cumsum(g[order])[bnd]
        hc = np.cumsum(h[order])[bnd]
        gains = gc * gc / (hc + l2) + (G - gc) ** 2 / (H - hc + l2) - parent
        i = int(np.argmax(gains))
        if gains[i] > boosting._EPS_GAIN and (best is None or gains[i] > best[0]):
            best = (float(gains[i]), j, float(xs[bnd[i]]))
    return best


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 50), st.integers(1, 5), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32 - 1), st.integers(0, 5), st.sampled_from([1, 2, 3, 0]),
       st.booleans(), st.sampled_from([1.0, 0.0]))
def test_best_split_matches_per_feature_reference(n_all, d, levels, copy, seed,
                                                  child, per_chunk, mixed, l2):
    """Tie-heavy integer features (and, with ``copy``, a last feature equal
    to the first, so every gain ties across features), dyadic gradients that
    sum exactly, random row subsets, ``min_child`` at the ``2 * min_child``
    edge and 1, 2, 3 or all features per chunk. With ``mixed`` every other
    feature has distinct values, so a chunk mixes tied and untied columns;
    the flags are those of all the rows, as a fit's are. With ``l2`` 0 the
    rows with g = h = 0 make 0/0 gains, NaN: each drops only its own
    feature, as in the per-feature search."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n_all, d)).astype(np.float64)
    if mixed:
        X[:, ::2] = rng.permutation(n_all * d).reshape(n_all, d)[:, ::2]
    if copy:
        X[:, -1] = X[:, 0]
    g = rng.integers(-4, 5, n_all) / 4.0
    h = rng.integers(1, 5, n_all) / 4.0
    if l2 == 0.0:  # rows fitted exactly: the sums over a run of them are 0/0
        g[rng.random(n_all) < 0.5] = 0.0
        h[g == 0.0] = 0.0
    rows = np.flatnonzero(rng.random(n_all) < 0.7)
    n = rows.size
    min_child = (0, 1, n // 2, (n + 1) // 2, n // 2 + 1, 2)[child]
    orders, _ = presort(X.T, rows)
    _, untied = presort(X.T, np.arange(n_all))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _ref_best_split(X, g, h, rows, orders, min_child, l2)
        old = boosting._SPLIT_CELLS
        boosting._SPLIT_CELLS = per_chunk * max(n, 1) if per_chunk else old
        try:
            got = boosting._best_split(np.ascontiguousarray(X.T), g + 1j * h,
                                       orders, untied, g[rows].sum(),
                                       h[rows].sum(), min_child, l2)
        finally:
            boosting._SPLIT_CELLS = old
    assert got == want


def test_best_split_memory_is_bounded_by_the_chunk_cap():
    """41 features x 6000 rows would take about 12 MB searched at once."""
    rng = np.random.default_rng(5)
    n, d = 6000, 41
    X = np.round(rng.normal(size=(n, d)), 2)
    g, h = rng.normal(size=n), rng.uniform(size=n)
    columns, gh = np.ascontiguousarray(X.T), g + 1j * h
    orders, untied = presort(columns, np.arange(n))
    tracemalloc.start()
    try:
        got = boosting._best_split(columns, gh, orders, untied, g.sum(), h.sum(),
                                   20, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is not None
    assert peak <= 80 * max(boosting._SPLIT_CELLS, n)


def _saved_model_lines(tmp_path):
    data = generate(make_spec(4), 300, 0)
    path = tmp_path / "model.txt"
    fit_gbt(data, GbtConfig(rounds=3, min_child_samples=5)).save(path)
    return path, path.read_text().splitlines()


def _load_error(path, lines):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as exc:
        GradientBoostedTeacher.load(path)
    return str(exc.value)


def test_gbt_load_rejects_child_pointing_to_root(tmp_path):
    path, lines = _saved_model_lines(tmp_path)
    assert lines[6].startswith("0 split ")
    parts = lines[6].split()
    lines[6] = " ".join(parts[:4] + ["0", parts[5]])  # left child is the root
    message = _load_error(path, lines)
    assert message.startswith(f"{path} line 6: tree 0:")
    assert "repeated" in message


def test_gbt_load_rejects_child_out_of_range(tmp_path):
    path, lines = _saved_model_lines(tmp_path)
    n_nodes = int(lines[5].split()[2])
    parts = lines[6].split()
    lines[6] = " ".join(parts[:5] + [str(n_nodes + 4)])
    message = _load_error(path, lines)
    assert message == (f"{path} line 7: child id {n_nodes + 4} outside "
                       f"0..{n_nodes - 1}")


def test_gbt_load_rejects_truncated_file(tmp_path):
    path, lines = _saved_model_lines(tmp_path)
    message = _load_error(path, lines[:-3])
    assert message.startswith(f"{path} line ")
    assert "node lines" in message
    message = _load_error(path, lines[:3])
    assert message == f"{path} line 4: expected 'n_features <int>', got the end of the file"


def test_gbt_load_rejects_bad_lines(tmp_path):
    path, lines = _saved_model_lines(tmp_path)
    bad_value = lines[:2] + ["learning_rate fast"] + lines[3:]
    assert _load_error(path, bad_value) == \
        f"{path} line 3: expected 'learning_rate <float>', got 'learning_rate fast'"
    leaf = next(i for i, ln in enumerate(lines) if " leaf " in ln)
    repeated = lines[:leaf] + ["0" + lines[leaf][lines[leaf].index(" "):]] + lines[leaf + 1:]
    assert "id 0 is repeated" in _load_error(path, repeated)
    parts = lines[6].split()
    bad_feature = lines[:6] + [" ".join(parts[:2] + ["9"] + parts[3:])] + lines[7:]
    assert _load_error(path, bad_feature) == \
        f"{path} line 7: split feature 9 out of range for 3 feature names"


def test_gbt_load_rejects_non_finite_threshold(tmp_path):
    path, lines = _saved_model_lines(tmp_path)
    parts = lines[6].split()
    lines[6] = " ".join(parts[:3] + ["nan"] + parts[4:])
    assert _load_error(path, lines) == \
        f"{path} line 7: split threshold nan is not finite"


def test_fit_training_margin_equals_predict_margin(monkeypatch):
    """The margin the fit updates from each tree's leaf partition equals
    the ensemble's predict_margin on the training rows, bit for bit."""
    seen = []
    real_expit = boosting.expit

    def spy(margin):
        seen.append((margin, margin.copy()))
        return real_expit(margin)

    monkeypatch.setattr(boosting, "expit", spy)
    data = generate(make_spec(4), 600, 0)
    X = np.column_stack([data.features, data.prices])
    model = boosting.fit_boosted_trees(X, data.outcomes, rounds=12,
                                       min_child_samples=5)
    assert len(seen) == 12
    final = seen[0][0]  # the fit's one margin array, updated in place
    assert all(margin is final for margin, _ in seen)
    for t, (_, before_round) in enumerate(seen):
        assert before_round.tobytes() == model.predict_margin(X, t).tobytes()
    assert final.tobytes() == model.predict_margin(X).tobytes()


def test_oracle_teacher_examples():
    spec = make_spec(1)
    t = oracle_teacher(spec)
    assert t.predict_proba_batch([5.0, 0.0], 5.0).tolist() == [0.5]
    assert t.predict_proba_batch([5.0, 0.0], 1e6)[0] < 1e-15
    with pytest.raises(ValueError):
        t.predict_proba_batch([5.0], 5.0)


def test_table_teacher_lookup(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0.1,0.2,0.25\n0.5,0.6,0.7\n")
    grid = PriceGrid(np.asarray([1.0, 2.0, 3.0]))
    t = load_table_teacher(f, grid)
    X = np.asarray([[7.5, -1.0], [3.0, 0.5]])  # features play no part
    assert t.predict_proba_batch(X, 3.0).tolist() == [0.25, 0.7]
    assert t.predict_proba_batch(X, [3.0, 1.0]).tolist() == [0.25, 0.5]
    with pytest.raises(ValueError, match="not on the table teacher's grid"):
        t.predict_proba_batch(X, [3.0, 2.5])  # off-grid price
    with pytest.raises(ValueError, match="table teacher has 2 rows, the query has 1"):
        t.predict_proba_batch(X[:1], 1.0)  # row count differs from the table's


def test_table_teacher_validation(tmp_path):
    grid2 = PriceGrid(np.asarray([1.0, 2.0]))
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,1.2\n")
    with pytest.raises(DataError):
        load_table_teacher(bad, grid2)
    shape = tmp_path / "shape.csv"
    shape.write_text("0.1,0.2,0.3\n0.1,0.2,0.3\n")
    with pytest.raises(DataError):
        load_table_teacher(shape, grid2)


def test_table_teacher_single_column(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0.3\n0.7\n")
    t = load_table_teacher(f, PriceGrid(np.asarray([5.0])))
    assert t.predict_proba_batch(np.zeros((2, 3)), 5.0).tolist() == [0.3, 0.7]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_query_reads_row_i_at_the_grid_column(data):
    """Row i of a query reads row i of the table at the grid column of its
    price, for grid prices and prices a few ulps off them; an off-grid
    price or another row count raises a ValueError."""
    n = data.draw(st.integers(1, 8))
    cents = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5,
                               unique=True))
    grid = PriceGrid(np.sort(np.asarray(cents)) / 100.0)
    probs = np.asarray(data.draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=grid.m, max_size=grid.m),
        min_size=n, max_size=n)))
    table = teacher_module.TableTeacher(probs, grid)
    X = np.asarray(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    k = np.asarray(data.draw(st.lists(st.integers(0, grid.m - 1),
                                      min_size=n, max_size=n)))
    ulps = np.asarray(data.draw(st.lists(st.integers(-1000, 1000),
                                         min_size=n, max_size=n)))
    on_grid = grid.prices[k]
    near = on_grid + ulps * np.spacing(on_grid)  # within rtol = 1e-12
    expect = probs[np.arange(n), k]
    assert table.predict_proba_batch(X[:, None], on_grid).tobytes() == expect.tobytes()
    assert table.predict_proba_batch(X[:, None], near).tobytes() == expect.tobytes()
    assert (table.predict_proba_batch(X[:, None], float(on_grid[0])).tobytes()
            == probs[:, k[0]].tobytes())

    off = on_grid.copy()
    off[data.draw(st.integers(0, n - 1))] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="not on the table teacher's grid"):
        table.predict_proba_batch(X[:, None], off)
    rows = data.draw(st.sampled_from([n - 1, n + 1]))
    with pytest.raises(ValueError, match=f"table teacher has {n} rows"):
        table.predict_proba_batch(np.zeros((rows, 1)), on_grid[0])


# --- revenue matrix ------------------------------------------------------------

def test_revenue_matrix_constant_half():
    t = OracleTeacher(lambda X, p: np.full(np.atleast_2d(X).shape[0], 0.5), 1)
    grid = PriceGrid(np.asarray([4.0]))
    rm = revenue_matrix(probability_matrix(t, np.zeros((3, 1)), grid), grid)
    np.testing.assert_array_equal(rm.values, np.full((3, 1), 2.0))


def test_revenue_matrix_zero_teacher():
    t = OracleTeacher(lambda X, p: np.zeros(np.atleast_2d(X).shape[0]), 1)
    grid = PriceGrid(np.asarray([1.0, 2.0]))
    rm = revenue_matrix(probability_matrix(t, np.zeros((2, 1)), grid), grid)
    assert rm.values.max() == 0.0


def test_revenue_matrix_oracle_dataset1():
    # frozen expected values computed with the independent erf oracle:
    # 4*Phi(1), 5*Phi(0), 6*Phi(-1)
    expected = [4.0 * erf_cdf(1.0), 5.0 * erf_cdf(0.0), 6.0 * erf_cdf(-1.0)]
    assert expected[0] == pytest.approx(3.3654, abs=5e-5)
    assert expected[1] == 2.5
    assert expected[2] == pytest.approx(0.9519, abs=5e-5)
    t = oracle_teacher(make_spec(1))
    grid = PriceGrid(np.asarray([4.0, 5.0, 6.0]))
    rm = revenue_matrix(probability_matrix(t, np.asarray([[5.0, 0.0]]), grid), grid)
    np.testing.assert_allclose(rm.values[0], expected, atol=1e-12)


def test_revenue_matrix_recomputation_bit_identical():
    spec = make_spec(4)
    data = generate(spec, 500, 3)
    grid = PriceGrid(np.percentile(data.prices, [20, 50, 80]))
    model = fit_gbt(data, GbtConfig(rounds=10))
    a = revenue_matrix(probability_matrix(model, data.features, grid), grid)
    b = revenue_matrix(probability_matrix(model, data.features, grid), grid)
    assert np.array_equal(a.values, b.values)


def per_price_columns(model, X, grid):
    return np.column_stack([model.predict_proba_batch(X, float(p))
                            for p in grid.prices])


@pytest.mark.parametrize("n_rows", [None, 800, 1])
def test_probability_matrix_stacked_gbt_pass_matches_per_price_columns(n_rows):
    """The (m x n) pass over the grid, on all 1000 query rows, 800 or one."""
    data = generate(make_spec(2), 400, 5)
    grid = PriceGrid(np.percentile(data.prices, [10, 30, 50, 70, 90]))
    model = fit_gbt(data, GbtConfig(rounds=8))
    X = generate(make_spec(2), 1000, 6).features[:n_rows]
    probs = probability_matrix(model, X, grid)
    cols = per_price_columns(model, X, grid)
    assert probs.flags.c_contiguous
    assert np.array_equal(probs, cols)
    rm = revenue_matrix(probs, grid)
    assert np.array_equal(rm.values, grid.prices * cols)


@functools.cache
def routed_world():
    """A small boosted teacher, its data and its price thresholds."""
    data = generate(make_spec(4), 300, 11)
    model = fit_gbt(data, GbtConfig(rounds=6, min_child_samples=5))
    thresholds = sorted({node.threshold for tree in model.booster.trees
                         for node in tree.nodes
                         if isinstance(node, SplitNode) and node.feature == data.d})
    return data, model, np.asarray(thresholds)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_probability_matrix_routed_gbt_pass_is_bitwise_per_price(draw):
    """Grids across the price thresholds (with a price equal to one of them),
    wholly below or wholly above them, of one price or several."""
    data, model, thr = routed_world()
    assert thr.size >= 2
    region = draw.draw(st.sampled_from(["across", "below", "above"]))
    lo, hi = {"across": (thr[0] - 1.0, thr[-1] + 1.0),
              "below": (thr[0] - 5.0, np.nextafter(thr[0], -np.inf)),
              "above": (np.nextafter(thr[-1], np.inf), thr[-1] + 5.0)}[region]
    prices = draw.draw(st.lists(st.floats(float(lo), float(hi)),
                                min_size=0 if region == "across" else 1,
                                max_size=7))
    if region == "across":
        prices.append(draw.draw(st.sampled_from(thr.tolist())))
    grid = PriceGrid(np.unique(prices))
    rows = draw.draw(st.sampled_from([slice(None), slice(0, 1), slice(7, 40)]))
    X = data.features[rows]
    probs = probability_matrix(model, X, grid)
    assert probs.shape == (X.shape[0], grid.m) and probs.flags.c_contiguous
    assert probs.tobytes() == per_price_columns(model, X, grid).tobytes()


def test_revenue_matrix_scales_probabilities_by_price():
    grid = PriceGrid(np.asarray([1.0, 2.0]))
    probs = np.asarray([[0.5, 0.25], [1.0, 0.0]])
    rm = revenue_matrix(probs, grid)
    assert np.array_equal(rm.values, np.asarray([[0.5, 0.5], [1.0, 0.0]]))
    assert rm.grid is grid


def test_revenue_matrix_bounds_validation():
    grid = PriceGrid(np.asarray([2.0]))
    with pytest.raises(DataError):
        RevenueMatrix(np.asarray([[2.5]]), grid)  # above price * 1.0
    with pytest.raises(DataError):
        RevenueMatrix(np.asarray([[np.nan]]), grid)


# --- AUC -----------------------------------------------------------------------

class _FixedScores:
    n_features = 1

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict_proba_batch(self, X, p):
        return self.scores.copy()


def _dataset_with_labels(labels):
    n = len(labels)
    return Dataset(np.zeros((n, 1)), np.ones(n), np.asarray(labels), ("x0",))


def pair_auc_oracle(scores, labels):
    wins = 0.0
    pairs = 0
    for i, yi in enumerate(labels):
        for j, yj in enumerate(labels):
            if yi == 1 and yj == 0:
                pairs += 1
                if scores[i] > scores[j]:
                    wins += 1.0
                elif scores[i] == scores[j]:
                    wins += 0.5
    return wins / pairs


def test_auc_perfect():
    model = _FixedScores([0.9, 0.8, 0.2, 0.1])
    data = _dataset_with_labels([1, 1, 0, 0])
    assert auc(model, data) == 1.0


def test_auc_constant_scores():
    model = _FixedScores([0.4, 0.4, 0.4, 0.4])
    data = _dataset_with_labels([1, 0, 1, 0])
    assert auc(model, data) == 0.5


def test_auc_example_pair_enumeration():
    scores, labels = [0.9, 0.8, 0.3], [1, 0, 1]
    assert pair_auc_oracle(scores, labels) == 0.5
    assert auc(_FixedScores(scores), _dataset_with_labels(labels)) == 0.5


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=30)
    labels = (rng.uniform(size=30) < 0.4).astype(int)
    data = _dataset_with_labels(labels)
    base = auc(_FixedScores(scores), data)
    warped = auc(_FixedScores(np.exp(3 * scores) + 1), data)
    assert base == pytest.approx(warped, abs=1e-12)


def test_auc_single_class_error():
    with pytest.raises(DataError):
        auc(_FixedScores([0.1, 0.2]), _dataset_with_labels([1, 1]))


_RANK_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 2.0**60,
                math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_RANK_VALUES), st.floats()),
                min_size=1, max_size=60))
def test_average_ranks_bitwise_equal_to_scipy_rankdata(values):
    """Ties (with +0.0 == -0.0), infinities and the all-NaN answer to any
    NaN, as scipy's default nan_policy="propagate" gives."""
    from scipy.stats import rankdata  # the reference; sptlab never imports it

    x = np.asarray(values, dtype=np.float64)
    got, want = teacher_module.average_ranks(x), rankdata(x)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    if np.isnan(x).any():
        assert np.isnan(got).all()


def test_import_leaves_scipy_stats_out():
    """Each CLI command is a fresh interpreter, and importing scipy.stats
    would more than double its start-up."""
    code = ("import sys, sptlab, sptlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(teacher_module.__file__).parents[1]),
               os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
