"""Peak memory of the policy-tree fits, of the constant-price comparator, of
sample generation and of writing and loading a dataset CSV, traced by
tracemalloc on the d=20 world.

A fit reads its features through the transpose of the caller's C-order
array, with no copy, and copies only its tied columns. It holds one order
buffer the size of the features (an int64 per feature and row) that its
splits partition in place, the criterion's per-row statistics and the
sweep's block of them. The first bound allows one more copy of the
features and of the statistics for the row index arrays and block-sized
buffers; a second order matrix per split or a second copy of the features
breaks it. The second allows the order buffer, one copy of the statistics
and of the features beside it and 64 bytes a row, which a column-major
copy of all the features beside the order buffer breaks.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sptlab import baselines, rng
from sptlab.baselines import (constant_price_policy, fit_ct_one_vs_all,
                              fit_naive_distill, fit_pt)
from sptlab.dataset import load_csv, percentile_grid, write_csv
from sptlab.spt import FitConfig, SweepWorkspace, fit_spt
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import probability_matrix, revenue_matrix
from sptlab.tree import presort

N = 20000


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def world():
    spec = make_spec(2)
    data = generate(spec, N, 0)
    grid = percentile_grid(data.prices)
    probs = probability_matrix(oracle_teacher(spec), data.features, grid)
    return data, grid, probs, revenue_matrix(probs, grid)


# A ct fit of this size spreads its trees over forked processes where two
# CPUs are usable, and tracemalloc sees only the parent's; "ct_one_process"
# fits all m trees in the traced process.
FIT_METHODS = ["spt", "pt", "naive", "ct", "ct_one_process"]


def _fit_case(world, method, monkeypatch):
    """(fit, rows, statistics per row) of a depth-3 fit of ``method``."""
    data, grid, probs, revmat = world
    config = FitConfig(max_depth=3)
    if method == "ct_one_process":
        monkeypatch.setattr(baselines, "_FORK_MIN_CELLS", math.inf)
    return {
        "spt": (lambda: fit_spt(data.features, revmat, config), N, grid.m),
        "pt": (lambda: fit_pt(data, grid, config), N, 2 * grid.m),
        "naive": (lambda: fit_naive_distill(data.features, probs, grid, config),
                  N, grid.m + 2),
        "ct": (lambda: fit_ct_one_vs_all(data, grid, config, 0), N // 2, 4),
    }[method.removesuffix("_one_process")]


@pytest.mark.parametrize("method", FIT_METHODS)
def test_fit_peak_holds_one_copy_of_each_input(world, method, monkeypatch):
    fit, rows, width = _fit_case(world, method, monkeypatch)
    features, stats = world[0].features.nbytes, 8 * rows * width
    assert _peak(fit) <= 3 * features + 3 * stats


@pytest.mark.parametrize("method", FIT_METHODS)
def test_fit_peak_makes_no_copy_of_the_features(world, method, monkeypatch):
    """A fit that copies its (n, d) features into a column-major block
    (3.2 MB at N=20000) breaks this bound for every method."""
    fit, rows, width = _fit_case(world, method, monkeypatch)
    features, stats = world[0].features.nbytes, 8 * rows * width
    assert _peak(fit) <= 2 * features + 2 * stats + 64 * rows


def test_workspace_copies_only_the_tied_columns():
    """The workspace reads C-order features in place, sorts the fit's rows
    and copies each tied column into a contiguous vector."""
    rng = np.random.default_rng(0)
    X = rng.random((500, 6))
    X[:, [1, 4]] = np.round(X[:, [1, 4]], 1)  # ten levels: tied columns
    rows = np.arange(X.shape[0])
    ws = SweepWorkspace(X, rows, 3)
    assert np.shares_memory(ws.columns, X)
    orders, untied = presort(ws.columns, rows)
    np.testing.assert_array_equal(ws.orders, orders)
    np.testing.assert_array_equal(ws.untied, untied)
    assert list(np.flatnonzero(~ws.untied)) == [1, 4]
    assert sorted(ws.tied_columns) == [1, 4]
    for j, column in ws.tied_columns.items():
        assert column.flags.c_contiguous and not np.shares_memory(column, X)
        np.testing.assert_array_equal(column, X[:, j])


def test_write_csv_peak_is_a_block_of_rows(tmp_path):
    """At 50k rows and d=20, formatting 8192 rows at once took 12.9 MB."""
    data = generate(make_spec(2), 50000, 0)
    assert _peak(lambda: write_csv(data, tmp_path / "data.csv")) <= 4 * 2**20


def test_generate_peak_is_the_sample_and_a_block_of_draws():
    """At 50k rows a second copy of the features (8 MB) breaks the bound."""
    spec, n = make_spec(2), 50000
    peak = _peak(lambda: generate(spec, n, 0))
    assert peak <= 8 * n * spec.d + 64 * n + 64 * rng._DRAW_BLOCK


def test_constant_price_peak_is_not_a_copy_of_the_matrix(world):
    """Summing a gathered copy of the (n, m) matrix takes its 1.4 MB."""
    revmat = world[3]
    assert _peak(lambda: constant_price_policy(revmat)) < revmat.values.nbytes // 10


def test_load_csv_peak_is_the_table_and_one_copy_of_its_features(world, tmp_path):
    """The parse table, the features gathered once in C order and a few
    per-row columns; an F-order gather copied again into C order breaks it."""
    data = world[0]
    path = tmp_path / "data.csv"
    write_csv(data, path)
    peak = _peak(lambda: load_csv(path))
    assert peak <= 8 * N * (data.d + 2) + data.features.nbytes + 64 * N


def test_load_csv_of_unchanged_bytes_holds_under_a_mebibyte(world, tmp_path):
    """A second read of the same bytes hashes the file and returns the
    Dataset it parsed before: no table, no features."""
    path = tmp_path / "data.csv"
    write_csv(world[0], path)
    first = load_csv(path)
    loaded = []
    peak = _peak(lambda: loaded.append(load_csv(path)))
    assert loaded[0] is first
    assert peak < 1 << 20
