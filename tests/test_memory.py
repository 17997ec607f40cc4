"""Peak memory of the policy-tree fits, of the constant-price comparator, of
sample generation and of loading a dataset CSV, traced by tracemalloc on the
d=20 world.

A fit holds one column-major copy of its features, one order buffer of the
same size (an int64 per feature and row) that its splits partition in
place, the criterion's per-row statistics and the sweep's block of them.
The bound allows one more copy of the features and of the statistics for
the row index arrays and block-sized buffers; a second order matrix per
split or a second copy of the features breaks it.
"""

import tracemalloc

import pytest

from sptlab import rng
from sptlab.baselines import (constant_price_policy, fit_ct_one_vs_all,
                              fit_naive_distill, fit_pt)
from sptlab.dataset import load_csv, percentile_grid, write_csv
from sptlab.spt import FitConfig, fit_spt
from sptlab.synth import generate, make_spec, oracle_teacher
from sptlab.teacher import probability_matrix, revenue_matrix

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


@pytest.mark.parametrize("method", ["spt", "pt", "naive", "ct"])
def test_fit_peak_holds_one_copy_of_each_input(world, method):
    data, grid, probs, revmat = world
    config = FitConfig(max_depth=3)
    fit, rows, width = {  # rows and statistics per row of the criterion
        "spt": (lambda: fit_spt(data.features, revmat, config), N, grid.m),
        "pt": (lambda: fit_pt(data, grid, config), N, 2 * grid.m),
        "naive": (lambda: fit_naive_distill(data.features, probs, grid, config),
                  N, grid.m + 2),
        "ct": (lambda: fit_ct_one_vs_all(data, grid, config, 0), N // 2, 4),
    }[method]
    features, stats = data.features.nbytes, 8 * rows * width
    assert _peak(fit) <= 3 * features + 3 * stats


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
