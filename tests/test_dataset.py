import gc
import math
import os
import shutil
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sptlab.dataset as dataset
import sptlab.synth as synth
from sptlab.dataset import (DataError, Dataset, SaleHistory, explicit_grid,
                            filter_stores_min_sales, impute_last_at_store,
                            impute_mode_of_last_k, load_csv, load_sale_history,
                            percentile_grid, split_halves, write_csv)


def make_history(records):
    t, s, p = zip(*records)
    return SaleHistory(np.asarray(t), np.asarray(s), np.asarray(p))


# --- load_csv / write_csv ---------------------------------------------------

def test_load_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    data = load_csv(f)
    assert data.n == 2 and data.d == 1
    assert data.feature_names == ("x0",)
    np.testing.assert_array_equal(data.features.ravel(), [1.0, 2.0])
    np.testing.assert_array_equal(data.prices, [5.0, 4.0])
    np.testing.assert_array_equal(data.outcomes, [1, 0])


def test_load_csv_bad_sold_names_row(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,2\n")
    with pytest.raises(DataError, match=r":3"):
        load_csv(f)


def test_load_csv_non_numeric_names_location(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\noops,5.0,1\n")
    with pytest.raises(DataError, match=r"x0"):
        load_csv(f)


def test_load_csv_missing_columns(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,cost,sold\n1.0,5.0,1\n")
    with pytest.raises(DataError, match="price"):
        load_csv(f)


def test_csv_round_trip(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("x0,x1,price,sold\n0.25,-1.5,3.125,1\n2.0,4.25,4.5,0\n")
    data = load_csv(f)
    g = tmp_path / "b.csv"
    write_csv(data, g)
    back = load_csv(g)
    assert back.feature_names == data.feature_names
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(back.prices, data.prices)
    np.testing.assert_array_equal(back.outcomes, data.outcomes)


@pytest.mark.parametrize("rows", ["5.0,1.0,1\n4.0,2.0,0\n", "5.0,oops,1\n"])
def test_load_csv_skips_a_byte_order_mark(tmp_path, rows):
    """A spreadsheet's "CSV UTF-8" begins with a byte-order mark: the file
    loads as the plain one does, or fails with the plain one's message."""
    text = "price,x0,sold\n" + rows
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    try:
        want = load_csv(plain)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(marked)
        assert str(got.value) == str(exc).replace(str(plain), str(marked))
        return
    got = load_csv(marked)
    assert got.feature_names == want.feature_names == ("x0",)
    for a, b in ((got.features, want.features), (got.prices, want.prices),
                 (got.outcomes, want.outcomes)):
        np.testing.assert_array_equal(a, b)


def test_load_csv_reports_first_bad_row_in_file_order(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n1.0,5.0,0.5\nnope,5.0,1\n1.0,5.0\n")
    with pytest.raises(DataError, match=r"d\.csv:3: 'sold' must be 0 or 1, got '0\.5'"):
        load_csv(f)
    f.write_text("x0,price,sold\n1.0,5.0,1\n1.0\n1.0,x,1\n")
    with pytest.raises(DataError, match=r"d\.csv:3: expected 3 cells, got 1"):
        load_csv(f)
    f.write_text("x0,price,sold\n1.0,5.0,1\n1.0,x,1\n1.0\n")
    with pytest.raises(DataError,
                       match=r"d\.csv:3: non-numeric value 'x' in column 'price'"):
        load_csv(f)


@pytest.mark.parametrize("row, column", [("inf,5.0,1", "x0"), ("1.0,nan,0", "price"),
                                         ("-inf,1e400,1", "x0"), ("1.0,1e400,1", "price")])
def test_load_csv_non_finite_cell_names_path_line_and_column(tmp_path, row, column):
    f = tmp_path / "d.csv"
    f.write_text(f"x0,price,sold\n1.0,5.0,1\n{row}\n2.0,4.0,0\n")
    cell = row.split(",")[["x0", "price"].index(column)]
    with pytest.raises(DataError) as err:
        load_csv(f)
    assert str(err.value) == f"{f}:3: non-finite value {cell!r} in column '{column}'"


def test_load_csv_header_only_has_no_rows(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(f)


def test_write_csv_bytes_match_csv_writer_rows(tmp_path):
    """The bulk writer emits what csv.writer writes row by row, across
    more than one write block."""
    import csv

    rng = np.random.default_rng(3)
    n = 8192 + 5
    data = Dataset(rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-6, 6, size=(n, 2)),
                   rng.uniform(1.0, 9.0, n), rng.integers(0, 2, n), ("a", "b c"))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["a", "b c", "price", "sold"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in data.features[i]]
                            + [repr(float(data.prices[i])), str(int(data.outcomes[i]))])
    out = tmp_path / "out.csv"
    write_csv(data, out)
    assert out.read_bytes() == ref.read_bytes()
    back = load_csv(out)
    assert back.features.tobytes() == data.features.tobytes()
    assert back.prices.tobytes() == data.prices.tobytes()
    np.testing.assert_array_equal(back.outcomes, data.outcomes)


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.asarray([[1.0]]), np.asarray([np.inf]), np.asarray([1]), ("a",))
    with pytest.raises(DataError):
        Dataset(np.asarray([[1.0]]), np.asarray([1.0]), np.asarray([2]), ("a",))
    with pytest.raises(DataError):
        Dataset(np.asarray([[1.0], [2.0]]), np.asarray([1.0]), np.asarray([1]), ("a",))


def test_dataset_copies_the_callers_arrays():
    X = np.asarray([[1.0, 2.0], [3.0, 4.0]])
    p = np.asarray([5.0, 6.0])
    data = Dataset(X, p, np.asarray([1, 0]), ("a", "b"))
    assert X.flags.writeable and p.flags.writeable  # the caller's stay writeable
    X[0, 0], p[0] = -1.0, -1.0
    np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(data.prices, [5.0, 6.0])
    for a in (data.features, data.prices, data.outcomes):
        assert a.flags.owndata and not a.flags.writeable


def test_dataset_keeps_a_read_only_array_it_can_own():
    X = np.asarray([[1.0], [3.0]])
    X.flags.writeable = False
    assert Dataset(X, np.asarray([5.0, 6.0]), np.asarray([1, 0]), ("a",)).features is X
    view = np.asarray([[1.0, 0.0], [3.0, 0.0]])[:, :1]
    view.flags.writeable = False  # read-only, but its base is not
    assert Dataset(view, np.asarray([5.0, 6.0]), np.asarray([1, 0]),
                   ("a",)).features.flags.owndata


def test_loaded_dataset_owns_its_arrays(tmp_path):
    """Slices of the parse table would keep the whole table alive."""
    f = tmp_path / "d.csv"
    f.write_text("x0,price,x1,sold\n1.0,5.0,2.0,1\n2.0,4.0,3.0,0\n")
    data = load_csv(f)
    for a in (data.features, data.prices, data.outcomes):
        assert a.base is None and a.flags.c_contiguous and not a.flags.writeable
    np.testing.assert_array_equal(data.features, [[1.0, 2.0], [2.0, 3.0]])
    np.testing.assert_array_equal(data.prices, [5.0, 4.0])


def test_load_csv_repeated_column_is_an_error(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x0,x0,price,sold,price\n1.0,2.0,5.0,1,6.0\n")
    with pytest.raises(DataError) as err:
        load_csv(f)
    assert str(err.value) == f"{f}: column 'x0' appears more than once in the header"
    f.write_text("x0, price,sold,price\n1.0,5.0,1,6.0\n")  # names are stripped
    with pytest.raises(DataError, match="column 'price' appears more than once"):
        load_csv(f)


# --- load_csv's one-entry cache ----------------------------------------------

@pytest.fixture
def parses(monkeypatch):
    """Count load_csv's parses of a file (the cache starts empty)."""
    calls = []
    parse = dataset._parse_csv

    def spy(path, f, checked):
        calls.append(str(path))
        return parse(path, f, checked)

    monkeypatch.setattr(dataset, "_parse_csv", spy)
    return calls


def test_load_csv_of_unchanged_bytes_returns_the_same_dataset_unparsed(tmp_path, parses):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    first = load_csv(f)
    assert parses == [str(f)]
    assert load_csv(f) is first
    assert load_csv(str(f)) is first
    assert parses == [str(f)]


def test_load_csv_reparses_a_same_size_rewrite_with_its_old_mtime(tmp_path, parses):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    first = load_csv(f)
    stat = os.stat(f)
    f.write_text("x0,price,sold\n3.0,6.0,0\n2.0,4.0,1\n")
    os.utime(f, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(f).st_size == stat.st_size
    second = load_csv(f)
    assert len(parses) == 2 and second is not first
    np.testing.assert_array_equal(second.features.ravel(), [3.0, 2.0])
    np.testing.assert_array_equal(second.prices, [6.0, 4.0])
    np.testing.assert_array_equal(second.outcomes, [0, 1])


def test_load_csv_bad_rewrite_after_a_good_load_is_the_fresh_error(tmp_path, monkeypatch):
    f = tmp_path / "d.csv"
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    load_csv(f)
    f.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,7\n")  # the same size
    with pytest.raises(DataError) as after_good:
        load_csv(f)
    monkeypatch.setattr(dataset, "_last", None)  # as in a fresh process
    with pytest.raises(DataError) as fresh:
        load_csv(f)
    assert str(after_good.value) == str(fresh.value) == f"{f}:3: 'sold' must be 0 or 1, got '7'"
    assert dataset._last is None  # a file that fails is never kept


def test_load_csv_cache_is_keyed_by_content_not_path(tmp_path, parses):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    shutil.copyfile(a, b)
    first = load_csv(a)
    assert load_csv(b) is first
    assert parses == [str(a)]


def test_load_csv_keeps_only_the_last_dataset(tmp_path, parses):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n")
    b.write_text("x0,price,sold\n1.0,5.0,1\n")
    first = weakref.ref(load_csv(a))
    gc.collect()
    assert first() is not None  # the cache holds it
    load_csv(b)
    gc.collect()
    assert first() is None
    load_csv(a)
    assert parses == [str(a), str(b), str(a)]


def test_load_csv_missing_path_and_directory_raise_the_open_error(tmp_path):
    good = tmp_path / "d.csv"
    good.write_text("x0,price,sold\n1.0,5.0,1\n")
    load_csv(good)  # a cached entry changes no error
    for path, errno in ((tmp_path / "nope.csv", 2), (tmp_path, 21)):
        with pytest.raises(OSError) as got:
            load_csv(path)
        with pytest.raises(OSError) as want:
            open(path, encoding="utf-8")
        assert got.value.errno == errno
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"[Errno {errno}] ")


def test_load_csv_of_a_pipe_loads_and_names_a_bad_cell(tmp_path):
    """A pipe is read once, row by row: a good file loads as from a regular
    file, and a bad cell gives the regular file's located DataError."""
    good = "x0,price,sold\n1.0,5.0,1\n2.0,4.0,0\n"
    bad = "x0,price,sold\n1.0,5.0,1\n2.0,4.0,7\n"
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def through_pipe(text):
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            return load_csv(fifo)
        finally:
            writer.join()

    regular = tmp_path / "d.csv"
    regular.write_text(good)
    want = load_csv(regular)
    got = through_pipe(good)
    assert got is not want
    np.testing.assert_array_equal(got.features, want.features)
    np.testing.assert_array_equal(got.prices, want.prices)
    np.testing.assert_array_equal(got.outcomes, want.outcomes)
    assert got.feature_names == want.feature_names
    with pytest.raises(DataError) as err:
        through_pipe(bad)
    assert str(err.value) == f"{fifo}:3: 'sold' must be 0 or 1, got '7'"


# --- split_halves -----------------------------------------------------------

def two_class_dataset(n):
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 2)), rng.uniform(1, 2, n),
                   (rng.uniform(size=n) < 0.5).astype(int), ("a", "b"))


def test_split_halves_sizes_and_disjoint():
    data = two_class_dataset(4)
    a, b = split_halves(data, 0)
    assert a.n == 2 and b.n == 2
    data = two_class_dataset(101)
    a, b = split_halves(data, 0)
    assert a.n == 51 and b.n == 50


def test_split_halves_deterministic():
    data = two_class_dataset(20)
    a1, b1 = split_halves(data, 7)
    a2, b2 = split_halves(data, 7)
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.prices, b2.prices)


def test_split_halves_partition():
    data = two_class_dataset(31)
    a, b = split_halves(data, 3)
    merged = np.sort(np.concatenate([a.prices, b.prices]))
    np.testing.assert_array_equal(merged, np.sort(data.prices))


def test_split_halves_requires_two_rows():
    data = Dataset(np.asarray([[1.0]]), np.asarray([1.0]), np.asarray([1]), ("a",))
    with pytest.raises(DataError):
        split_halves(data, 0)


# --- price grids ------------------------------------------------------------

def nearest_rank_oracle(values, q):
    s = sorted(values)
    return s[math.ceil(q / 100.0 * len(values)) - 1]


def test_percentile_grid_one_to_ten():
    prices = np.arange(1.0, 11.0)
    grid = percentile_grid(prices)
    expected = sorted({nearest_rank_oracle(prices, q) for q in range(10, 100, 10)})
    np.testing.assert_array_equal(grid.prices, expected)
    np.testing.assert_array_equal(grid.prices, np.arange(1.0, 10.0))


def test_percentile_grid_constant():
    grid = percentile_grid(np.full(20, 5.0))
    np.testing.assert_array_equal(grid.prices, [5.0])


def test_percentile_grid_dataset1_sample():
    data = synth.generate(synth.make_spec(1), 5000, 0)
    grid = percentile_grid(data.prices)
    assert grid.m == 9
    assert np.all(np.diff(grid.prices) > 0)
    assert grid.prices[0] < 5.0 < grid.prices[-1]
    oracle = sorted({nearest_rank_oracle(data.prices.tolist(), q)
                     for q in range(10, 100, 10)})
    np.testing.assert_array_equal(grid.prices, oracle)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=40),
       st.randoms())
def test_percentile_grid_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    np.testing.assert_array_equal(percentile_grid(values).prices,
                                  percentile_grid(shuffled).prices)


def test_percentile_grid_needs_nine():
    with pytest.raises(DataError):
        percentile_grid(np.arange(8.0))


def test_explicit_grid_ladders():
    ladder = [1.99, 2.49, 2.99, 3.49, 3.99, 4.49, 4.99]
    np.testing.assert_array_equal(explicit_grid(ladder[::-1]).prices, ladder)
    np.testing.assert_array_equal(explicit_grid([2.69, 2.32, 2.49]).prices,
                                  [2.32, 2.49, 2.69])
    with pytest.raises(DataError):
        explicit_grid([3.0, 3.0])
    with pytest.raises(DataError):
        explicit_grid([])


# --- imputation rules -------------------------------------------------------

def test_impute_mode_counts():
    h = make_history([(1, 1, 2.49), (2, 1, 1.99), (3, 1, 1.99)])
    assert impute_mode_of_last_k(h, 3) == 1.99


def test_impute_mode_tie_breaks_recent():
    h = make_history([(1, 1, 1.99), (2, 1, 2.49), (3, 1, 2.99)])
    assert impute_mode_of_last_k(h, 3) == 2.99


def test_impute_mode_singleton():
    h = make_history([(1, 1, 3.49)])
    assert impute_mode_of_last_k(h, 3) == 3.49


def test_impute_mode_k1_is_latest():
    h = make_history([(1, 1, 2.0), (2, 1, 3.0), (3, 1, 2.0)])
    assert impute_mode_of_last_k(h, 1) == 2.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([1.99, 2.49, 2.99, 3.49]), min_size=1,
                max_size=12))
def test_impute_mode_k1_property(prices):
    h = make_history([(t, 1, p) for t, p in enumerate(prices)])
    assert impute_mode_of_last_k(h, 1) == prices[-1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0,
                                                           max_value=2 ** 32))
def test_split_halves_partition_property(n, seed):
    data = two_class_dataset(n)
    a, b = split_halves(data, seed)
    assert a.n == (n + 1) // 2 and b.n == n // 2
    merged = np.sort(np.concatenate([a.features[:, 0], b.features[:, 0]]))
    np.testing.assert_array_equal(merged, np.sort(data.features[:, 0]))


def test_impute_last_at_store():
    h = make_history([(1, 7, 2.32), (2, 9, 2.69), (3, 7, 2.49)])
    assert impute_last_at_store(h, 7) == 2.49
    assert impute_last_at_store(h, 9) == 2.69
    with pytest.raises(DataError):
        impute_last_at_store(h, 4)


def test_filter_stores_min_sales():
    records = [(t, 1, 2.0) for t in range(50)] + [(t + 100, 2, 3.0) for t in range(49)]
    records.sort()
    h = make_history(records)
    kept = filter_stores_min_sales(h, 50)
    assert len(kept) == 50
    assert set(kept.store_ids.tolist()) == {1}


def test_filter_stores_identity_and_idempotent():
    h = make_history([(1, 1, 2.0), (2, 2, 3.0)])
    kept = filter_stores_min_sales(h, 1)
    np.testing.assert_array_equal(kept.prices, h.prices)
    once = filter_stores_min_sales(h, 2)
    twice = filter_stores_min_sales(once, 2)
    np.testing.assert_array_equal(once.prices, twice.prices)


def test_filter_stores_empty():
    h = SaleHistory(np.asarray([], dtype=int), np.asarray([], dtype=int),
                    np.asarray([], dtype=float))
    assert len(filter_stores_min_sales(h, 5)) == 0


def test_sale_history_csv(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("timestamp,store_id,price\n1,7,2.32\n2,9,2.69\n")
    h = load_sale_history(f)
    assert len(h) == 2
    assert impute_last_at_store(h, 9) == 2.69


def test_sale_history_csv_empty_file(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("")
    with pytest.raises(DataError, match="empty sale history file"):
        load_sale_history(f)


def test_sale_history_timestamps_monotone():
    with pytest.raises(DataError):
        make_history([(3, 1, 2.0), (1, 1, 2.0)])
