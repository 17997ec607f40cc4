"""Tabular pricing data: ingestion, validation, splitting, price grids,
and the retail price-imputation / store-filtering preprocessing rules."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .rng import CounterRng


class DataError(ValueError):
    """Raised for malformed input data, with row/column location when known."""


@contextmanager
def _text_errors(path):
    """A byte that is not UTF-8, or a CSV syntax error such as an open quote
    that runs past the csv module's field size limit, raised in the block
    raises a DataError naming the path."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


@contextmanager
def open_text(path, newline=""):
    """``open(path)`` for reading UTF-8 text (CSV by default: ``newline=""``),
    with the DataErrors of ``_text_errors`` while the file is read. A leading
    byte-order mark, as spreadsheet programs write, is skipped."""
    with _text_errors(path), open(path, encoding="utf-8-sig", newline=newline) as f:
        yield f


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned(a, dtype) -> np.ndarray:
    """``a`` as a read-only C-order ``dtype`` array that owns its memory:
    ``a`` itself if it is one already (no one writes it), else a copy. A
    caller's writeable array therefore stays writeable, and no view keeps a
    larger array, such as a CSV parse table, alive."""
    a = np.asarray(a)
    if not (a.dtype == dtype and a.flags.c_contiguous and a.flags.owndata
            and not a.flags.writeable):
        a = np.array(a, dtype=dtype, order="C")
    return _freeze(a)


@dataclass(frozen=True)
class Dataset:
    """Observational pricing data: features x_i, observed price p_i, sold flag y_i.

    Immutable after construction: a Dataset owns its arrays. It copies each
    input, except a read-only array of the right type that owns its memory,
    which it keeps as it is.
    """

    features: np.ndarray
    prices: np.ndarray
    outcomes: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = _owned(self.features, np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        prices = _owned(self.prices, np.float64)
        outcomes = np.asarray(self.outcomes)
        n = feats.shape[0]
        if n < 1:
            raise DataError("dataset needs at least one row")
        if prices.shape != (n,) or outcomes.shape != (n,):
            raise DataError("features, prices and outcomes must share row count")
        if len(self.feature_names) != feats.shape[1]:
            raise DataError("feature_names length must equal feature count")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(prices)):
            raise DataError("non-finite value in features or prices")
        out_f = outcomes.astype(np.float64)
        if not np.all((out_f == 0.0) | (out_f == 1.0)):
            raise DataError("outcomes must be exactly 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "outcomes", _freeze(out_f.astype(np.int64)))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        # the gathers are new arrays, so the subset keeps them
        return Dataset(_freeze(self.features[rows]), _freeze(self.prices[rows]),
                       self.outcomes[rows], self.feature_names)


@dataclass(frozen=True)
class PriceGrid:
    """Strictly ascending candidate prices p_1 < ... < p_m."""

    prices: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise DataError("price grid must be a nonempty vector")
        if not np.all(np.isfinite(p)):
            raise DataError("price grid entries must be finite")
        if not np.all(np.diff(p) > 0):
            raise DataError("price grid must be strictly ascending with distinct entries")
        object.__setattr__(self, "prices", _freeze(p))

    @property
    def m(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class SaleHistory:
    """Time-ordered sale records (timestamp, store_id, price) for one product."""

    timestamps: np.ndarray
    store_ids: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.int64)
        s = np.asarray(self.store_ids, dtype=np.int64)
        p = np.asarray(self.prices, dtype=np.float64)
        if not (t.shape == s.shape == p.shape) or t.ndim != 1:
            raise DataError("sale history columns must be equal-length vectors")
        if t.size > 1 and np.any(np.diff(t) < 0):
            raise DataError("sale history timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", _freeze(t))
        object.__setattr__(self, "store_ids", _freeze(s))
        object.__setattr__(self, "prices", _freeze(p))

    def __len__(self) -> int:
        return self.timestamps.size


# The last Dataset that load_csv parsed, as (size, sha256 digest of the bytes
# it parsed, Dataset), or None: at most one entry, so at most one parse is
# kept alive.
_last = None


def load_csv(path) -> Dataset:
    """Load a dataset from CSV with reserved columns `price` and `sold`.

    Every other column is a numeric feature; file column order is preserved.
    A leading byte-order mark is skipped.

    A process parses a given file content once: the last Dataset read is
    kept, keyed by the sha256 of the bytes it was parsed from, and returned
    again (the same object) while a file holds those bytes, whatever its
    path. A file of that size is hashed to check; any other read drops the
    entry before it parses, and a file that fails to load is never kept. So
    the last Dataset read stays alive until a different file is read.

    A pipe cannot be read twice, so it is parsed once, row by row (slower,
    but a bad cell is named), and never answered from the kept entry.
    """
    global _last
    with open(path, "rb") as f:
        entry, _last = _last, None
        seekable = f.seekable()
        if (entry is not None and seekable
                and os.fstat(f.fileno()).st_size == entry[0]):
            if _sha256(f) == entry[1]:
                _last = entry
                return entry[2]
            f.seek(0)
        del entry
        # the bulk parse; if some cell is bad, the row-by-row one names it
        for checked in (False, True) if seekable else (True,):
            hashed = _HashingReader(f)
            with _text_errors(path):
                text = io.TextIOWrapper(hashed, encoding="utf-8-sig", newline="")
                data = _parse_csv(path, text, checked)
            if data is not None:
                break
            f.seek(0)
    _last = (hashed.size, hashed.sha256.digest(), data)
    return data


def _parse_csv(path, f, checked: bool) -> Dataset | None:
    """The Dataset in the CSV text ``f``. A bad header raises a DataError.
    With ``checked`` rows are parsed one by one and a bad cell raises a
    DataError naming it; without, a bad cell returns None."""
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    repeated = [h for h, count in Counter(header).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than "
                        f"once in the header")
    if "price" not in header:
        raise DataError(f"{path}: missing required column 'price'")
    if "sold" not in header:
        raise DataError(f"{path}: missing required column 'sold'")
    price_col = header.index("price")
    sold_col = header.index("sold")
    feat_cols = [i for i in range(len(header)) if i not in (price_col, sold_col)]
    if checked:
        table = _checked_cells(path, header, sold_col, reader)
    else:
        try:
            table = _bulk_cells(reader, len(header))
        except ValueError:
            return None

    if table.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    names = tuple(header[i] for i in feat_cols)
    try:
        # take gathers the features into a new C-order array, which the
        # Dataset keeps; table[:, feat_cols] is F-order, so it would copy it
        return Dataset(_freeze(table.take(feat_cols, axis=1)), table[:, price_col],
                       table[:, sold_col], names)
    except DataError:  # a non-finite feature or price, or 'sold' not 0 or 1
        if checked:
            raise
        return None


def _sha256(f) -> bytes:
    """The sha256 digest of the rest of the binary file ``f``."""
    sha256 = hashlib.sha256()
    for chunk in iter(lambda: f.read(1 << 16), b""):
        sha256.update(chunk)
    return sha256.digest()


class _HashingReader(io.BufferedIOBase):
    """A binary file for a TextIOWrapper that hashes each chunk it passes
    on, so ``size`` and ``sha256`` are of the very bytes a parse read. It
    reads the chunk sizes the wrapper asks for, as ``open(path)`` does."""

    def __init__(self, f):
        self._f = f
        self.sha256 = hashlib.sha256()
        self.size = 0

    def readable(self):
        return True

    def read1(self, n=-1):
        chunk = self._f.read1(n)
        self.sha256.update(chunk)
        self.size += len(chunk)
        return chunk


def _bulk_cells(reader, width: int) -> np.ndarray:
    """All remaining rows as one float matrix; ValueError on a ragged row or
    a cell that is no number."""
    def rows():
        for row in reader:
            if len(row) != width:
                raise ValueError("ragged row")
            yield row
    cells = np.fromiter(map(float, itertools.chain.from_iterable(rows())),
                        dtype=np.float64)
    return cells.reshape(-1, width)


def _checked_cells(path, header, sold_col: int, reader) -> np.ndarray:
    """The remaining rows of ``reader``, one by one: a DataError naming the
    line and column of the first bad cell (ragged row, non-numeric or
    non-finite value, 'sold' outside {0, 1}) in file order."""
    table = []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for i, cell in enumerate(row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}:{line_no}: non-numeric value {cell!r} in column '{header[i]}'"
                ) from None
            if i != sold_col and not math.isfinite(vals[-1]):
                raise DataError(
                    f"{path}:{line_no}: non-finite value {cell!r} in column '{header[i]}'")
        if vals[sold_col] not in (0.0, 1.0):
            raise DataError(
                f"{path}:{line_no}: 'sold' must be 0 or 1, got {row[sold_col]!r}"
            )
        table.append(vals)
    return np.asarray(table, dtype=np.float64).reshape(len(table), len(header))


# Rows formatted per write, to bound the text held at once: a block's list
# of Python floats and its text take about 1.6 KiB a row at d=20, so 1024
# rows hold 1.6 MiB where 8192 held 12.9 MiB, with the same bytes written.
_WRITE_BLOCK = 1024


def write_csv(data: Dataset, path) -> None:
    """Write a dataset in the load_csv schema (features..., price, sold)."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(list(data.feature_names) + ["price", "sold"])
        # csv.writer would quote nothing here: a float's repr has no comma,
        # quote or line break. Its "\r\n" line terminator is kept.
        for start in range(0, data.n, _WRITE_BLOCK):
            stop = start + _WRITE_BLOCK
            values = np.column_stack([data.features[start:stop],
                                      data.prices[start:stop]]).tolist()
            sold = data.outcomes[start:stop].tolist()
            f.write("".join(f"{','.join(map(repr, row))},{y}\r\n"
                            for row, y in zip(values, sold)))


def load_sale_history(path) -> SaleHistory:
    """Load a sale history CSV with columns timestamp, store_id, price."""
    with open_text(path) as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty sale history file") from None
        for col in ("timestamp", "store_id", "price"):
            if col not in header:
                raise DataError(f"{path}: missing required column '{col}'")
        ti, si, pi = header.index("timestamp"), header.index("store_id"), header.index("price")
        ts, ss, ps = [], [], []
        for line_no, row in enumerate(reader, start=2):
            try:
                ts.append(np.int64(int(row[ti])))
                ss.append(np.int64(int(row[si])))
                ps.append(float(row[pi]))
            except (ValueError, IndexError, OverflowError):  # past int64
                raise DataError(f"{path}:{line_no}: malformed sale record {row!r}") from None
    try:
        return SaleHistory(np.asarray(ts), np.asarray(ss), np.asarray(ps))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def half_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic row-disjoint halves of range(n), sorted, of size
    ceil(n/2) and floor(n/2)."""
    perm = CounterRng(seed).permutation(n)
    cut = (n + 1) // 2
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def split_halves(data: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic row-disjoint split into halves of size ceil(n/2), floor(n/2)."""
    if data.n < 2:
        raise DataError("need at least 2 rows to split")
    first, second = half_rows(data.n, seed)
    return data.subset(first), data.subset(second)


def percentile_grid(prices) -> PriceGrid:
    """Candidate prices at the 10th..90th percentiles of observed prices.

    Uses the nearest-rank convention (value at 1-based index ceil(p/100 * n)
    of the ascending sort) so every grid price is an observed price.
    Duplicate percentile values collapse, so the grid may have fewer than 9
    entries.
    """
    p = np.asarray(prices, dtype=np.float64)
    if p.size < 9:
        raise DataError("percentile grid needs at least 9 observations")
    s = np.sort(p)
    idx = [math.ceil(q / 100.0 * p.size) - 1 for q in range(10, 100, 10)]
    vals = sorted(set(float(s[i]) for i in idx))
    return PriceGrid(np.asarray(vals))


def explicit_grid(values) -> PriceGrid:
    """Fixed price ladder; input must be nonempty with distinct entries."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DataError("explicit grid requires at least one price")
    if np.unique(v).size != v.size:
        raise DataError("explicit grid entries must be distinct")
    return PriceGrid(np.sort(v))


def impute_mode_of_last_k(history: SaleHistory, k: int) -> float:
    """Most frequent price among the most recent min(k, available) sales.

    Ties break toward the most recent tied price; retail prices trend over
    time so recency is the sensible default.
    """
    if len(history) == 0:
        raise DataError("cannot impute from an empty history")
    if k < 1:
        raise DataError("k must be >= 1")
    window = history.prices[-min(k, len(history)):]
    counts = Counter(window.tolist())
    best = max(counts.values())
    for price in reversed(window.tolist()):
        if counts[price] == best:
            return float(price)
    raise AssertionError("unreachable")


def impute_last_at_store(history: SaleHistory, store_id: int) -> float:
    """Price of the most recent sale at the given store."""
    matches = np.nonzero(history.store_ids == store_id)[0]
    if matches.size == 0:
        raise DataError(f"no sale record for store {store_id}")
    return float(history.prices[matches[-1]])


def filter_stores_min_sales(history: SaleHistory, min_sales: int) -> SaleHistory:
    """Keep only records of stores with at least min_sales sales, order preserved."""
    if min_sales < 1:
        raise DataError("min_sales must be >= 1")
    if len(history) == 0:
        return history
    ids, counts = np.unique(history.store_ids, return_counts=True)
    keep_ids = set(ids[counts >= min_sales].tolist())
    mask = np.asarray([int(s) in keep_ids for s in history.store_ids])
    return SaleHistory(history.timestamps[mask], history.store_ids[mask],
                       history.prices[mask])
