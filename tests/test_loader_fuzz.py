"""Fuzz tests of the text loaders not fuzzed elsewhere: the sale-history
CSV, the table-teacher CSV (also through ``main``'s ``--teacher table:`` and
``--truth table:``) and ``sptlab-gbt v1`` files. A mutated file must load,
or fail with a DataError that names its path; ``main`` exits 0 or 1."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sptlab.boosting import fit_boosted_trees, load_boosted_trees, save_boosted_trees
from sptlab.cli import main
from sptlab.dataset import DataError, PriceGrid, load_sale_history
from sptlab.spt import export_tree, single_leaf_tree
from sptlab.teacher import load_table_teacher

_ODD_CELLS = ["", "abc", "nan", "inf", "-inf", "1e400", "-0", " 2 ", "0x10",
              "1_0", "0.5", "2", "-1", "1.5", '"', "é",
              "99999999999999999999", "-99999999999999999999",  # past int64
              "7" * 5000,  # past int()'s default digit limit
              '"' + "x" * 140_000]  # an open quote past the csv field limit
_BAD_BYTE = b"\xff"  # never valid in UTF-8


@st.composite
def _mutated(draw, rows, sep):
    """``rows`` (lists of str cells) joined by ``sep`` after 1-3 edits: a
    dropped, added or odd cell, a dropped, blank or repeated line, or a
    byte that is not UTF-8. Returns bytes."""
    rows = [list(r) for r in rows]
    bad_byte = False
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, max(0, len(rows[r]) - 1)))
        op = draw(st.sampled_from(["drop", "extra", "odd", "odd", "row",
                                   "blank", "repeat", "byte"]))
        if op == "drop" and rows[r]:
            del rows[r][c]
        elif op == "extra":
            rows[r].insert(c, draw(st.sampled_from(_ODD_CELLS)))
        elif op == "odd" and rows[r]:
            rows[r][c] = draw(st.sampled_from(_ODD_CELLS))
        elif op == "row":
            del rows[r]
        elif op == "blank":
            rows.insert(r, [])
        elif op == "repeat":
            rows.insert(r, list(rows[r]))
        elif op == "byte":
            bad_byte = True
    text = "".join(sep.join(row) + "\n" for row in rows).encode("utf-8")
    if bad_byte:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + _BAD_BYTE + text[cut:]
    return text


def _loads_or_names_path(load, path):
    try:
        load(path)
    except DataError as exc:
        assert str(path) in str(exc), exc


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

_SALES = [["timestamp", "store_id", "price"],
          ["1", "0", "2.99"], ["2", "1", "3.49"], ["2", "0", "2.99"],
          ["5", "1", "1.99"]]


@_FUZZ
@given(_mutated(_SALES, ","))
def test_mutated_sale_history_loads_or_names_the_path(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sales.csv"
        path.write_bytes(data)
        _loads_or_names_path(load_sale_history, path)


_TABLE = [["1.0", "0.0"], ["1.0", "1.0"]]  # the toy world's demand at 10, 12
_GRID = PriceGrid(np.asarray([10.0, 12.0]))


@_FUZZ
@given(_mutated(_TABLE, ","))
def test_mutated_table_teacher_loads_or_names_the_path(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(data)
        _loads_or_names_path(lambda p: load_table_teacher(p, _GRID), path)


@_FUZZ
@given(_mutated(_TABLE, ","), st.sampled_from(["fit", "evaluate"]))
def test_main_on_mutated_table_csv_never_raises(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table, toy, tree = tmp / "table.csv", tmp / "toy.csv", tmp / "tree.json"
        table.write_bytes(data)
        toy.write_text("segment,price,sold\n0.0,10.0,1\n1.0,12.0,1\n")
        tree.write_text(export_tree(single_leaf_tree(10.0, 20.0, 2, [10.0, 12.0])))
        argv = (["fit", "--data", str(toy), "--method", "spt", "--depth", "1",
                 "--grid", "explicit:10,12", "--teacher", f"table:{table}",
                 "--out", str(tmp / "policy.json")] if command == "fit" else
                ["evaluate", "--tree", str(tree), "--data", str(toy),
                 "--truth", f"table:{table}"])
        assert main(argv) in (0, 1)


def _gbt_lines():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(np.float64)
    model = fit_boosted_trees(X, y, rounds=2, max_leaves=3, min_child_samples=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_boosted_trees(model, path)
        return [line.split(" ") for line in path.read_text().splitlines()]


_GBT = _gbt_lines()


@_FUZZ
@given(_mutated(_GBT, " "))
def test_mutated_gbt_file_loads_or_names_the_path(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_bytes(data)
        _loads_or_names_path(load_boosted_trees, path)
