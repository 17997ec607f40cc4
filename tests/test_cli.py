import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sptlab.dataset as dataset
from sptlab.baselines import export_one_vs_all, fit_ct_one_vs_all
from sptlab.cli import build_parser, main
from sptlab.dataset import Dataset, PriceGrid, load_csv, percentile_grid
from sptlab.experiments import FITTED_POLICIES, TEACHER_POLICIES, fit_policy
from sptlab.spt import (FitConfig, LeafNode, SplitNode, export_tree,
                        single_leaf_tree, tree_from_json)
from sptlab.synth import make_spec, oracle_teacher
from sptlab.teacher import probability_matrix


def run_cli(*argv):
    return main(list(argv))


def write_toy_files(tmp_path):
    data = tmp_path / "toy.csv"
    data.write_text("segment,price,sold\n0.0,10.0,1\n1.0,12.0,1\n")
    tree = tmp_path / "tree.json"
    tree.write_text(export_tree(single_leaf_tree(10.0, 20.0, 2,
                                                 [10.0, 12.0]), "json"))
    truth = tmp_path / "truth.csv"
    truth.write_text("1.0,0.0\n1.0,1.0\n")  # exact toy demand at prices 10, 12
    return data, tree, truth


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "1", "--n", "100", "--seed", "7",
                   "--out", str(out)) == 0
    data = load_csv(out)
    assert data.n == 100 and data.d == 2
    assert "n=100" in capsys.readouterr().out


def test_synth_bad_spec_errors(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "9", "--n", "10", "--out", str(out)) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--spec", "9", "--spec: unknown synthetic spec id 9"),
    ("--n", "0", "--n: n must be >= 1"),
])
def test_synth_bad_flag_is_located_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "10", flag, value,
                   "--out", str(out)) == 1  # a repeated flag: last wins
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("synth", "--spec", "4", "--n", "60", "--seed", "3",
                       "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_spt_depth3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "800", "--seed", "0",
                   "--out", str(data)) == 0
    out = tmp_path / "tree.json"
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", "gbt:rounds=5,min_child_samples=5",
                   "--depth", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    leaves = [n for n in doc["nodes"] if n["kind"] == "leaf"]
    assert 1 <= len(leaves) <= 8
    assert doc["meta"]["depth"] == 3
    assert "n_leaves" in capsys.readouterr().out


def test_fit_minsplit_rule(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "2000", "--seed", "1",
                   "--out", str(data)) == 0
    out = tmp_path / "tree.json"
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", "gbt:rounds=5", "--minsplit", "700",
                   "--out", str(out)) == 0
    tree = tree_from_json(out.read_text())

    def subtree_rows(nid):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return node.n_train
        return subtree_rows(node.left) + subtree_rows(node.right)

    for nid, node in enumerate(tree.nodes):
        if isinstance(node, SplitNode):
            assert subtree_rows(nid) >= 700


def test_fit_ct_writes_one_vs_all(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "600", "--seed", "2",
                   "--out", str(data)) == 0
    out = tmp_path / "policy.json"
    assert run_cli("fit", "--data", str(data), "--method", "ct",
                   "--depth", "2", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert "trees" in doc and "price_grid" in doc
    assert len(doc["trees"]) == len(doc["price_grid"])


def test_fit_oracle_teacher(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "1", "--n", "400", "--seed", "5",
                   "--out", str(data)) == 0
    out = tmp_path / "tree.json"
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", "oracle:1", "--depth", "2",
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["nodes"]


def test_evaluate_toy_table_truth(tmp_path, capsys):
    data, tree, truth = write_toy_files(tmp_path)
    out = tmp_path / "eval.json"
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", f"table:{truth}", "--out", str(out)) == 0
    assert capsys.readouterr().out.strip() == "10.000000"
    assert json.loads(out.read_text())["mean_revenue"] == 10.0


def test_evaluate_constant_half_table(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x0,price,sold\n0.0,4.0,1\n1.0,4.0,0\n")
    tree = tmp_path / "tree.json"
    tree.write_text(export_tree(single_leaf_tree(4.0, 0.0, 2, [4.0]), "json"))
    table = tmp_path / "t.csv"
    table.write_text("0.5\n0.5\n")
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", f"table:{table}") == 0
    assert capsys.readouterr().out.strip() == "2.000000"


def test_evaluate_missing_tree(tmp_path, capsys):
    data, _, truth = write_toy_files(tmp_path)
    assert run_cli("evaluate", "--tree", str(tmp_path / "nope.json"),
                   "--data", str(data), "--truth", f"table:{truth}") == 1


def test_export_json_round_trip(tmp_path):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "3", "--n", "500", "--seed", "4",
                   "--out", str(data)) == 0
    tree = tmp_path / "tree.json"
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", "gbt:rounds=4", "--depth", "2",
                   "--out", str(tree)) == 0
    again = tmp_path / "again.json"
    assert run_cli("export", "--tree", str(tree), "--format", "json",
                   "--out", str(again)) == 0
    twice = tmp_path / "twice.json"
    assert run_cli("export", "--tree", str(again), "--format", "json",
                   "--out", str(twice)) == 0
    assert json.loads(again.read_text()) == json.loads(twice.read_text())


def test_export_dot_counts(tmp_path):
    # full depth-3 tree: 7 split + 8 leaf nodes
    nodes = []

    def build(level):
        nid = len(nodes)
        if level == 3:
            nodes.append({"id": nid, "kind": "leaf", "price": 1.0,
                          "revenue_sum": 0.0, "n_train": 1})
            return nid
        nodes.append(None)
        left = build(level + 1)
        right = build(level + 1)
        nodes[nid] = {"id": nid, "kind": "split", "feature": 0,
                      "threshold": float(level), "left": left, "right": right}
        return nid

    build(0)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"feature_names": ["x0"], "price_grid": [1.0],
                                "nodes": nodes, "root": 0}))
    out = tmp_path / "tree.dot"
    assert run_cli("export", "--tree", str(tree), "--format", "dot",
                   "--out", str(out)) == 0
    text = out.read_text()
    assert sum(1 for ln in text.splitlines() if "[shape=" in ln) == 15


def test_export_dot_escapes_a_quoted_csv_header(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text('"a""b",price,sold\n' + "".join(
        f"{i},{10.0 if i < 5 else 12.0},1\n" for i in range(10)))
    tree, dot = tmp_path / "t.json", tmp_path / "t.dot"
    assert run_cli("fit", "--method", "pt", "--data", str(data), "--depth", "1",
                   "--grid", "explicit:10,12", "--out", str(tree)) == 0
    assert run_cli("export", "--tree", str(tree), "--format", "dot",
                   "--out", str(dot)) == 0
    assert 'label="a\\"b ≤ ' in dot.read_text()


def test_repeated_csv_column_exits_1(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x0,x0,price,sold,price\n1.0,2.0,5.0,1,6.0\n")
    assert run_cli("fit", "--method", "pt", "--data", str(data),
                   "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert f"{data}: column 'x0' appears more than once" in err
    assert "Traceback" not in err


def test_export_bad_format_is_usage_error(tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(export_tree(single_leaf_tree(1.0), "json"))
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--tree", str(tree), "--format", "yaml",
                "--out", str(tmp_path / "x"))
    assert exc.value.code != 0


def test_experiment_command(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "micro", "specs": [1], "n_train": 300, "depths": [1],
        "reps": 2, "policies": ["spt", "optimal", "no_change"],
        "teacher": "oracle", "truth": "oracle", "n_test": 300}))
    out_dir = tmp_path / "results"
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(out_dir)) == 0
    results = (out_dir / "results.csv").read_text().strip().splitlines()
    assert results[0] == "spec,policy,depth,minsplit,n_train,seed,mean_revenue,n_leaves"
    assert len(results) == 1 + 3 * 2
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "plan_echo.json").exists()

    rerun_dir = tmp_path / "again"
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(rerun_dir)) == 0
    assert (out_dir / "results.csv").read_bytes() == \
        (rerun_dir / "results.csv").read_bytes()


def test_experiment_pooled_summary_on_sweeps(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "sweep", "specs": [1], "n_train": 300, "depths": [1, 2],
        "reps": 2, "policies": ["spt"], "teacher": "oracle",
        "truth": "oracle", "n_test": 300}))
    out_dir = tmp_path / "results"
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(out_dir)) == 0
    pooled = (out_dir / "summary_pooled.csv").read_text().strip().splitlines()
    assert len(pooled) == 2  # header + one pooled row for (spec1, spt)
    assert pooled[1].startswith("1,spt,None,None,300,")


def test_experiment_bad_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"specs": [1], "bogus_field": 1}))
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(tmp_path / "o")) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "plan must be a JSON object, got list"),
    ({"specs": [1], "gbt": {"bogus": 1}}, "unknown gbt fields ['bogus']"),
    ({"specs": [1], "gbt": {"rounds": "x"}}, "gbt field 'rounds': bad value 'x'"),
    ({"specs": [1], "reps": "2"}, "plan field 'reps': bad value '2'"),
    ({"specs": [1], "depths": [1, "a"]}, "plan field 'depths': bad value [1, 'a']"),
    ({"specs": [1], "gbt": {"rounds": 0}}, "gbt: rounds must be >= 1"),
    ({"specs": [1], "gbt": {"seed": 3}}, "unknown gbt fields ['seed']"),
    ({"specs": [1], "depths": []}, "plan field 'depths': needs at least one value"),
    ({"specs": [1], "minsplits": []},
     "plan field 'minsplits': needs at least one value"),
    ({"specs": [1], "depths": [2, -3]},
     "plan field 'depths': bad value -3: max_depth must be >= 0 or None"),
    ({"specs": [1], "minsplits": [1]},
     "plan field 'minsplits': bad value 1: minsplit must be >= 2 * min_leaf"),
    ({"specs": [1], "reps": 0}, "plan field 'reps': bad value 0: must be >= 1"),
    ({"specs": [1], "n_test": 0}, "plan field 'n_test': bad value 0: must be >= 1"),
    ({"specs": [1], "n_train": [500, 10]},
     "plan field 'n_train': bad value 10: must be >= 20"),
    ({"specs": [1], "n_train": 19}, "plan field 'n_train': bad value 19: must be >= 20"),
    ({"reps": 1}, "missing plan field 'specs'"),
    ({"specs": [1], "gbt": {"min_child_samples": 0}},
     "gbt: min_child_samples must be >= 1"),
])
def test_experiment_malformed_plan_is_located_error(tmp_path, capsys, doc, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {plan}: {message}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_experiment_plan_json_syntax_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{\"specs\": [1],")
    assert run_cli("experiment", "--plan", str(plan),
                   "--out-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan}: ")
    assert "Traceback" not in err


def test_gbt_seed_option_is_rejected(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "200", "--out", str(data)) == 0
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", "gbt:rounds=2,seed=3",
                   "--out", str(tmp_path / "t.json")) == 1
    assert "unknown gbt option 'seed'" in capsys.readouterr().err


def split_tree_doc(**split):
    """A one-split tree on feature x0 as a JSON-ready dict."""
    node = {"id": 0, "kind": "split", "feature": 0, "threshold": 0.5,
            "left": 1, "right": 2}
    node.update(split)
    leaves = [{"id": i, "kind": "leaf", "price": 10.0, "revenue_sum": 0.0,
               "n_train": 1} for i in (1, 2)]
    return {"feature_names": ["x0"], "price_grid": [10.0, 12.0],
            "nodes": [node] + leaves, "root": 0}


@pytest.mark.parametrize("doc, message", [
    ({}, "missing key 'feature_names'"),
    ({"feature_names": [], "price_grid": []}, "missing key 'nodes'"),
    (split_tree_doc(right=7), "tree node 0: child id 7 outside 0..2"),
    (split_tree_doc(feature=1), "tree node 0: split feature 1 out of range for 1 feature names"),
    (split_tree_doc(left=0), "tree: tree has a repeated"),
    ({**split_tree_doc(), "root": 3}, "tree: root id 3 outside"),
    ([], "policy file must hold a JSON object"),
    (split_tree_doc(threshold="NaN"), "tree node 0: split threshold nan is not finite"),
])
def test_export_malformed_tree_is_located_error(tmp_path, capsys, doc, message):
    tree = tmp_path / "bad.json"
    tree.write_text(json.dumps(doc))
    assert run_cli("export", "--tree", str(tree), "--format", "dot",
                   "--out", str(tmp_path / "t.dot")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tree}: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("price_grid", [[10.0, 12.0]]), ("price_grid", 10.0), ("price_grid", None),
    ("feature_names", "x0"), ("feature_names", [0]),
])
def test_export_json_rejects_malformed_header(tmp_path, capsys, key, value):
    tree = tmp_path / "bad.json"
    tree.write_text(json.dumps({**split_tree_doc(), key: value}))
    assert run_cli("export", "--tree", str(tree), "--format", "json",
                   "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tree}: tree: bad {key!r} value ")
    assert "Traceback" not in err


# --- decoder fuzzing -----------------------------------------------------------

_INF = "__1e400__"  # written out as the JSON number 1e400, which parses to inf
_ODD_VALUES = ["x", [1.0], [[1.0, 2.0]], True, None, _INF]


def _valid_policy_docs():
    """A fitted tree JSON (with splits) and a one-vs-all JSON."""
    rng = np.random.default_rng(5)
    grid = PriceGrid(np.asarray([1.0, 3.0]))
    n = 80
    X = rng.normal(size=(n, 2))
    prices = grid.prices[rng.integers(0, 2, n)]
    y = ((X[:, 0] > 0) ^ (prices > 2)).astype(int)
    data = Dataset(X, prices, y, ("a", "b"))
    tree = fit_policy("pt", data, grid, FitConfig(max_depth=2), 0)
    ct = fit_ct_one_vs_all(data, grid, FitConfig(max_depth=1), 0)
    return (json.loads(export_tree(tree, "json")),
            json.loads(export_one_vs_all(ct)))


_DOCS = _valid_policy_docs()


def _paths(doc, path=()):
    """Every path to a value inside ``doc``, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_policy_text(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        odd = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if not path:
            doc = odd
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "kind", "id"]))
        if op == "drop" and isinstance(parent, dict):
            del parent[key]
        elif op == "id" or key in ("id", "left", "right", "root"):
            parent[key] = draw(st.integers(-2, 8))
        else:
            parent[key] = odd
    return json.dumps(doc).replace(f'"{_INF}"', "1e400")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_policy_text(), st.sampled_from(["json", "dot"]))
def test_export_of_mutated_policy_files_never_raises(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "policy.json"
        path.write_text(text)
        assert main(["export", "--tree", str(path), "--format", fmt,
                     "--out", str(Path(tmp) / "out")]) in (0, 1)


def test_evaluate_malformed_one_vs_all_is_located_error(tmp_path, capsys):
    data, _, truth = write_toy_files(tmp_path)
    policy = tmp_path / "ct.json"
    leaf = {"id": 0, "kind": "leaf", "effect": 0.0, "treated_mean": 1.0}
    policy.write_text(json.dumps({"price_grid": [10.0],
                                  "trees": [{"nodes": [leaf], "root": 0}]}))
    assert run_cli("evaluate", "--tree", str(policy), "--data", str(data),
                   "--truth", f"table:{truth}") == 1
    err = capsys.readouterr().err
    assert "policy tree 0 node 0: missing key 'n_est'" in err


def test_evaluate_one_vs_all_infinite_threshold_is_located_error(tmp_path, capsys):
    data, _, truth = write_toy_files(tmp_path)
    policy = tmp_path / "ct.json"
    split = {"id": 0, "kind": "split", "feature": 0, "threshold": "Infinity",
             "left": 1, "right": 2}
    leaves = [{"id": i, "kind": "leaf", "effect": 0.0, "treated_mean": 1.0,
               "n_est": 1} for i in (1, 2)]
    policy.write_text(json.dumps({"price_grid": [10.0],
                                  "trees": [{"nodes": [split] + leaves, "root": 0}]}))
    assert run_cli("evaluate", "--tree", str(policy), "--data", str(data),
                   "--truth", f"table:{truth}") == 1
    err = capsys.readouterr().err
    assert err == (f"error: {policy}: policy tree 0 node 0: split threshold "
                   "inf is not finite\n")


BAD_FIT_FLAGS = [
    ("--teacher", "oracle:x", "--teacher: oracle needs a spec id from "
                              "(1, 2, 3, 4, 5, 6), got 'x'"),
    ("--teacher", "gbt:rounds", "--teacher: gbt option 'rounds': bad value ''"),
    ("--teacher", "gbt:rounds=0", "--teacher: rounds must be >= 1"),
    ("--teacher", "gbt:rounds=3,min_child_samples=-3",
     "--teacher: min_child_samples must be >= 1"),
    ("--teacher", "bogus:1", "--teacher: unknown teacher or truth source 'bogus:1'"),
    ("--grid", "explicit:1,a", "--grid: could not convert string to float: 'a'"),
    ("--grid", "explicit:", "--grid: could not convert string to float: ''"),
    ("--teacher", "oracle:2", "--teacher: spec 2 has 20 features, the data has 1"),
    # pt and ct learn from the sales, yet check the teacher source all the same
    ("--teacher", "oracle:x", "--teacher: oracle needs a spec id from "
                              "(1, 2, 3, 4, 5, 6), got 'x'", "pt"),
    ("--teacher", "gbt:rounds=0", "--teacher: rounds must be >= 1", "pt"),
    ("--teacher", "oracle:2", "--teacher: spec 2 has 20 features, the data has 1", "ct"),
    ("--teacher", "bogus:1", "--teacher: unknown teacher or truth source 'bogus:1'",
     "ct"),
    ("--teacher", "table:", "--teacher: table needs a path, got 'table:'", "pt"),
    ("--depth", "-1", "--depth: max_depth must be >= 0 or None"),
    ("--minsplit", "1", "--minsplit: minsplit must be >= 2 * min_leaf"),
]


# a row without a method is an spt fit, and its id leaves the method out
@pytest.mark.parametrize("flag, value, message, method",
                         [row + ("spt",) * (len(row) == 3) for row in BAD_FIT_FLAGS],
                         ids=["-".join(row) for row in BAD_FIT_FLAGS])
def test_fit_bad_teacher_or_grid_is_located_error(tmp_path, capsys, flag, value,
                                                  message, method):
    data, _, _ = write_toy_files(tmp_path)
    assert run_cli("fit", "--data", str(data), "--method", method,
                   "--grid", "explicit:10,12", flag, value,  # a repeated flag: last wins
                   "--out", str(tmp_path / "t.json")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "t.json").exists()


# the flags sptlab fit checks before it reads --data
FLAGS_CHECKED_BEFORE_THE_DATA = [
    ("--depth", "-1", "--depth: max_depth must be >= 0 or None"),
    ("--minsplit", "1", "--minsplit: minsplit must be >= 2 * min_leaf"),
    ("--grid", "explicit:1,a", "--grid: could not convert string to float: 'a'"),
    ("--grid", "ladder", "--grid: unknown grid mode 'ladder'"),
    ("--teacher", "oracle:x", "--teacher: oracle needs a spec id from "
                              "(1, 2, 3, 4, 5, 6), got 'x'"),
    ("--teacher", "bogus:1", "--teacher: unknown teacher or truth source 'bogus:1'"),
]


@pytest.mark.parametrize("flag, value, message", FLAGS_CHECKED_BEFORE_THE_DATA,
                         ids=["-".join(row[:2]) for row in FLAGS_CHECKED_BEFORE_THE_DATA])
def test_fit_bad_flag_is_named_before_a_missing_data_file(tmp_path, capsys, flag,
                                                          value, message):
    assert run_cli("fit", "--data", str(tmp_path / "missing.csv"), "--method", "spt",
                   flag, value, "--out", str(tmp_path / "t.json")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "train.csv"
    assert run_cli("synth", "--spec", "4", "--n", "50000", "--out", str(path)) == 0
    return path


@pytest.mark.parametrize("flag, value, message", FLAGS_CHECKED_BEFORE_THE_DATA,
                         ids=["-".join(row[:2]) for row in FLAGS_CHECKED_BEFORE_THE_DATA])
def test_fit_bad_flag_exits_without_parsing_the_data(tmp_path, capsys, monkeypatch,
                                                     large_csv, flag, value, message):
    loads = []
    monkeypatch.setattr("sptlab.cli.load_csv",
                        lambda *args: loads.append(args) or load_csv(*args))
    assert run_cli("fit", "--data", str(large_csv), "--method", "spt",
                   flag, value, "--out", str(tmp_path / "t.json")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == []


@pytest.mark.parametrize("method", ["pt", "ct"])
def test_fit_sales_policy_neither_fits_nor_reads_the_teacher(tmp_path, monkeypatch,
                                                            method):
    def refuse(*args, **kwargs):
        raise AssertionError("the teacher was built")

    monkeypatch.setattr("sptlab.cli.fit_gbt", refuse)
    monkeypatch.setattr("sptlab.cli.load_table_teacher", refuse)
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "300", "--out", str(data)) == 0
    outs = []
    for teacher in ("gbt:rounds=3", f"table:{tmp_path / 'missing.csv'}", "oracle:4"):
        outs.append(tmp_path / f"{len(outs)}.json")
        assert run_cli("fit", "--data", str(data), "--method", method, "--depth", "2",
                       "--teacher", teacher, "--out", str(outs[-1])) == 0
    policies = [{k: v for k, v in json.loads(o.read_text()).items() if k != "meta"}
                for o in outs]
    assert policies[0] == policies[1] == policies[2]


def test_evaluate_on_data_with_other_features_is_located_error(tmp_path, capsys):
    fitted, other = tmp_path / "d4.csv", tmp_path / "d2.csv"
    assert run_cli("synth", "--spec", "4", "--n", "300", "--out", str(fitted)) == 0
    assert run_cli("synth", "--spec", "2", "--n", "100", "--out", str(other)) == 0
    tree = tmp_path / "spt.json"
    assert run_cli("fit", "--data", str(fitted), "--method", "spt", "--depth", "2",
                   "--teacher", "oracle:4", "--out", str(tree)) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(other),
                   "--truth", "oracle:2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tree}: the policy splits on features x0,x1")
    assert "Traceback" not in captured.err


def test_evaluate_bad_truth_is_located_error(tmp_path, capsys):
    data, tree, _ = write_toy_files(tmp_path)
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", "oracle:x") == 1
    assert capsys.readouterr().err.startswith("error: --truth: oracle needs a spec id")


def test_non_numeric_table_cell_is_located_error(tmp_path, capsys):
    data, tree, truth = write_toy_files(tmp_path)
    truth.write_text("1.0,0.0\n1.0,x\n")
    expect = f"error: {truth} line 2: could not convert string to float: 'x'\n"
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", f"table:{truth}") == 1
    assert capsys.readouterr().err == expect
    assert run_cli("fit", "--data", str(data), "--method", "spt",
                   "--teacher", f"table:{truth}", "--grid", "explicit:10,12",
                   "--out", str(tmp_path / "t.json")) == 1
    assert capsys.readouterr().err == expect


def test_evaluate_unpriced_leaf_reports_error(tmp_path, capsys):
    data, tree, truth = write_toy_files(tmp_path)
    tree.write_text(export_tree(single_leaf_tree(float("nan"), 0.0, 0,
                                                 [10.0, 12.0]), "json"))
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", f"table:{truth}") == 1
    assert "unpriced (empty) leaf" in capsys.readouterr().err


def test_fit_naive_with_table_teacher_uses_rows_not_features(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b,price,sold\n5.0,0.0,10.0,1\n7.0,1.0,12.0,1\n")
    table = tmp_path / "t.csv"
    table.write_text("1.0,0.0\n1.0,1.0\n")  # row 0 buys only at 10
    out = tmp_path / "naive.json"
    assert run_cli("fit", "--data", str(data), "--method", "naive",
                   "--teacher", f"table:{table}", "--grid", "explicit:10,12",
                   "--depth", "1", "--out", str(out)) == 0
    tree = tree_from_json(out.read_text())
    assert tree.prescribe([[5.0, 0.0]])[0] == 10.0
    assert tree.prescribe([[7.0, 1.0]])[0] == 12.0


def _write_table(path, probs):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in probs.tolist()))


@pytest.mark.parametrize("method", TEACHER_POLICIES)
def test_fit_with_table_teacher_learns_from_the_table(tmp_path, method):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "300", "--seed", "1",
                   "--out", str(data)) == 0
    learn = load_csv(data)
    grid = percentile_grid(learn.prices)
    probs = np.random.default_rng(2).uniform(size=(learn.n, grid.m))
    table = tmp_path / "t.csv"
    _write_table(table, probs)
    out = tmp_path / "p.json"
    assert run_cli("fit", "--data", str(data), "--method", method, "--depth", "2",
                   "--teacher", f"table:{table}", "--seed", "1",
                   "--out", str(out)) == 0
    got = json.loads(out.read_text())
    del got["meta"]
    policy = fit_policy(method, learn, grid, FitConfig.for_knob(2, None), 1,
                        probs=probs)
    assert got == json.loads(export_tree(policy, "json"))


def test_evaluate_table_truth_reads_row_i_at_the_prescribed_price(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,price,sold\n5.0,10.0,1\n-2.5,12.0,0\n0.25,14.0,1\n9.0,10.0,0\n")
    grid = [10.0, 12.0, 14.0]
    tree = tmp_path / "tree.json"  # a <= 1.0 costs 12, else 14
    tree.write_text(json.dumps({
        "price_grid": grid, "root": 0, "feature_names": ["a"],
        "nodes": [{"id": 0, "kind": "split", "feature": 0, "threshold": 1.0,
                   "left": 1, "right": 2},
                  {"id": 1, "kind": "leaf", "price": 12.0, "revenue_sum": 0.0,
                   "n_train": 2},
                  {"id": 2, "kind": "leaf", "price": 14.0, "revenue_sum": 0.0,
                   "n_train": 2}]}))
    probs = np.asarray([[0.9, 0.8, 0.7], [0.6, 0.5, 0.4],
                        [0.3, 0.2, 0.1], [0.95, 0.85, 0.75]])
    truth = tmp_path / "t.csv"
    _write_table(truth, probs)
    assert run_cli("evaluate", "--tree", str(tree), "--data", str(data),
                   "--truth", f"table:{truth}") == 0
    prices = np.asarray([14.0, 12.0, 12.0, 14.0])
    k = np.searchsorted(grid, prices)
    expect = float(np.mean(prices * probs[np.arange(4), k]))
    assert capsys.readouterr().out == f"{expect:.6f}\n"


@pytest.mark.parametrize("method", FITTED_POLICIES)
def test_fit_writes_the_policy_the_sweep_fits(tmp_path, method):
    data = tmp_path / "d.csv"
    assert run_cli("synth", "--spec", "4", "--n", "600", "--seed", "3",
                   "--out", str(data)) == 0
    out = tmp_path / "p.json"
    assert run_cli("fit", "--data", str(data), "--method", method, "--depth", "2",
                   "--teacher", "oracle:4", "--seed", "3", "--out", str(out)) == 0
    got = json.loads(out.read_text())
    del got["meta"]

    learn = load_csv(data)
    grid = percentile_grid(learn.prices)
    teacher = oracle_teacher(make_spec(4, 3))
    probs = (probability_matrix(teacher, learn.features, grid)
             if method in TEACHER_POLICIES else None)
    policy = fit_policy(method, learn, grid, FitConfig.for_knob(2, None), 3, probs)
    text = (export_one_vs_all(policy) if method == "ct"
            else export_tree(policy, "json"))
    assert got == json.loads(text)


def test_cached_reads_give_the_outputs_of_one_process_per_command(tmp_path, monkeypatch,
                                                                  capsys):
    """In one process the second fit and every evaluate after the first
    read a cached Dataset; one process per command parses every read. The
    policy files and printed revenues are the same."""
    cmds = [["synth", "--spec", "2", "--n", "400", "--seed", "0", "--out", "train.csv"],
            ["synth", "--spec", "2", "--n", "200", "--seed", "1", "--out", "test.csv"]]
    for m in ("spt", "ct"):
        cmds.append(["fit", "--data", "train.csv", "--method", m, "--depth", "3",
                     "--teacher", "oracle:2", "--seed", "0", "--out", f"{m}.json"])
    evaluate = [["evaluate", "--tree", f"{m}.json", "--data", "test.csv",
                 "--truth", "oracle:2", "--seed", "0"] for m in ("spt", "ct")]

    def outputs(workdir, printed):
        return ([(workdir / f"{m}.json").read_bytes() for m in ("spt", "ct")], printed)

    cached = tmp_path / "cached"
    cached.mkdir()
    monkeypatch.chdir(cached)
    parses = []
    parse = dataset._parse_csv
    monkeypatch.setattr(dataset, "_parse_csv",
                        lambda path, f, checked: parses.append(path) or parse(path, f, checked))
    printed = []
    for argv in cmds + evaluate + evaluate:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "evaluate":
            printed.append(out)
    assert parses == ["train.csv", "test.csv"]
    in_process = outputs(cached, printed)

    separate = tmp_path / "separate"
    separate.mkdir()
    src = str(Path(dataset.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    printed = []
    for argv in cmds + evaluate:
        run = subprocess.run([sys.executable, "-m", "sptlab.cli", *argv], cwd=separate,
                             env=env, check=True, capture_output=True, text=True)
        if argv[0] == "evaluate":
            printed.append(run.stdout)
    assert in_process == outputs(separate, printed * 2)


def test_fit_method_choices_are_the_fitted_policies():
    fit = build_parser()._subparsers._group_actions[0].choices["fit"]
    [method] = [a for a in fit._actions if a.dest == "method"]
    assert tuple(method.choices) == FITTED_POLICIES


@pytest.mark.parametrize("command", ["export", "experiment"])
def test_deeply_nested_json_is_located_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # json.loads recurses once per bracket
    out = tmp_path / "o"
    argv = (["export", "--tree", str(deep), "--format", "json", "--out", str(out)]
            if command == "export" else
            ["experiment", "--plan", str(deep), "--out-dir", str(out)])
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["export", "evaluate", "experiment"])
def test_json_that_is_not_utf8_is_located_error(tmp_path, capsys, command):
    data, _, truth = write_toy_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": "\xff"}')
    out = tmp_path / "o"
    argv = {"export": ["export", "--tree", str(bad), "--format", "json",
                       "--out", str(out)],
            "evaluate": ["evaluate", "--tree", str(bad), "--data", str(data),
                         "--truth", f"table:{truth}", "--out", str(out)],
            "experiment": ["experiment", "--plan", str(bad), "--out-dir", str(out)]}
    assert run_cli(*argv[command]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 7: "
        "invalid start byte\n")
    assert not out.exists()


# --- dataset CSV and plan JSON fuzzing through main ------------------------------

_ODD_CELLS = ["", "abc", "nan", "inf", "-inf", "1e400", "-0", " 2 ", "0x10",
              "1_0", "0.5", "2", "-1", '"', "é"]


@st.composite
def _mutated_dataset_text(draw):
    """A small dataset CSV with dropped or extra cells, odd cells, dropped
    rows (the header included) and blank lines."""
    rows = [["x0", "x1", "price", "sold"]] + \
        [[str(i % 3), str(0.5 * i), str(10 + 2 * (i % 2)), str(i % 2)]
         for i in range(6)]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, max(0, len(rows[r]) - 1)))
        op = draw(st.sampled_from(["drop", "extra", "odd", "row", "blank"]))
        if op == "drop" and rows[r]:
            del rows[r][c]
        elif op == "extra":
            rows[r].insert(c, draw(st.sampled_from(_ODD_CELLS)))
        elif op == "odd" and rows[r]:
            rows[r][c] = draw(st.sampled_from(_ODD_CELLS))
        elif op == "row":
            del rows[r]
        else:
            rows.insert(r, [])
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_dataset_text(), st.sampled_from(["pt", "const"]))
def test_fit_on_mutated_dataset_csv_never_raises(text, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["fit", "--data", str(path), "--method", method,
                     "--depth", "1", "--teacher", "gbt:rounds=2",
                     "--out", str(Path(tmp) / "policy.json")]) in (0, 1)


_SMALL_PLAN = {"name": "fuzz", "specs": [4], "n_train": [20], "depths": [1],
               "reps": 1, "policies": ["const", "pt"], "teacher": "oracle",
               "truth": "oracle", "n_test": 20}
_DEEP = "__deep__"  # written out as 5,000 nested empty lists
_ODD_PLAN_VALUES = ["x", "", [], [[1]], [1, "a"], [2.5], True, None, {},
                    {"rounds": 2}, 0.5, _INF, _DEEP]


@st.composite
def _mutated_plan_text(draw):
    doc = copy.deepcopy(_SMALL_PLAN)
    for _ in range(draw(st.integers(1, 3))):
        odd = copy.deepcopy(draw(st.one_of(st.sampled_from(_ODD_PLAN_VALUES),
                                           st.integers(-2, 8))))
        op = draw(st.sampled_from(["drop", "kind", "item", "add", "root"]))
        key = draw(st.sampled_from(sorted(_SMALL_PLAN)))
        if op == "root":
            doc = odd
            break
        if op == "drop":
            doc.pop(key, None)
        elif op == "item" and isinstance(doc.get(key), list) and doc[key]:
            doc[key][0] = odd
        elif op == "add":
            doc["bogus"] = odd
        else:
            doc[key] = odd
    return (json.dumps(doc).replace(f'"{_INF}"', "1e400")
            .replace(f'"{_DEEP}"', "[" * 5000 + "]" * 5000))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_plan_text())
def test_experiment_on_mutated_plan_never_raises(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        path.write_text(text)
        assert main(["experiment", "--plan", str(path),
                     "--out-dir", str(Path(tmp) / "out")]) in (0, 1)
