import json

import pytest

from sptlab.baselines import export_one_vs_all
from sptlab.cli import build_parser, main
from sptlab.dataset import load_csv, percentile_grid
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
    assert tree.predict_price([5.0, 0.0]) == 10.0
    assert tree.predict_price([7.0, 1.0]) == 12.0


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
    policy = fit_policy(method, learn, grid, FitConfig.for_knob(2, None), 3,
                        teacher, probs)
    text = (export_one_vs_all(policy) if method == "ct"
            else export_tree(policy, "json"))
    assert got == json.loads(text)


def test_fit_method_choices_are_the_fitted_policies():
    fit = build_parser()._subparsers._group_actions[0].choices["fit"]
    [method] = [a for a in fit._actions if a.dest == "method"]
    assert tuple(method.choices) == FITTED_POLICIES
