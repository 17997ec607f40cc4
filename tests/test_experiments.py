import ast
import threading
from pathlib import Path

import numpy as np
import pytest

from sptlab import experiments, synth
from sptlab.dataset import DataError, PriceGrid, percentile_grid
from sptlab.experiments import (ExperimentPlan, PlanError,
                                aggregate, load_plan, plan_from_dict,
                                prepare_cell_inputs, read_results_csv, run_cell,
                                run_experiment, write_results_csv)
from sptlab.spt import FitConfig
from sptlab.teacher import GbtConfig, probability_matrix

FAST_GBT = {"rounds": 5, "min_child_samples": 5}


def tiny_plan(**overrides):
    base = dict(specs=(1,), n_train=(400,), depths=(1,), reps=2, base_seed=0,
                policies=("spt", "optimal", "no_change", "const"),
                teacher="oracle", truth="oracle", n_test=400)
    base.update(overrides)
    return ExperimentPlan(**base)


def test_plan_validation():
    with pytest.raises(PlanError):
        ExperimentPlan(specs=(9,))
    with pytest.raises(PlanError):
        tiny_plan(policies=("spt", "bogus"))
    with pytest.raises(PlanError):
        tiny_plan(depths=(1,), minsplits=(50,))
    with pytest.raises(PlanError):
        tiny_plan(depths=None)
    with pytest.raises(PlanError):
        tiny_plan(teacher="nnet")
    with pytest.raises(PlanError):
        tiny_plan(truth="guess")


def test_plan_from_dict_and_unknown_fields():
    plan = plan_from_dict({"specs": [1, 2], "n_train": 500, "depths": [2],
                           "reps": 3, "policies": ["spt"],
                           "gbt": {"rounds": 7}})
    assert plan.specs == (1, 2)
    assert plan.n_train == (500,)
    assert plan.gbt.rounds == 7
    with pytest.raises(PlanError):
        plan_from_dict({"specs": [1], "frobnicate": True})


def test_plan_minsplit_mode_from_dict():
    plan = plan_from_dict({"specs": [4], "minsplits": [50, 500], "reps": 1,
                           "policies": ["spt"]})
    assert plan.depths is None
    assert plan.minsplits == (50, 500)


def test_load_bundled_plan():
    plan = load_plan("table1_small")
    assert plan.name == "table1_small"
    assert plan.reps == 3
    assert plan.n_train == (2000,)
    assert set(plan.specs) == {1, 2, 3, 4, 5, 6}


def test_load_plan_missing():
    with pytest.raises(PlanError):
        load_plan("no_such_plan_anywhere")


def test_run_experiment_schema_and_dominance():
    rows = run_experiment(tiny_plan())
    # one row per (spec, policy, depth, seed)
    assert len(rows) == 4 * 2
    for r in rows:
        assert set(r) == {"spec", "policy", "depth", "minsplit", "n_train",
                          "seed", "mean_revenue", "n_leaves"}
    by_key = {(r["policy"], r["seed"]): r["mean_revenue"] for r in rows}
    for seed in (0, 1):
        assert by_key[("spt", seed)] <= by_key[("optimal", seed)] + 1e-12
        assert by_key[("const", seed)] <= by_key[("spt", seed)] + 1e-12


def test_run_experiment_deterministic():
    plan = tiny_plan()
    a = run_experiment(plan)
    b = run_experiment(plan)
    assert a == b


def test_run_experiment_runs_every_cell_on_the_calling_thread(monkeypatch):
    plan = tiny_plan()
    serial = run_experiment(plan)
    threads = []
    original = experiments.run_cell

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", spy)
    monkeypatch.setenv("SPTLAB_THREADS", "3")  # a former pool size, now unread
    assert run_experiment(plan) == serial
    assert threads and set(threads) == {threading.get_ident()}


def test_no_module_imports_threads():
    """numpy loads threading and concurrent itself, so sys.modules would not
    show an import by sptlab: the sources are read instead."""
    for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            assert not roots & {"threading", "concurrent"}, (path.name, names)


# Imported but unused: perfbench/layers.py wraps these names in sptlab.cli.
IMPORTS_KEPT_FOR_PERFBENCH = {("cli.py", "fit_spt"), ("cli.py", "revenue_matrix")}


def test_no_module_imports_a_name_it_never_uses():
    """``__init__`` imports to re-export, so it is left out."""
    for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, used = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused = {name for name in imported - used
                  if (path.name, name) not in IMPORTS_KEPT_FOR_PERFBENCH}
        assert not unused, (path.name, sorted(unused))


def test_load_plan_skips_a_byte_order_mark(tmp_path):
    doc = '{"specs": [4], "minsplits": [50, 500], "reps": 1, "policies": ["spt"]}'
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(doc, encoding="utf-8")
    marked.write_text(doc, encoding="utf-8-sig")
    assert load_plan(marked) == load_plan(plain)


def test_run_experiment_gbt_and_evaluator_path():
    plan = tiny_plan(teacher="gbt", truth="evaluator", n_train=(300,),
                     policies=("spt", "no_change"), reps=1,
                     gbt=GbtConfig(rounds=4, min_child_samples=5))
    rows = run_experiment(plan)
    assert len(rows) == 2
    assert all(np.isfinite(r["mean_revenue"]) for r in rows)


def test_run_experiment_minsplit_mode():
    plan = tiny_plan(depths=None, minsplits=(50, 150), policies=("spt",))
    rows = run_experiment(plan)
    assert len(rows) == 2 * 2
    assert {r["minsplit"] for r in rows} == {50, 150}
    assert {r["depth"] for r in rows} == {-1}
    leaves = {(r["minsplit"], r["seed"]): r["n_leaves"] for r in rows}
    for seed in (0, 1):
        assert leaves[(150, seed)] <= leaves[(50, seed)]


def count_gbt_fits(monkeypatch):
    calls = []
    fit = experiments.fit_gbt

    def counted(train, config):
        calls.append(train.n)
        return fit(train, config)

    monkeypatch.setattr(experiments, "fit_gbt", counted)
    return calls


def rows_cell_by_cell(plan):
    """Every cell run on its own, sharing nothing with the others."""
    rows = []
    for spec in plan.specs:
        for n in plan.n_train:
            for ms in plan.minsplits:
                for seed in plan.seeds:
                    inputs = prepare_cell_inputs(plan, spec, n, seed)
                    rows += run_cell(plan, spec, n, seed, None, ms, inputs=inputs)
    rows.sort(key=lambda r: (r["spec"], r["policy"], r["depth"], r["minsplit"],
                             r["n_train"], r["seed"]))
    return rows


SWEEP_POLICIES = ("spt", "pt", "naive", "teacher", "const", "optimal")


def test_sweep_fits_each_gbt_teacher_once(monkeypatch):
    plan = tiny_plan(specs=(2, 4), n_train=(300,), depths=None,
                     minsplits=(30, 90, 270), teacher="gbt",
                     policies=SWEEP_POLICIES, gbt=GbtConfig(**FAST_GBT))
    calls = count_gbt_fits(monkeypatch)
    rows = run_experiment(plan)
    assert len(calls) == 2 * 2  # one per (spec, n, seed), not per minsplit
    calls.clear()
    assert rows == rows_cell_by_cell(plan)
    assert len(calls) == 2 * 2 * 3


def test_sweep_evaluator_truth_fitted_once(monkeypatch):
    plan = tiny_plan(specs=(4,), n_train=(300,), depths=None,
                     minsplits=(30, 90), teacher="gbt", truth="evaluator",
                     policies=SWEEP_POLICIES + ("no_change",),
                     gbt=GbtConfig(**FAST_GBT))
    calls = count_gbt_fits(monkeypatch)
    rows = run_experiment(plan)
    assert calls == [150, 150] * 2  # evaluator and teacher halves, per seed
    assert rows == rows_cell_by_cell(plan)


def test_sweep_calls_run_cell_once_per_cell(monkeypatch):
    plan = tiny_plan(depths=(1, 2), policies=("spt",))
    seen = []
    original = experiments.run_cell

    def spy(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", spy)
    run_experiment(plan)
    assert sorted(a[1:] for a in seen) == [(1, 400, seed, depth, None)
                                          for seed in (0, 1) for depth in (1, 2)]
    assert all(a[0] is plan for a in seen)


def test_aggregate_orders_n_train_numerically():
    rows = [{"spec": 1, "policy": "spt", "depth": 3, "minsplit": 2,
             "n_train": n, "seed": 0, "mean_revenue": 1.0, "n_leaves": 4}
            for n in (10000, 2000)]
    assert [r.n_train for r in aggregate(rows)] == [2000, 10000]
    pooled = aggregate(rows, pool_depths=True)
    assert [(r.depth, r.n_train) for r in pooled] == [(None, 2000), (None, 10000)]


def test_aggregate_math():
    rows = [
        {"spec": 1, "policy": "spt", "depth": 3, "minsplit": 2, "n_train": 100,
         "seed": 0, "mean_revenue": 2.0, "n_leaves": 4},
        {"spec": 1, "policy": "spt", "depth": 3, "minsplit": 2, "n_train": 100,
         "seed": 1, "mean_revenue": 4.0, "n_leaves": 4},
    ]
    (rep,) = aggregate(rows)
    assert rep.mean_revenue == 3.0
    assert rep.max_revenue == 4.0
    assert rep.min_revenue == 2.0
    assert rep.n_reps == 2
    assert rep.std_error == pytest.approx(np.std([2.0, 4.0], ddof=1) / np.sqrt(2))


def test_aggregate_pooled_over_depths():
    rows = []
    for depth in (1, 2):
        for seed in (0, 1):
            rows.append({"spec": 1, "policy": "spt", "depth": depth,
                         "minsplit": 2, "n_train": 100, "seed": seed,
                         "mean_revenue": float(depth), "n_leaves": 2})
    pooled = aggregate(rows, pool_depths=True)
    assert len(pooled) == 1
    assert pooled[0].mean_revenue == 1.5
    assert pooled[0].n_reps == 4


def test_results_csv_round_trip(tmp_path):
    rows = run_experiment(tiny_plan(reps=1))
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    back = read_results_csv(path)
    assert back == rows


_HEADER = ",".join(experiments.RESULT_COLUMNS) + "\n"


@pytest.mark.parametrize("text, message", [
    (_HEADER.replace(",minsplit", "") + "1,spt,1,400,0,1.5,2.0\n",
     "line 1: missing columns ['minsplit']"),
    (_HEADER + "1,spt,1,2,400\n", "line 2: fewer fields than the header"),
    (_HEADER + "1,spt,1,2,400,0,1.5,2.0\n1,spt,x,2,400,0,1.5,2.0\n",
     "line 3: bad 'depth' value 'x'"),
], ids=["missing-column", "short-row", "bad-cell"])
def test_read_results_csv_malformed_is_located_error(tmp_path, text, message):
    path = tmp_path / "results.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_results_csv(path)
    assert str(err.value) == f"{path} {message}"


def test_fit_policy_rejects_a_name_it_does_not_fit():
    learn = synth.generate(synth.make_spec(1, 0), 100, 0)
    with pytest.raises(ValueError, match="unknown fitted policy 'teacher'"):
        experiments.fit_policy("teacher", learn, percentile_grid(learn.prices),
                               FitConfig.for_knob(1, None), 0)


@pytest.mark.parametrize("name", experiments.FITTED_POLICIES)
def test_fit_policy_carries_the_grid_it_is_given(name):
    spec = synth.make_spec(4, 0)
    learn = synth.generate(spec, 400, 0)
    grid = PriceGrid(np.asarray([3.0, 4.5, 5.5, 7.0]))  # not the percentile grid
    assert not np.array_equal(grid.prices, percentile_grid(learn.prices).prices)
    probs = probability_matrix(synth.oracle_teacher(spec), learn.features, grid)
    policy = experiments.fit_policy(name, learn, grid, FitConfig.for_knob(3, None),
                                    0, probs)
    if name == "ct":
        assert policy.grid is grid and len(policy.trees) == grid.m
    else:
        assert np.array_equal(policy.grid_prices, grid.prices)
    assert set(policy.prescribe(learn.features)) <= set(grid.prices)


@pytest.mark.parametrize("name", experiments.TEACHER_POLICIES)
def test_fit_policy_needs_probs_for_a_teacher_policy(name):
    learn = synth.generate(synth.make_spec(1, 0), 100, 0)
    with pytest.raises(ValueError, match=f"policy {name!r} learns from the teacher"):
        experiments.fit_policy(name, learn, percentile_grid(learn.prices),
                               FitConfig.for_knob(1, None), 0)
