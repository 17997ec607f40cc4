"""Command-line entry point: dataset generation, policy fitting, evaluation,
tree export, and full experiment sweeps.

All randomness flows through explicit --seed flags, so every command is
deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import baselines, experiments, synth
from .dataset import (DataError, explicit_grid, load_csv, percentile_grid,
                      write_csv)
# fit_spt and revenue_matrix are unused here but stay for perfbench/layers.py to wrap
from .spt import (EmptyLeafError, FitConfig, export_tree, fit_spt,
                  training_revenue, tree_from_json)
from .teacher import (GbtConfig, TableTeacher, fit_gbt, load_table_teacher,
                      probability_matrix, revenue_matrix)


def _parse_gbt_config(text: str) -> GbtConfig:
    kinds = {f.name: type(f.default) for f in fields(GbtConfig)}
    kwargs = {}
    if text:
        for item in text.split(","):
            key, _, value = item.partition("=")
            if key not in kinds:
                raise DataError(f"unknown gbt option {key!r}")
            try:
                kwargs[key] = kinds[key](value)
            except ValueError:
                raise DataError(f"gbt option {key!r}: bad value {value!r}") from None
    return GbtConfig(**kwargs)


def _teacher_source(flag: str, source: str, data, grid, seed: int):
    """Check gbt[:opts] | table:<path> | oracle:<spec_id> and return a function
    that builds the teacher; a malformed source raises a DataError naming
    ``flag``. The GBT is fitted, or the table read, only when it is called."""
    kind, _, rest = source.partition(":")
    if kind == "gbt":
        try:
            config = _parse_gbt_config(rest)
        except ValueError as exc:  # DataError, or a GbtConfig invariant
            raise DataError(f"{flag}: {exc}") from None
        return lambda: fit_gbt(data, config)
    if kind == "table" and not rest:
        raise DataError(f"{flag}: table needs a path, got {source!r}")
    if kind == "table":
        def load_table():
            teacher = load_table_teacher(rest, grid)
            if teacher.probs.shape[0] != data.n:
                raise DataError(f"{rest}: table teacher has {teacher.probs.shape[0]} "
                                f"rows, data has {data.n}")
            return teacher
        return load_table
    if kind == "oracle":
        try:
            spec = synth.make_spec(int(rest), seed)
        except ValueError:
            raise DataError(f"{flag}: oracle needs a spec id from "
                            f"{synth.SPEC_IDS}, got {rest!r}") from None
        if spec.d != data.d:
            raise DataError(f"{flag}: spec {spec.id} has {spec.d} features, "
                            f"the data has {data.d}")
        return lambda: synth.oracle_teacher(spec)
    raise DataError(f"{flag}: unknown teacher or truth source {source!r}")


def _parse_grid(flag: str, data):
    if flag == "percentile":
        return percentile_grid(data.prices)
    if flag.startswith("explicit:"):
        try:
            return explicit_grid([float(v) for v in flag.split(":", 1)[1].split(",")])
        except ValueError as exc:  # a price that is no number, or a bad ladder
            raise DataError(f"--grid: {exc}") from None
    raise DataError(f"--grid: unknown grid mode {flag!r}")


def cmd_synth(args) -> int:
    spec = synth.make_spec(args.spec, args.seed)
    data = synth.generate(spec, args.n, args.seed)
    write_csv(data, args.out)
    print(f"wrote {args.out}: n={data.n} d={data.d} "
          f"positive_rate={data.outcomes.mean():.4f} seed={args.seed}")
    return 0


def cmd_fit(args) -> int:
    data = load_csv(args.data)
    grid = _parse_grid(args.grid, data)
    config = FitConfig.for_knob(args.depth, args.minsplit)
    flags = {"data": args.data, "method": args.method, "grid": args.grid,
             "depth": args.depth, "minsplit": args.minsplit, "seed": args.seed,
             "teacher": args.teacher}
    make_teacher = _teacher_source("--teacher", args.teacher, data, grid, args.seed)
    teacher = probs = None
    if args.method in experiments.TEACHER_POLICIES:
        teacher = make_teacher()
        probs = (teacher.probs if isinstance(teacher, TableTeacher)  # P[i, k]
                 else probability_matrix(teacher, data.features, grid))
    policy = experiments.fit_policy(args.method, data, grid, config, args.seed,
                                    teacher, probs)

    if isinstance(policy, baselines.OneVsAllPolicy):
        text = baselines.export_one_vs_all(policy)
        summary = (f"one-vs-all policy, {len(policy.trees)} trees, "
                   f"mean_leaves={policy.n_leaves:.1f}")
    else:
        text = export_tree(policy, "json")
        summary = (f"training_revenue_per_item="
                   f"{training_revenue(policy) / data.n:.6f} n_leaves={policy.n_leaves}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({**json.loads(text), "meta": flags}, f, indent=2)
    print(f"wrote {args.out}: {summary}")
    return 0


def _load_policy(path):
    """A policy file as (policy, parsed JSON); bad files raise a DataError
    naming the path."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise DataError("policy file must hold a JSON object")
        if "trees" in doc:
            return baselines.one_vs_all_from_json(text), doc
        return tree_from_json(text), doc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_evaluate(args) -> int:
    policy, doc = _load_policy(args.tree)
    data = load_csv(args.data)
    prices = policy.prescribe(data.features)
    truth = _teacher_source("--truth", args.truth, data,
                            explicit_grid(doc["price_grid"]), args.seed)()
    X = (np.arange(data.n, dtype=np.float64)[:, None]  # a table is row-indexed
         if isinstance(truth, TableTeacher) else data.features)
    probs = truth.predict_proba_batch(X, prices)
    value = float(np.mean(prices * probs))
    print(f"{value:.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"mean_revenue": value,
                       "flags": {"tree": args.tree, "data": args.data,
                                 "truth": args.truth, "seed": args.seed}},
                      f, indent=2)
    return 0


def cmd_experiment(args) -> int:
    plan = experiments.load_plan(args.plan)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = experiments.run_experiment(plan)
    results_path = os.path.join(args.out_dir, "results.csv")
    experiments.write_results_csv(rows, results_path)
    with open(os.path.join(args.out_dir, "plan_echo.json"), "w",
              encoding="utf-8") as f:
        echo = {fld.name: getattr(plan, fld.name) for fld in fields(plan)
                if fld.name != "gbt"}
        json.dump({"name": plan.name, **echo}, f, indent=2)
    def write_summary(name, reports):
        with open(os.path.join(args.out_dir, name), "w",
                  encoding="utf-8", newline="") as f:
            f.write("spec,policy,depth,minsplit,n_train,mean_revenue,"
                    "max_revenue,min_revenue,std_error,n_reps\n")
            for r in reports:
                f.write(f"{r.spec},{r.policy},{r.depth},{r.minsplit},"
                        f"{r.n_train},{r.mean_revenue!r},{r.max_revenue!r},"
                        f"{r.min_revenue!r},{r.std_error!r},{r.n_reps}\n")

    write_summary("summary.csv", experiments.aggregate(rows))
    if len(plan.knobs) > 1:
        # best/worst across the complexity sweep as well as across seeds
        write_summary("summary_pooled.csv",
                      experiments.aggregate(rows, pool_depths=True))
    print(f"wrote {results_path} ({len(rows)} rows)")
    return 0


def cmd_export(args) -> int:
    tree, doc = _load_policy(args.tree)
    if "trees" in doc:
        raise DataError("export works on single-tree files, not one-vs-all policies")
    text = export_tree(tree, args.format)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sptlab",
        description="Interpretable personalized pricing with prescriptive trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a pricing policy and write its JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   choices=experiments.FITTED_POLICIES)
    p.add_argument("--teacher", default="gbt",
                   help="gbt[:k=v,...] | table:<path> | oracle:<spec_id>")
    p.add_argument("--grid", default="percentile",
                   help="percentile | explicit:<p1,p2,...>")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--minsplit", type=int, default=None,
                   help="use minsplit termination with unbounded depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="expected revenue of a policy file")
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--truth", required=True,
                   help="oracle:<spec_id> | table:<path> | gbt[:k=v,...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a sweep plan")
    p.add_argument("--plan", required=True,
                   help="plan JSON path or bundled plan name (e.g. table1_small)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export", help="re-serialize a tree as JSON or DOT")
    p.add_argument("--tree", required=True)
    p.add_argument("--format", required=True, choices=["json", "dot"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, experiments.PlanError, ValueError, OSError,
            EmptyLeafError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
