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
from contextlib import contextmanager
from dataclasses import fields

from . import baselines, experiments, synth
from .dataset import (DataError, explicit_grid, load_csv, open_text,
                      percentile_grid, write_csv)
from .evaluation import expected_revenue
# fit_spt and revenue_matrix are unused here but stay for perfbench/layers.py to wrap
from .spt import (EmptyLeafError, FitConfig, export_tree, fit_spt,
                  training_revenue, tree_from_json)
from .teacher import (GBT_OPTION_KINDS, GbtConfig, fit_gbt, load_table_teacher,
                      probability_matrix, revenue_matrix)


@contextmanager
def _located(flag: str):
    """Raise a ValueError of the block as a DataError naming ``flag``."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{flag}: {exc}") from None


def _parse_gbt_config(text: str) -> GbtConfig:
    kwargs = {}
    if text:
        for item in text.split(","):
            key, _, value = item.partition("=")
            if key not in GBT_OPTION_KINDS:
                raise DataError(f"unknown gbt option {key!r}")
            try:
                kwargs[key] = GBT_OPTION_KINDS[key](value)
            except ValueError:
                raise DataError(f"gbt option {key!r}: bad value {value!r}") from None
    return GbtConfig(**kwargs)


def _table_teacher(path, grid, n: int):
    """The table teacher read from ``path``, which must hold ``n`` rows."""
    teacher = load_table_teacher(path, grid)
    if teacher.probs.shape[0] != n:
        raise DataError(f"{path}: table teacher has {teacher.probs.shape[0]} "
                        f"rows, data has {n}")
    return teacher


def _teacher_source(flag: str, source: str, seed: int):
    """Check gbt[:opts] | table:<path> | oracle:<spec_id>, which needs no
    data, and return ``bind(data, grid)``: it checks the source against the
    data (an oracle spec's width) and returns a function that builds the
    teacher. A malformed source raises a DataError naming ``flag``. The GBT
    is fitted, or the table read, only when that function is called."""
    kind, _, rest = source.partition(":")
    if kind == "gbt":
        with _located(flag):  # DataError, or a GbtConfig invariant
            config = _parse_gbt_config(rest)
        return lambda data, grid: lambda: fit_gbt(data, config)
    if kind == "table" and not rest:
        raise DataError(f"{flag}: table needs a path, got {source!r}")
    if kind == "table":
        return lambda data, grid: lambda: _table_teacher(rest, grid, data.n)
    if kind == "oracle":
        try:
            spec = synth.make_spec(int(rest), seed)
        except ValueError:
            raise DataError(f"{flag}: oracle needs a spec id from "
                            f"{synth.SPEC_IDS}, got {rest!r}") from None

        def bind_oracle(data, grid):
            if spec.d != data.d:
                raise DataError(f"{flag}: spec {spec.id} has {spec.d} features, "
                                f"the data has {data.d}")
            return lambda: synth.oracle_teacher(spec)
        return bind_oracle
    raise DataError(f"{flag}: unknown teacher or truth source {source!r}")


def _parse_grid(flag: str):
    """The explicit grid of ``flag``, or None for the percentile grid of the
    data's prices."""
    if flag == "percentile":
        return None
    if flag.startswith("explicit:"):
        with _located("--grid"):  # a price that is no number, or a bad ladder
            return explicit_grid([float(v) for v in flag.split(":", 1)[1].split(",")])
    raise DataError(f"--grid: unknown grid mode {flag!r}")


def cmd_synth(args) -> int:
    with _located("--spec"):
        spec = synth.make_spec(args.spec, args.seed)
    with _located("--n"):
        data = synth.generate(spec, args.n, args.seed)
    write_csv(data, args.out)
    print(f"wrote {args.out}: n={data.n} d={data.d} "
          f"positive_rate={data.outcomes.mean():.4f} seed={args.seed}")
    return 0


def cmd_fit(args) -> int:
    # the flags that need no data are checked before the data is parsed
    with _located("--depth" if args.minsplit is None else "--minsplit"):
        config = FitConfig.for_knob(args.depth, args.minsplit)
    grid = _parse_grid(args.grid)
    bind_teacher = _teacher_source("--teacher", args.teacher, args.seed)
    data = load_csv(args.data)
    grid = percentile_grid(data.prices) if grid is None else grid
    make_teacher = bind_teacher(data, grid)
    flags = {"data": args.data, "method": args.method, "grid": args.grid,
             "depth": args.depth, "minsplit": args.minsplit, "seed": args.seed,
             "teacher": args.teacher}
    probs = (probability_matrix(make_teacher(), data.features, grid)
             if args.method in experiments.TEACHER_POLICIES else None)
    policy = experiments.fit_policy(args.method, data, grid, config, args.seed, probs)

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
    with open_text(path, newline=None) as f:
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
    except RecursionError:  # json.loads on deeply nested arrays or objects
        raise DataError(f"{path}: JSON nested too deeply") from None


def cmd_evaluate(args) -> int:
    # --truth needs no data, so it is checked before the policy and data are read
    bind_truth = _teacher_source("--truth", args.truth, args.seed)
    policy, doc = _load_policy(args.tree)
    data = load_csv(args.data)
    names = getattr(policy, "feature_names", ())  # one-vs-all files carry none
    if names and names != data.feature_names:
        raise DataError(f"{args.tree}: the policy splits on features {','.join(names)}"
                        f"; {args.data} has {','.join(data.feature_names)}")
    truth = bind_truth(data, explicit_grid(doc["price_grid"]))()
    value = expected_revenue(policy, data.features, truth)
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
