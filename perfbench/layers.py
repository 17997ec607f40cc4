"""Per-layer probes: where each sptlab module's public functions are wrapped,
what is counted there, and the per-layer metrics computed from the trace.

Layers are the package modules.  A function is wrapped where its caller
looks it up, because ``experiments`` and ``cli`` import names directly:
``fit_gbt`` is wrapped in both ``sptlab.experiments`` and ``sptlab.cli``.
Module-qualified calls (``synth.generate``, ``baselines.fit_pt``,
``boosting.fit_boosted_trees``) are wrapped once on their module, and
teacher queries and ``boosting.Tree.predict`` on their classes, which also
catches the grid re-query inside ``fit_naive_distill``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


def install(tracer, sptlab) -> None:
    """Wrap every probed function; ``tracer.restore()`` undoes it."""
    from sptlab import baselines, boosting, cli, experiments, synth, teacher

    def counter(name, amount):
        def hook(span, args, kwargs, result):
            tracer.count(name, amount(args, kwargs, result))
        return hook

    def gbt_input(span, args, kwargs, result):
        train = args[0] if args else kwargs["train"]
        config = args[1] if len(args) > 1 else kwargs.get("config")
        h = hashlib.sha256(repr(config).encode())
        for a in (train.features, train.prices, train.outcomes):
            h.update(np.ascontiguousarray(a).tobytes())
        tracer.add_key("teacher.fit_gbt", h.hexdigest())

    def teacher_query(span, args, kwargs, result):
        n = len(result)
        tracer.count("teacher.query_rows", n)
        if tracer.inside("baselines.fit_naive_distill"):
            tracer.count("teacher.query_rows.naive", n)

    def nodes(name):
        def count(args, kwargs, tree):
            trees = getattr(tree, "trees", [tree])
            return sum(len(t.nodes) for t in trees)
        return counter(name, count)

    for module in (experiments, cli):
        tracer.wrap(module, "fit_gbt", "teacher.fit_gbt", gbt_input)
    # TeacherGridPolicy.prescribe looks revenue_matrix up in sptlab.teacher
    for module in (experiments, cli, teacher):
        tracer.wrap(module, "revenue_matrix", "teacher.revenue_matrix")
    for cls in (teacher.GradientBoostedTeacher, teacher.OracleTeacher):
        tracer.wrap(cls, "predict_proba_batch", "teacher.predict_proba_batch",
                    teacher_query)

    tracer.wrap(boosting, "fit_boosted_trees", "boosting.fit_boosted_trees")
    tracer.wrap(boosting.Tree, "predict", "boosting.tree_predict",
                counter("boosting.tree_predict.rows",
                        lambda a, k, r: len(r)))

    for module in (experiments, cli):
        tracer.wrap(module, "fit_spt", "spt.fit_spt", nodes("spt.nodes"))
    for name in ("fit_pt", "fit_ct_one_vs_all", "fit_naive_distill",
                 "constant_price_policy"):
        tracer.wrap(baselines, name, f"baselines.{name}", nodes("baselines.nodes"))

    tracer.wrap(experiments, "expected_revenue", "evaluation.expected_revenue",
                counter("evaluation.expected_revenue.rows",
                        lambda a, k, r: len(a[1])))

    tracer.wrap(cli, "load_csv", "dataset.load_csv",
                counter("dataset.load_csv.bytes",
                        lambda a, k, r: os.path.getsize(a[0])))
    tracer.wrap(cli, "write_csv", "dataset.write_csv",
                counter("dataset.write_csv.bytes",
                        lambda a, k, r: os.path.getsize(a[1])))

    tracer.wrap(synth, "generate", "synth.generate",
                counter("synth.generate.rows", lambda a, k, r: r.n))

    tracer.wrap(experiments, "run_experiment", "experiments.run_experiment")
    tracer.wrap(cli, "main", "cli.main")


def metrics(tracer, n_passes: int) -> dict[str, float]:
    """Per-layer numbers per traced pass, keyed by metric name."""
    summary = tracer.summary()
    out: dict[str, float] = {}

    def span(name, *fields):
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = row[f] / n_passes

    span("teacher.fit_gbt", "s", "calls")
    # every pass fits the same inputs, so the set of distinct inputs is per pass
    distinct = len(tracer.keys["teacher.fit_gbt"])
    out["teacher.fit_gbt.distinct"] = distinct
    out["teacher.fit_gbt.wasted"] = out["teacher.fit_gbt.calls"] - distinct
    span("teacher.revenue_matrix", "s", "calls")
    span("teacher.predict_proba_batch", "s", "calls")
    span("boosting.fit_boosted_trees", "s", "calls")
    span("boosting.tree_predict", "s", "calls")
    span("spt.fit_spt", "s", "calls")
    for name in ("fit_pt", "fit_ct_one_vs_all", "fit_naive_distill",
                 "constant_price_policy"):
        span(f"baselines.{name}", "s", "calls")
    span("evaluation.expected_revenue", "s", "calls")
    span("dataset.load_csv", "s", "calls")
    span("dataset.write_csv", "s", "calls")
    span("synth.generate", "s", "calls")
    span("experiments.run_experiment", "s")
    span("experiments.run_cell", "s", "calls", "self_s")
    span("cli.main", "s", "calls", "self_s")
    for name in ("teacher.query_rows", "teacher.query_rows.naive",
                 "boosting.tree_predict.rows", "spt.nodes", "baselines.nodes",
                 "evaluation.expected_revenue.rows", "dataset.load_csv.bytes",
                 "dataset.write_csv.bytes", "synth.generate.rows"):
        out[name] = tracer.counts.get(name, 0) / n_passes

    run_s = out["experiments.run_experiment.s"]
    out["experiments.concurrency"] = out["experiments.run_cell.s"] / run_s if run_s else 0.0
    out["experiments.threads"] = len({sp.tid for sp in tracer.spans
                                      if sp.name == "experiments.run_cell"})
    return out
