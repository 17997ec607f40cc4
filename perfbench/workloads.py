"""The benchmark workloads and the checks on their outputs.

Each workload is a closed loop in one process: the next operation starts
when the previous one returns.  An operation is one ``run_cell`` of a sweep
(plus the write of ``results.csv``) or one ``sptlab.cli.main`` command.

* ``table1_small``: the bundled plan (6 specs x 3 seeds x 7 policies, n=2000,
  depth 3) run serially.  GBT fitting and teacher inference dominate, and
  each (spec, seed) fits its teacher exactly once.
* ``minsplit_sweep``: specs 4 and 6, n=5000, four minsplits, unbounded depth,
  with ``SPTLAB_THREADS=2``.  The same teacher is fitted once per minsplit,
  so sweep-level reuse and the worker pool show here.
* ``cli_large_n``: spec 2 (d=20) through ``sptlab.cli.main``: synth 50k/20k
  rows, fit four policies at depth 5 on the oracle teacher, evaluate them,
  export the SPT to DOT.  No GBT calls; CSV I/O is a large share.

Every workload derives its inputs from the benchmark seed, and seed 0 gives
the configurations above.  BENCHMARK.json lists ``minsplit_sweep`` and
``cli_large_n``; ``table1_small`` runs only when asked for by name.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time

MINSPLIT_PLAN = {
    "name": "minsplit_sweep", "specs": [4, 6], "n_train": [5000],
    "minsplits": [50, 150, 500, 1500], "reps": 1,
    "policies": ["spt", "pt", "naive", "const"], "teacher": "gbt",
    "truth": "oracle", "n_test": 5000,
}
CLI_METHODS = ("spt", "pt", "naive", "ct")
# policies whose result rows report a fitted tree's leaf count
TREE_POLICIES = {"spt", "pt", "ct", "naive", "const"}


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclasses.dataclass
class Op:
    """One attempted operation: its name, duration (None when it was not
    timed on its own) and failure (if any)."""

    name: str
    seconds: float | None
    error: str | None = None


@dataclasses.dataclass
class PassResult:
    wall_s: float
    policies: int
    cell_seconds: list[float]  # time to fit and score each unit of work
    ops: list[Op]
    outputs: dict[str, str]  # output name -> digest or printed value


class Sweep:
    """A plan run through ``experiments.run_experiment``."""

    def __init__(self, name: str, threads: int):
        self.name = name
        self.threads = threads

    def setup(self, sptlab, seed: int):
        """Load and validate the plan for ``seed``."""
        experiments = sptlab.experiments
        if self.name == "table1_small":
            plan = experiments.load_plan("table1_small")
            return dataclasses.replace(plan, base_seed=seed * plan.reps)
        return experiments.plan_from_dict({**MINSPLIT_PLAN, "base_seed": seed})

    def install(self, sptlab, tracer) -> None:
        """Wrap ``experiments.run_cell`` to keep each cell's rows and time."""
        self.cells: dict[str, tuple[float, list]] = {}

        def capture(span, args, kwargs, rows):
            _plan, spec, n, seed, depth, minsplit = (list(args) + [None] * 6)[:6]
            key = cell_key(spec, n, seed, kwargs.get("depth", depth),
                           kwargs.get("minsplit", minsplit))
            self.cells[key] = (span.end - span.start, rows)

        tracer.wrap(sptlab.experiments, "run_cell", "experiments.run_cell", capture)

    def run_pass(self, sptlab, plan, workdir) -> PassResult:
        """One sweep; :meth:`install` must have wrapped ``run_cell``."""
        experiments = sptlab.experiments
        self.cells = {}
        knobs = ([(d, None) for d in plan.depths] if plan.depths is not None
                 else [(None, m) for m in plan.minsplits])
        keys = [cell_key(spec, n, seed, depth, minsplit) for spec in plan.specs
                for n in plan.n_train for depth, minsplit in knobs for seed in plan.seeds]
        results = os.path.join(workdir, "results.csv")
        old = os.environ.get("SPTLAB_THREADS")
        os.environ["SPTLAB_THREADS"] = str(self.threads)
        error = None
        t0 = time.perf_counter()
        try:
            rows = experiments.run_experiment(plan)
            experiments.write_results_csv(rows, results)
        except Exception as exc:  # a failed sweep is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - t0
            if old is None:
                del os.environ["SPTLAB_THREADS"]
            else:
                os.environ["SPTLAB_THREADS"] = old

        ops, outputs = [], {}
        for key in sorted(keys):
            if key not in self.cells:
                ops.append(Op(f"cell {key}", None, error or "cell was not run"))
                continue
            seconds, cell_rows = self.cells[key]
            outputs[f"cell {key}"] = sha256_json(cell_rows)
            ops.append(Op(f"cell {key}", seconds, check_cell_rows(plan, cell_rows)))
        if error is None:
            outputs["results.csv"] = sha256_file(results)
        ops.append(Op("results.csv", None, error))
        return PassResult(wall, len(plan.policies) * len(keys),
                          [seconds for seconds, _ in self.cells.values()], ops, outputs)


def cell_key(spec, n, seed, depth, minsplit) -> str:
    return f"spec={spec} n={n} seed={seed} depth={depth} minsplit={minsplit}"


def check_cell_rows(plan, rows) -> str | None:
    """Seed-independent invariants of one cell's result rows."""
    policies = [r["policy"] for r in rows]
    if policies != list(plan.policies):
        return f"policies {policies} != plan {list(plan.policies)}"
    by_policy = {r["policy"]: r for r in rows}
    for r in rows:
        if not math.isfinite(r["mean_revenue"]):
            return f"{r['policy']}: non-finite revenue"
        if (r["policy"] in TREE_POLICIES) != (r["n_leaves"] >= 1):
            return f"{r['policy']}: n_leaves {r['n_leaves']}"
    if "optimal" in by_policy:
        best = by_policy["optimal"]["mean_revenue"]
        for r in rows:
            # the oracle's fine grid dominates every grid policy up to the
            # fine grid's resolution
            if r["mean_revenue"] > best + 1e-3 * abs(best):
                return f"{r['policy']} beats the oracle optimum"
    return None


class CliChain:
    """The ``sptlab`` command chain on the d=20 world, run in-process."""

    @staticmethod
    def commands(seed: int) -> list[list[str]]:
        train_seed, test_seed = 2 * seed, 2 * seed + 1
        cmds = [["synth", "--spec", "2", "--n", "50000", "--seed", str(train_seed),
                 "--out", "train.csv"],
                ["synth", "--spec", "2", "--n", "20000", "--seed", str(test_seed),
                 "--out", "test.csv"]]
        for m in CLI_METHODS:
            cmds.append(["fit", "--data", "train.csv", "--method", m, "--depth", "5",
                         "--teacher", "oracle:2", "--seed", str(train_seed),
                         "--out", f"{m}.json"])
        for m in CLI_METHODS:
            cmds.append(["evaluate", "--tree", f"{m}.json", "--data", "test.csv",
                         "--truth", "oracle:2", "--seed", str(train_seed)])
        cmds.append(["export", "--tree", "spt.json", "--format", "dot",
                     "--out", "spt.dot"])
        return cmds

    def install(self, sptlab, tracer) -> None:
        pass

    def setup(self, sptlab, seed: int):
        """Parse every command of the chain for ``seed``."""
        parser = sptlab.cli.build_parser()
        for argv in self.commands(seed):
            parser.parse_args(argv)
        return self.commands(seed)

    def run_pass(self, sptlab, commands, workdir) -> PassResult:
        # relative paths keep the bytes of the policy JSON (which echoes its
        # flags) independent of where the checkout lives
        cwd = os.getcwd()
        os.chdir(workdir)
        ops, outputs = [], {}
        t0 = time.perf_counter()
        try:
            for argv in commands:
                ops.append(self._run_command(sptlab, argv, outputs))
        finally:
            wall = time.perf_counter() - t0
            os.chdir(cwd)
        # a policy's unit of work is its fit and its evaluate command
        seconds = {op.name: op.seconds for op in ops}
        cells = [seconds[f"fit {m}.json"] + seconds[f"evaluate {m}.json"]
                 for m in CLI_METHODS]
        return PassResult(wall, len(CLI_METHODS), cells, ops, outputs)

    @staticmethod
    def _run_command(sptlab, argv, outputs) -> Op:
        target = argv[argv.index("--out" if "--out" in argv else "--tree") + 1]
        label = f"{argv[0]} {target}"
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = sptlab.cli.main(argv)
        except (Exception, SystemExit) as exc:
            return Op(label, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if code != 0:
            return Op(label, seconds, f"exit code {code}")
        if argv[0] == "evaluate":
            printed = out.getvalue().strip()
            try:
                value = float(printed)
            except ValueError:
                return Op(label, seconds, f"printed {printed!r}")
            if not math.isfinite(value):
                return Op(label, seconds, f"printed {printed!r}")
            outputs[label] = printed
            return Op(label, seconds)
        path = target
        try:
            outputs[label] = sha256_file(path)
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as f:
                    json.load(f)
            elif path.endswith(".dot"):
                with open(path, encoding="utf-8") as f:
                    if not f.read().startswith("digraph"):
                        return Op(label, seconds, "DOT output does not start with digraph")
        except (OSError, ValueError) as exc:
            return Op(label, seconds, f"bad output {path}: {exc}")
        return Op(label, seconds)


WORKLOADS = {
    "table1_small": Sweep("table1_small", threads=1),
    "minsplit_sweep": Sweep("minsplit_sweep", threads=2),
    "cli_large_n": CliChain(),
}
