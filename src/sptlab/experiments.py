"""Benchmark sweep runner: generates synthetic worlds, fits all requested
policies, scores them counterfactually, and emits machine-readable results."""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from . import baselines, synth
from .dataset import Dataset, PriceGrid, percentile_grid, split_halves
from .evaluation import expected_revenue
from .rng import derive_seed
from .spt import FitConfig, fit_spt
from .teacher import (GbtConfig, TeacherGridPolicy, TeacherModel, fit_gbt,
                      probability_matrix, revenue_matrix)

POLICY_NAMES = ("spt", "pt", "ct", "naive", "teacher", "const", "optimal",
                "no_change")
# The policies ``fit_policy`` fits, for a sweep cell and for ``sptlab fit``,
# and those of them that learn from the teacher rather than the sales.
FITTED_POLICIES = ("spt", "pt", "ct", "naive", "const")
TEACHER_POLICIES = ("spt", "naive", "const")
RESULT_COLUMNS = ("spec", "policy", "depth", "minsplit", "n_train", "seed",
                  "mean_revenue", "n_leaves")

# Salts for per-cell derived seeds (documented; see rng module).
_SALT_TEST = 1
_SALT_CT = 2
_SALT_HALVES = 3


class PlanError(ValueError):
    """Invalid experiment plan."""


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative sweep description; see README for the JSON schema."""

    specs: tuple[int, ...]
    n_train: tuple[int, ...] = (5000,)
    depths: tuple[int, ...] | None = (3,)
    minsplits: tuple[int, ...] | None = None
    reps: int = 10
    base_seed: int = 0
    policies: tuple[str, ...] = ("spt", "pt", "ct", "optimal", "no_change")
    teacher: str = "gbt"
    truth: str = "oracle"
    n_test: int = 5000
    gbt: GbtConfig = GbtConfig()
    name: str = "experiment"

    def __post_init__(self):
        if not self.specs or any(s not in synth.SPEC_IDS for s in self.specs):
            raise PlanError(f"specs must be drawn from {synth.SPEC_IDS}")
        if (self.depths is None) == (self.minsplits is None):
            raise PlanError("exactly one of depths/minsplits must be set")
        for key in ("n_train", "depths", "minsplits", "policies"):
            if getattr(self, key) is not None and len(getattr(self, key)) == 0:
                raise PlanError(f"plan field {key!r}: needs at least one value")
        key = "depths" if self.depths is not None else "minsplits"
        for value, knob in zip(getattr(self, key), self.knobs):
            try:
                FitConfig.for_knob(*knob)
            except ValueError as exc:
                raise PlanError(f"plan field {key!r}: bad value {value}: {exc}") from None
        for key, value, low in [("reps", self.reps, 1), ("n_test", self.n_test, 1),
                                *(("n_train", n, 20) for n in self.n_train)]:
            if value < low:
                raise PlanError(f"plan field {key!r}: bad value {value}: must be >= {low}")
        bad = [p for p in self.policies if p not in POLICY_NAMES]
        if bad:
            raise PlanError(f"unknown policies {bad}; valid: {POLICY_NAMES}")
        if self.teacher not in ("gbt", "oracle"):
            raise PlanError("teacher must be 'gbt' or 'oracle'")
        if self.truth not in ("oracle", "evaluator"):
            raise PlanError("truth must be 'oracle' or 'evaluator'")

    @property
    def knobs(self) -> tuple[tuple, ...]:
        """The sweep's (depth, minsplit) pairs; the other is None."""
        if self.depths is not None:
            return tuple((d, None) for d in self.depths)
        return tuple((None, ms) for ms in self.minsplits)

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.reps))


# The JSON kind of each plan field: a type, a one-element list for a list of
# that kind, or a tuple of alternatives (None for null).
_PLAN_KINDS = {"specs": [int], "n_train": (int, [int]), "depths": (None, [int]),
               "minsplits": (None, [int]), "reps": int, "base_seed": int,
               "policies": [str], "teacher": str, "truth": str, "n_test": int,
               "gbt": (None, dict), "name": str}
_GBT_KINDS = {f.name: type(f.default) for f in fields(GbtConfig)}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is_kind(value, k) for k in kind)
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple))
                and all(_is_kind(v, kind[0]) for v in value))
    if kind is None:
        return value is None
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and not isinstance(value, bool)


def _check_fields(doc, kinds: dict, where: str) -> None:
    if not isinstance(doc, dict):
        raise PlanError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(kinds)
    if unknown:
        raise PlanError(f"unknown {where} fields {sorted(unknown)}")
    for key, value in doc.items():
        if not _is_kind(value, kinds[key]):
            raise PlanError(f"{where} field {key!r}: bad value {value!r}")


def plan_from_dict(doc: dict) -> ExperimentPlan:
    """A plan from its parsed JSON; a PlanError naming the field for an
    unknown field, a value of the wrong JSON kind, an empty list or a depth
    or minsplit that makes no ``FitConfig``."""
    _check_fields(doc, _PLAN_KINDS, "plan")
    kwargs = {k: tuple(v) if isinstance(v, (list, tuple)) else v
              for k, v in doc.items() if k != "gbt"}
    if isinstance(kwargs.get("n_train"), int):
        kwargs["n_train"] = (kwargs["n_train"],)
    if kwargs.get("minsplits") is not None and "depths" not in doc:
        kwargs["depths"] = None
    if doc.get("gbt"):
        _check_fields(doc["gbt"], _GBT_KINDS, "gbt")
        try:
            kwargs["gbt"] = GbtConfig(**doc["gbt"])
        except ValueError as exc:
            raise PlanError(f"gbt: {exc}") from None
    return ExperimentPlan(**kwargs)


def load_plan(path_or_name) -> ExperimentPlan:
    """Load a plan JSON from a path, or a bundled plan by bare name; a bad
    plan raises a PlanError naming it."""
    path = str(path_or_name)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        bundled = resources.files("sptlab").joinpath(f"plans/{path}.json")
        if not bundled.is_file():
            raise PlanError(f"no plan file or bundled plan named {path!r}")
        text = bundled.read_text(encoding="utf-8")
    try:
        return plan_from_dict(json.loads(text))
    except ValueError as exc:  # PlanError and JSON syntax errors
        raise PlanError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate of one (spec, policy, knob) cell across replications."""

    spec: int
    policy: str
    depth: int | None
    minsplit: int | None
    n_train: int
    mean_revenue: float
    max_revenue: float
    min_revenue: float
    std_error: float
    n_reps: int


@dataclass(frozen=True)
class CellInputs:
    """What every cell of one (spec, n_train, seed) shares, whatever its
    depth or minsplit: the data, the truth, the grid, the fitted teacher and
    its probabilities P[i, k] = f(x_i, p_k) on the learning rows."""

    spec: synth.SyntheticSpec
    learn: Dataset
    test: Dataset
    truth: TeacherModel
    grid: PriceGrid
    teacher: TeacherModel
    probs: np.ndarray | None


def prepare_cell_inputs(plan: ExperimentPlan, spec_id: int, n: int,
                        seed: int) -> CellInputs:
    """Generate the data and fit the truth and teacher for one (spec, n, seed);
    the teacher is queried over the grid once, only if a policy needs it."""
    spec = synth.make_spec(spec_id, seed)
    data = synth.generate(spec, n, seed)
    test = synth.generate(spec, plan.n_test, derive_seed(seed, _SALT_TEST))

    if plan.truth == "evaluator":
        eval_half, learn = split_halves(data, derive_seed(seed, _SALT_HALVES))
        truth = fit_gbt(eval_half, plan.gbt)
    else:
        truth = synth.oracle_teacher(spec)
        learn = data

    grid = percentile_grid(learn.prices)
    teacher_model = (synth.oracle_teacher(spec) if plan.teacher == "oracle"
                     else fit_gbt(learn, plan.gbt))
    probs = None
    if any(p in plan.policies for p in TEACHER_POLICIES):
        probs = probability_matrix(teacher_model, learn.features, grid)
    return CellInputs(spec, learn, test, truth, grid, teacher_model, probs)


def fit_policy(name: str, learn: Dataset, grid: PriceGrid, config: FitConfig,
               seed: int, teacher: TeacherModel | None = None, probs=None):
    """Fit the policy ``name``, one of FITTED_POLICIES, on ``learn``. The
    TEACHER_POLICIES learn from ``probs`` = P[i, k] = f(x_i, p_k) on ``learn``
    over ``grid`` (queried from ``teacher`` when None); pt and ct learn from
    the observed sales, and ``seed`` splits ct's sample in halves."""
    if name not in FITTED_POLICIES:
        raise ValueError(f"unknown fitted policy {name!r}; valid: {FITTED_POLICIES}")
    if name == "naive":
        return baselines.fit_naive_distill(teacher, learn.features, grid, config,
                                           learn.feature_names, targets=probs)
    if name in ("pt", "ct"):
        assign = baselines.assign_treatments(learn.prices, grid)
        if name == "pt":
            return baselines.fit_pt(learn, grid, assign, config)
        return baselines.fit_ct_one_vs_all(learn, grid, assign, config, seed)
    revmat = revenue_matrix(teacher, learn.features, grid, probs)
    if name == "spt":
        return fit_spt(learn.features, revmat, config, learn.feature_names)
    return baselines.constant_price_policy(revmat)


def run_cell(plan: ExperimentPlan, spec_id: int, n: int, seed: int,
             depth=None, minsplit=None, *,
             inputs: CellInputs | None = None) -> list[dict]:
    """One replication at one depth or minsplit: fit every requested policy
    and score it on fresh draws; returns one result row per policy.

    ``inputs`` are the cell's ``prepare_cell_inputs(plan, spec_id, n, seed)``,
    which a sweep builds once and shares across its knob values; without
    them the cell builds its own, with identical results."""
    if inputs is None:
        inputs = prepare_cell_inputs(plan, spec_id, n, seed)
    learn, test, truth, grid = inputs.learn, inputs.test, inputs.truth, inputs.grid
    config = FitConfig.for_knob(depth, minsplit)

    rows = []
    for name in plan.policies:
        if name in FITTED_POLICIES:
            policy = fit_policy(name, learn, grid, config, derive_seed(seed, _SALT_CT),
                                inputs.teacher, inputs.probs)
        elif name == "teacher":
            policy = TeacherGridPolicy(inputs.teacher, grid)
        elif name == "optimal":
            fine = synth.fine_price_grid(float(grid.prices[0]),
                                         float(grid.prices[-1]), 1000)
            policy = synth.OraclePolicy(inputs.spec, fine)
        else:  # no_change; plan validation rules out other names
            policy = None
        rev = (baselines.historical_policy_revenue(test, truth) if policy is None
               else expected_revenue(policy, test.features, truth))
        # n_leaves: mean leaves per one-vs-all tree for ct, 0 for non-tree policies
        rows.append({"spec": spec_id, "policy": name,
                     "depth": -1 if depth is None else depth,
                     "minsplit": config.minsplit, "n_train": n, "seed": seed,
                     "mean_revenue": rev,
                     "n_leaves": round(float(getattr(policy, "n_leaves", 0)), 3)})
    return rows


def _cell_groups(plan: ExperimentPlan) -> list[list[tuple]]:
    """The plan's cells (spec, n, seed, depth, minsplit), grouped by
    (spec, n, seed) so each group shares one ``CellInputs``."""
    return [[(spec_id, n, seed, depth, minsplit) for depth, minsplit in plan.knobs]
            for spec_id in plan.specs for n in plan.n_train for seed in plan.seeds]


def _run_group(plan: ExperimentPlan, cells: list[tuple]) -> list[dict]:
    inputs = prepare_cell_inputs(plan, *cells[0][:3])
    return [row for cell in cells for row in run_cell(plan, *cell, inputs=inputs)]


def run_experiment(plan: ExperimentPlan) -> list[dict]:
    """Run every cell of the plan; rows come back sorted by key so output is
    independent of scheduling.

    Cells are grouped by (spec, n_train, seed): each group generates its data
    and fits its teacher once, then runs ``run_cell`` for each depth or
    minsplit. Up to SPTLAB_THREADS groups run at a time."""
    groups = _cell_groups(plan)
    workers = max(1, int(os.environ.get("SPTLAB_THREADS", "1")))
    if workers == 1:
        nested = [_run_group(plan, cells) for cells in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(lambda cells: _run_group(plan, cells), groups))
    rows = [row for group in nested for row in group]
    rows.sort(key=lambda r: (r["spec"], r["policy"], r["depth"], r["minsplit"],
                             r["n_train"], r["seed"]))
    return rows


def aggregate(rows: list[dict], pool_depths: bool = False) -> list[EvaluationReport]:
    """Mean/max/min and standard error across seeds per cell; optionally pool
    across the depth/minsplit knob as well (matching table-style summaries)."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        key = (r["spec"], r["policy"], None if pool_depths else r["depth"],
               None if pool_depths else r["minsplit"], r["n_train"])
        groups.setdefault(key, []).append(r)
    reports = []
    # typed sort (2000 before 10000); pooled (None) knobs first
    for (spec, policy, depth, minsplit, n_train), grp in sorted(
            groups.items(), key=lambda kv: tuple((x is not None, x) for x in kv[0])):
        revs = np.asarray([g["mean_revenue"] for g in grp])
        se = float(revs.std(ddof=1) / np.sqrt(revs.size)) if revs.size > 1 else 0.0
        reports.append(EvaluationReport(
            spec=spec, policy=policy, depth=depth, minsplit=minsplit,
            n_train=n_train, mean_revenue=float(revs.mean()),
            max_revenue=float(revs.max()), min_revenue=float(revs.min()),
            std_error=se, n_reps=int(revs.size)))
    return reports


def write_results_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([r["spec"], r["policy"], r["depth"], r["minsplit"],
                             r["n_train"], r["seed"], repr(r["mean_revenue"]),
                             repr(r["n_leaves"])])


def read_results_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        rows = []
        for rec in reader:
            rows.append({"spec": int(rec["spec"]), "policy": rec["policy"],
                         "depth": int(rec["depth"]), "minsplit": int(rec["minsplit"]),
                         "n_train": int(rec["n_train"]), "seed": int(rec["seed"]),
                         "mean_revenue": float(rec["mean_revenue"]),
                         "n_leaves": float(rec["n_leaves"])})
    return rows
