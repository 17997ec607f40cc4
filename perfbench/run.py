#!/usr/bin/env python3
"""sptlab benchmark.

    python3 perfbench/run.py --workload minsplit_sweep --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``.

A run first times set-up: ``SETUP_SAMPLES`` fresh interpreters each import
``sptlab`` and load and validate the workload's plan or CLI arguments
(``probe.py``); ``setup_s`` is their median.  It then runs passes of the
workload in this process: at least one, and another while one as long as
the last would end less than half a pass after ``--seconds``, so a run
measures ``--seconds`` rounded to whole passes.  It checks every
operation's output, and prints one ``name = value unit`` line per metric
and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the first pass runs untraced and every later pass traced
(see ``layers.py``); the metrics are the per-layer ones, per traced pass, and
``trace.overhead_s`` is traced minus untraced pass wall time.  With
``--workload all`` the workloads share one process, so each one's
``peak_rss_mb`` is the peak so far.

Outputs are checked against ``reference.json`` when it holds digests for the
seed, and otherwise against seed-independent invariants and the first pass
of the run.  Observed digests are written to ``.perfbench_work/`` so that the
reference can be re-recorded.  ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            loadavg = f.read().split()[:3]
    except OSError:
        loadavg = None
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loadavg_at_start": loadavg}


def measure_setup(name: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter until it reports that
    ``sptlab`` is imported and the workload's plan or arguments validated."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                                cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
        samples.append(elapsed)
    return statistics.median(samples)


def check_outputs(result, expected: dict) -> None:
    """Mark every operation whose output differs from ``expected``, and add
    a failed operation for each expected output that no operation made."""
    for op in result.ops:
        want = expected.get(op.name)
        if op.error is None and want is not None and result.outputs.get(op.name) != want:
            op.error = f"output {result.outputs.get(op.name)} != reference {want}"
    for name in sorted(expected.keys() - {op.name for op in result.ops}):
        result.ops.append(Op(name, None, "expected output was not produced"))


def run_workload(name: str, args, spec: dict) -> dict:
    import sptlab
    import sptlab.cli  # noqa: F401  (not imported by the package itself)
    import layers

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args) | {"workload": name}
    setup_s = measure_setup(name, args.seed)

    with open(HERE / "reference.json", encoding="utf-8") as f:
        expected = json.load(f).get(name, {}).get(str(args.seed))
    inputs = workload.setup(sptlab, args.seed)

    tracer = Tracer()
    workload.install(sptlab, tracer)
    untraced, traced, cpu_s = [], [], 0.0
    start = time.perf_counter()
    try:
        untraced.append(workload.run_pass(sptlab, inputs, str(workdir)))
        # read after one pass, so that the number of passes does not move it
        peak_rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        measured = untraced
        if args.trace:
            tracer.restore()
            tracer = Tracer()
            workload.install(sptlab, tracer)
            layers.install(tracer, sptlab)
            measured = traced
        # another pass runs if one of the last one's length would end less
        # than half a pass after --seconds
        while not measured or (time.perf_counter() - start + measured[-1].wall_s / 2
                               < args.seconds):
            cpu0 = time.process_time()
            measured.append(workload.run_pass(sptlab, inputs, str(workdir)))
            cpu_s += time.process_time() - cpu0
    finally:
        tracer.restore()
    passes = untraced + traced

    reference_kind = "reference.json" if expected else "first pass"
    expected = expected or passes[0].outputs
    for result in passes:
        check_outputs(result, expected)
    ops = [op for result in passes for op in result.ops]
    failed = [op for op in ops if op.error]

    untraced_wall = statistics.median(r.wall_s for r in untraced)
    values = {
        "setup_s": setup_s,
        "wall_s": untraced_wall,
        "policies_per_s": statistics.median(r.policies / r.wall_s for r in untraced),
        "cell_p50_s": statistics.median(s for r in untraced for s in r.cell_seconds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    if args.trace:
        values |= layers.metrics(tracer, len(traced))
        traced_wall = statistics.median(r.wall_s for r in traced)
        values |= {"trace.wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - untraced_wall,
                   "process.cpu_s": cpu_s / len(traced)}
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as f:
            for record in tracer.span_records(start):
                f.write(json.dumps(record) + "\n")

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] not in values:
            raise KeyError(f"BENCHMARK.json names {m['name']!r}, which the run did not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    report = {"env": env, "passes": len(passes), "checked_against": reference_kind,
              "error_rate": len(failed) / len(ops),
              "errors": [f"{op.name}: {op.error}" for op in failed],
              "pass_wall_s": [r.wall_s for r in passes],
              "ops": [[op.name, op.seconds] for op in ops],
              "outputs": passes[0].outputs, "all_values": values}
    with open(workdir / "result.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)

    print("env " + json.dumps(env))
    print(f"{name}: {len(passes)} passes, outputs checked against {reference_kind}")
    for err in report["errors"][:20]:
        print(f"FAILED {err}")
    for key, metric in metrics.items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name} error_rate = {report['error_rate']:.6g} ratio "
          f"({len(failed)} of {len(ops)} operations)")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sptlab" / "__init__.py").is_file():
        print(f"error: no sptlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, spec) for name in names}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": metric for name, r in results.items()
                             for key, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
