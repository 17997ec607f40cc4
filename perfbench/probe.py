"""Set-up probe, run in a fresh interpreter by ``run.py``:

    python3 perfbench/probe.py <workload> <seed>

imports ``sptlab``, loads and validates the workload's plan or CLI arguments,
then prints ``ready``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import sptlab  # noqa: E402
import sptlab.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(sptlab, int(sys.argv[2]))
print("ready", flush=True)
