"""Set-up probe, run in a fresh interpreter by run.py.

    python3 gfbench/probe.py WORKLOAD OUTDIR

Times the import of groupfuse (and its CLI module) and the building of the
workload's inputs, and prints them as one JSON line.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import groupfuse  # noqa: E402,F401
import groupfuse.cli  # noqa: E402,F401

t1 = perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], Path(sys.argv[2]))
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
