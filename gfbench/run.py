"""Run one groupfuse benchmark workload and print its metrics as JSON.

    python3 gfbench/run.py --workload mc_desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; groupfuse is imported from its ``src/``.
The timed phase runs whole rounds of a fixed set of operations, in an
order drawn from ``--seed``, until ``--seconds`` have passed.  Every
operation is then checked against computations made apart from groupfuse
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS thread.  With OpenBLAS's default two threads on two cores the
# throughput on the desk cells is the same, but a run uses 1.6 CPU-s per
# wall-s and so also competes for the second core.  Set before numpy is
# first imported, here and in the set-up probes that inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("mc_desk", "mc_p3", "cli_air")
SETUP_PROBES = 3


def measure_setup(workload: str) -> tuple[float, float, float]:
    """Median (total, import, inputs) seconds over fresh interpreters.

    One probe runs first unmeasured and writes the byte-code cache, so
    that compiling a fresh checkout is not counted, whether or not the
    calling environment sets PYTHONDONTWRITEBYTECODE.
    """
    cmd = [sys.executable, str(BENCH / "probe.py"), workload,
           str(OUT / workload)]
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return (statistics.median(s["import_s"] + s["inputs_s"] for s in samples),
            statistics.median(s["import_s"] for s in samples),
            statistics.median(s["inputs_s"] for s in samples))


def _plain_span(name, fn, label=None):
    return fn()


def timed_phase(ops, seconds: float, seed: int, tracer=None):
    """Run whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced, starting
    untraced and ending on a traced one, so both kinds see the same drift.
    Returns the outcomes per op and the round times per kind.
    """
    rng = random.Random(seed)
    outcomes = [[] for _ in ops]
    times = {False: [], True: []}
    start = perf_counter()
    traced = True
    while True:
        traced = tracer is not None and not traced
        order = list(range(len(ops)))
        rng.shuffle(order)
        span = _plain_span
        if traced:
            tracer.install()
            span = tracer.span
        t0 = perf_counter()
        try:
            for i in order:
                try:
                    outcome = ops[i].run(span)
                except Exception as exc:  # the operation failed; keep going
                    outcome = ("error", f"{type(exc).__name__}: {exc}")
                outcomes[i].append(outcome)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(perf_counter() - t0)
        if perf_counter() - start >= seconds and (
                tracer is None or traced):
            return outcomes, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "groupfuse" / "__init__.py").is_file():
        print(f"error: no groupfuse sources under {SRC}", file=sys.stderr)
        return 2
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    setup_s, import_s, inputs_s = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import groupfuse

    if Path(groupfuse.__file__).resolve().parent != SRC / "groupfuse":
        print(f"error: groupfuse imported from {groupfuse.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    outdir = OUT / args.workload
    ops = workloads.build(args.workload, outdir)
    ops[0].run(_plain_span)  # warm-up: lazy imports and first-call set-up
    tracer = tracing.Tracer() if args.trace else None
    outcomes, times = timed_phase(ops, args.seconds, args.seed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every repeat of an operation must give the same outcome
    first, deterministic = {}, True
    for op, outs in zip(ops, outcomes):
        ref = first.setdefault(op.name, outs[0])
        deterministic &= all(o == ref for o in outs)
    result = workloads.check(args.workload, ops, first, outdir)

    rounds = len(outcomes[0])
    attempted = failed = 0
    for op, outs in zip(ops, outcomes):
        for o in outs:
            attempted += op.count
            if isinstance(o, tuple) and o and o[0] == "error":
                failed += op.count
            else:
                failed += min(op.count,
                              op.failed(o) + result.bad.get(op.name, 0))
    correct = deterministic and not result.bad
    for note in result.notes:
        print(f"check: {note}", file=sys.stderr)
    if not deterministic:
        print("check: repeats of one operation gave different outcomes",
              file=sys.stderr)

    ops_per_round = sum(op.count for op in ops)
    plain = times[False]
    ops_per_s = len(plain) * ops_per_round / sum(plain)
    print(f"{args.workload}: {rounds} rounds of {ops_per_round} ops, "
          f"round s {[round(t, 3) for t in plain]}", file=sys.stderr)
    if args.trace:
        raw = tracing.layer_metrics(tracer, len(times[True]), ops_per_round,
                                    workloads.CLI_COMMANDS)
        raw["setup.import_ms"] = (import_s * 1e3, "ms")
        raw["setup.inputs_ms"] = (inputs_s * 1e3, "ms")
        raw["solver.obj_gap_rel_max"] = (max(result.lp_gaps, default=0.0),
                                         "1")
        raw["trace.overhead_pct"] = (
            (statistics.mean(times[True]) / statistics.mean(plain) - 1) * 100,
            "%")
    else:
        raw = {"setup_s": (setup_s, "s"), "ops_per_s": (ops_per_s, "1/s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(raw.items())}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
