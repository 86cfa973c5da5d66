"""Steadiness check: run every workload repeatedly and report the spread.

    python3 gfbench/steady.py [--runs 10] [--seed0 1]

Run from the root of a checkout.  It runs every workload of BENCHMARK.json
for its run_seconds.  Run i of each workload uses seed seed0 + i; runs of
different workloads alternate, so each workload's runs spread over the
whole measurement.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json, and the attempted and failed
counts and the wall time of every run; the failed share must be the same
in every run.  Exits 1 if a spread exceeds its
bound, a failed share differs or a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            cmd = [*spec["command"], "--workload", w,
                   "--seed", str(args.seed0 + i),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=True)
            wall = perf_counter() - t0
            res = json.loads(done.stdout.strip().splitlines()[-1])
            results[w].append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{w} seed={args.seed0 + i} wall={wall:.1f}s "
                  f"correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"{vals}", flush=True)

    ok = True
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        same = len(shares) == 1
        ok &= same and all(r["correct"] for r in runs)
        print(f"  failed share {sorted(str(s) for s in shares)} "
              f"{'identical' if same else 'DIFFERS'}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            ok &= within
            print(f"  {m['name']:<12} median {med:.5g} {m['unit']}  "
                  f"q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.2%}  "
                  f"bound {m['bound']:.0%}  "
                  f"{'ok' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
