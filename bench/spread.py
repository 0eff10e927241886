"""Run-to-run spread of the end-to-end metrics, for setting bounds.

    python3 bench/spread.py --runs 10

Runs ``run.py`` once per seed (1..runs) on each workload of
BENCHMARK.json, for its ``run_seconds``, one run at a time, and prints
for every metric the median of the runs and the distance between their
first and third quartiles as a share of that median.  A bound in
BENCHMARK.json should be at least three times that share.  The raw values go to ``bench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            runs.append(json.loads(out.splitlines()[-1]))
        raw[wl] = runs
        print(f"{wl}: correct {all(r['correct'] for r in runs)}, failed "
              f"{sorted({(r['failed'], r['attempted']) for r in runs})}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            print(f"  {name:12s} median {med:10.4f}  spread {share:6.3f}"
                  f"  bound {bound}{'  WIDE' if 3 * share > bound else ''}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
