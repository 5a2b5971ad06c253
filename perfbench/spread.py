"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workload deep_tree --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile distance as a share of the median, next
to the metric's bound from BENCHMARK.json.
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        line = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:>12}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {m['bound']}  spread/bound {spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
