"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 101] [--workload grid-tail ...]

Runs the benchmark RUNS times per workload, each at another seed, and
prints for each end-to-end metric its median and its interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``), next to a third
of the metric's bound from BENCHMARK.json.  Raw results are appended to
.perfbench_runs/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    os.makedirs(os.path.join(ROOT, ".perfbench_runs"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench_runs", "spread.jsonl")
    steady = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(RUNS):
            seed = args.first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **result}) + "\n")
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: output check failed")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            ok = spread < m["bound"] / 3
            steady &= ok
            print(f"{workload:16s} {m['name']:12s} median "
                  f"{statistics.median(vals):10.4g} {m['unit']:3s} "
                  f"spread {spread:.4f} (third of bound "
                  f"{m['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
