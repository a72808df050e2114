"""gmclab benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid-tail --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) with its own fresh directory under
.perfbench_runs/, so no record or cache of an earlier run is reused and peak
memory is the run's own.  GMCLAB_THREADS and the BLAS thread count are pinned
to one each, so together they stay within a two-core machine.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with the
end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer metrics
for --trace 1.  ``--workload all`` runs every workload in turn and prints one
such line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
WORKER_TIMEOUT_S = 170
PINNED_THREADS = {"GMCLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_one(workload: str, seed: int, seconds: int, trace: int):
    """Run the worker; return (its stdout lines, result dict) or raise."""
    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-trace{trace}-",
                               dir=RUNS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_THREADS},
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code "
                           f"{proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "gmclab", "__init__.py")):
        print("error: src/gmclab not found; run from a gmclab source checkout",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        parser.error("--seed must lie in [0, 2**40)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")

    for workload in names if args.workload == "all" else [args.workload]:
        try:
            lines, result = run_one(workload, args.seed, args.seconds,
                                    args.trace)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        for name, m in result["metrics"].items():
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
