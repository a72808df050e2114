"""Long-run reference for the radial-constant output check.

Runs the radial-constant repetition at seeds 2**62 + j (disjoint from the
benchmark's seeds) and prints the mean and standard deviation of the
per-repetition trimmed constant over RADIAL_TRIMMED_REF_REPS repetitions, the
values recorded in workloads.py as RADIAL_TRIMMED_REF.

    python3 perfbench/reference.py
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gmclab  # noqa: E402
from workloads import (RADIAL_N, RADIAL_TRIMMED_REF_REPS,  # noqa: E402
                       WORKLOADS)


def main():
    rep = WORKLOADS["radial-constant"].rep
    vals = [rep(gmclab, 2 ** 62 + j, None, RADIAL_N)["est"].trimmed_estimate
            for j in range(RADIAL_TRIMMED_REF_REPS)]
    print(json.dumps({"reps": RADIAL_TRIMMED_REF_REPS, "n_per_rep": RADIAL_N,
                      "mean": float(np.mean(vals)),
                      "sd": float(np.std(vals, ddof=1)), "values": vals}))


if __name__ == "__main__":
    main()
