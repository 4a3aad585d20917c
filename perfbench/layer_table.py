"""Per-layer times of one rule, as in the baseline table of ROADMAP item 1.

    python3 perfbench/layer_table.py

Bernstein-Szegő(0.5), m = 0, eta = 1, n = 64, 256, 1024; each cell is the
median of three calls, in ms, on one thread. Prints a markdown table.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import szquad as sq  # noqa: E402
from szquad import rulegen  # noqa: E402


def median_ms(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def main():
    measure = sq.BernsteinSzego(0.5)
    print("| n | phase table | `find_nodes` (incl. table) | weights | moments | exactness | interlacing |")
    print("|---|---|---|---|---|---|---|")
    for n in (64, 256, 1024):
        spec = rulegen.spec_for_rule(measure, n, 0)
        nodes = sq.find_nodes(spec)
        rule = sq.generate_rule(measure, n, 0)
        c = sq.moments(measure, n)
        cells = [
            median_ms(lambda: sq.PhaseFunction(spec)),
            median_ms(lambda: sq.find_nodes(spec)),
            median_ms(lambda: sq.weights_second_kind(spec, nodes)),
            median_ms(lambda: sq.moments(measure, n)),
            median_ms(lambda: sq.check_exactness(rule, c, n)),
            median_ms(lambda: sq.check_interlacing(rule, measure, 0, kappa=np.exp(0.7j))),
        ]
        print(f"| {n} | " + " | ".join(f"{v:.1f} ms" for v in cells) + " |")


if __name__ == "__main__":
    main()
