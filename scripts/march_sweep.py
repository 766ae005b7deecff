#!/usr/bin/env python3
"""Time the Grünwald–Letnikov march alone, in µs a step, against state size.

    python3 scripts/march_sweep.py [--src DIR]

Marches a stable plant with n states, for each n in ``SIZES``, through
``sfos.simulator._march`` for ``STEPS`` steps.  It prints one line a size,
then one JSON object with every figure: the best of ``REPEATS`` timed runs,
and the peak memory that one more, traced run allocates (``tracemalloc``,
which counts numpy's arrays; the trajectory itself is STEPS x n doubles).
Each plant is E = I and A = Q diag(-lambda) Q^T, with lambda in [0.5, 2]
and Q a random orthogonal matrix drawn from a fixed seed, at order 0.7 and
h = 1e-3.  ``--src`` is the ``src`` directory to import ``sfos`` from
(default: this checkout's), so that two checkouts can be timed by the same
script.  BLAS is pinned to one thread, as in ``perfbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (1, 3, 6, 12, 24, 48, 96, 192)
STEPS = 20_000
REPEATS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def plant(n, rng):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T
    return np.eye(n), A, rng.standard_normal(n)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from sfos import simulator

    rng = np.random.default_rng(0)
    us, mb = {}, {}
    for n in SIZES:
        E, A, x0 = plant(n, rng)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            simulator._march(E, A, x0, 0.7, 1e-3, STEPS)
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        simulator._march(E, A, x0, 0.7, 1e-3, STEPS)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        us[n], mb[n] = 1e6 * best / STEPS, peak / 2**20
        print(f"n = {n:3d}: {us[n]:7.2f} us a step, peak {mb[n]:6.1f} MB",
              flush=True)
    print(json.dumps({"steps": STEPS, "us_per_step": us, "peak_mb": mb}))


if __name__ == "__main__":
    main()
