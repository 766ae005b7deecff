#!/usr/bin/env python3
"""Time the Grünwald–Letnikov march alone, in µs a step, against state size.

    python3 scripts/march_sweep.py [--src DIR]

Marches a stable plant with n states, for each n in ``SIZES``, through
``sfos.simulator._march`` for ``STEPS`` steps.  It prints one line a size,
then one JSON object with every figure: the best of ``REPEATS`` timed runs,
the peak memory that one more, traced run allocates (``tracemalloc``,
which counts numpy's arrays; the trajectory itself is STEPS x n doubles),
and where one more run spends its time, in us a step: leaf products, direct
far fields and FFT far fields (the history sums of recursion nodes up to and
above ``DIRECT_STEPS`` steps).  The rest of a step is set-up and call
overhead.  That run times each callback call, which adds about 0.4 us a
call, so its parts are read against each other, not against the best time.
Each plant is E = I and A = Q diag(-lambda) Q^T, with lambda in [0.5, 2]
and Q a random orthogonal matrix drawn from a fixed seed, at order 0.7 and
h = 1e-3.  ``--src`` is the ``src`` directory to import ``sfos`` from
(default: this checkout's), so that two checkouts can be timed by the same
script.  BLAS is pinned to one thread, as in ``perfbench/run.py``, unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (1, 3, 6, 12, 24, 48, 96, 192, 400)
STEPS = 20_000
REPEATS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def plant(n, rng):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T
    return np.eye(n), A, rng.standard_normal(n)


@contextlib.contextmanager
def history_clock(simulator):
    """Seconds spent in leaves and far fields, by kind, during one march.

    ``_march`` passes its two callbacks to one outermost ``_halve`` call;
    only that call's callbacks are wrapped.  The recursion looks ``_halve``
    up by name, so the wrapper restores the untimed function before it
    runs: wrapping every recursive call would time nested calls twice.
    """
    totals = {"leaf": 0.0, "direct": 0.0, "fft": 0.0}
    halve = simulator._halve

    def leaf(callback):
        def timed(lo, hi):
            start = time.perf_counter()
            callback(lo, hi)
            totals["leaf"] += time.perf_counter() - start
        return timed

    def far_field(callback):
        def timed(lo, mid, hi):
            start = time.perf_counter()
            callback(lo, mid, hi)
            kind = "direct" if hi - lo <= simulator.DIRECT_STEPS else "fft"
            totals[kind] += time.perf_counter() - start
        return timed

    def outermost(lo, hi, leaf_steps, leaf_cb, far_field_cb):
        simulator._halve = halve
        halve(lo, hi, leaf_steps, leaf(leaf_cb), far_field(far_field_cb))

    simulator._halve = outermost
    try:
        yield totals
    finally:
        simulator._halve = halve


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from sfos import simulator

    rng = np.random.default_rng(0)
    us, mb, parts = {}, {}, {}
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
        with history_clock(simulator) as totals:
            simulator._march(E, A, x0, 0.7, 1e-3, STEPS)
        us[n], mb[n] = 1e6 * best / STEPS, peak / 2**20
        parts[n] = {k: 1e6 * v / STEPS for k, v in totals.items()}
        print(f"n = {n:3d}: {us[n]:7.2f} us a step (leaf "
              f"{parts[n]['leaf']:.2f}, direct {parts[n]['direct']:.2f}, "
              f"fft {parts[n]['fft']:.2f}), peak {mb[n]:6.1f} MB", flush=True)
    print(json.dumps({"steps": STEPS, "us_per_step": us,
                      "history_us_per_step": parts, "peak_mb": mb}))


if __name__ == "__main__":
    main()
