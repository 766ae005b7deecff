#!/usr/bin/env python3
"""Cost of one pencil analysis on regular, singular and near-singular pencils.

    python3 scripts/pencil_sweep.py [--src DIR] [--repeats N] [--out FILE]

For each n in ``SIZES`` and each kind, ``PENCILS`` seeded pairs (E, A) are
built once:

* ``regular``: ``perfbench/plants.py`` stacked plants, as the benchmark's
  ``screen`` workload draws them, stable and unstable in turn;
* ``singular``: :func:`singular`, a pencil whose sE - A has a zero column
  in hidden coordinates, so det(sE - A) vanishes at every s;
* ``near_singular``: :func:`near_singular`, the singular pencil plus a
  perturbation of size 1e-15, 1e-14, ..., 1e-10 in turn, so that the first
  regularity probe's sigma_min falls below, between and above its two
  thresholds, tol * (||E||_2 + ||A||_2) and tol * (||E||_2 + ||A||_F).

Each kind and size is timed ``--repeats`` times (default ``REPEATS``) after
one untimed pass, a pass being one ``sfos.descriptor.analyze_pair`` call on
every pair; each timed sample repeats the pass for about ``SAMPLE_S``.
The median microseconds per call go to ``--out`` (default: stdout) as one
JSON object, with how many pairs each kind judged regular and a SHA-256 of
the reports' ``repr``, so that two checkouts can be seen to give the same
reports.  ``--src`` is the ``src`` directory to import ``sfos`` from
(default: this checkout's).  BLAS is pinned to one thread, as in
``perfbench/run.py``.  :func:`near_singular_sweep` is the finer ladder that
``scripts/same_answers.py`` compares.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (3, 8, 16, 32, 64)
PENCILS = 6
REPEATS = 21
#: Seconds of calls in one timed sample.
SAMPLE_S = 0.01
SEED = 27
ALPHA = 0.7
#: Perturbation sizes of the near-singular pencils: 1e-15 to 1e-9, eight to
#: a decade, so that the first probe's sigma_min (about 0.05-0.3 eps here)
#: steps across both of its thresholds, about 1e-13 apart by a factor of
#: 1.4 (n = 3) to 7 (n = 64).
NEAR_EPS = tuple(10.0 ** (-15 + k / 8) for k in range(49))
#: State counts of :func:`near_singular_sweep`.
NEAR_SIZES = (3, 6, 16)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def singular(rng, n):
    """A singular pair (E, A) of n >= 2 states whose A has n - 1 equal
    singular values.

    In coordinates Q1 (.) Q2^T both E and A have a zero last column, so
    sE - A has the common null vector Q2 e_n.  A's other singular values
    are all 1, so ||A||_F = sqrt(n - 1) ||A||_2, and E (rank n - 2 at most,
    ||E||_2 about 0.1) keeps the regularity threshold near tol * ||A||.
    """
    Q1, Q2 = _orthogonal(rng, n), _orthogonal(rng, n)
    DE = np.zeros((n, n))
    DE[:, :n - 2] = 0.1 * _orthogonal(rng, n)[:, :n - 2]
    DA = np.diag([1.0] * (n - 1) + [0.0])
    return Q1 @ DE @ Q2.T, Q1 @ DA @ Q2.T


def near_singular(rng, n, eps):
    """:func:`singular` plus eps times a random direction of unit 2-norm."""
    E, A = singular(rng, n)
    P = rng.standard_normal((n, n))
    return E, A + eps * P / np.linalg.norm(P, 2)


def near_singular_sweep(seed=SEED):
    """:func:`near_singular` at every ``NEAR_EPS``, from one singular pencil
    and one direction a size in ``NEAR_SIZES``: the first probe's sigma_min
    crosses both thresholds, so every branch of the regularity test runs."""
    return [near_singular(np.random.default_rng([seed, n]), n, eps)
            for n in NEAR_SIZES for eps in NEAR_EPS]


def pencils(rng, kind, n):
    """``PENCILS`` pairs of one kind and size."""
    if kind == "regular":
        sys.path.insert(0, ROOT)
        from perfbench import plants
        stacked = (plants.stacked_plant(rng, n, ALPHA, i % 2 == 0)
                   for i in range(PENCILS))
        return [(p.E, p.A) for p in stacked]
    if kind == "singular":
        return [singular(rng, n) for _ in range(PENCILS)]
    return [near_singular(rng, n, NEAR_EPS[8 * (i % 6)]) for i in range(PENCILS)]


def median_us(func, pairs, repeats):
    """Median over ``repeats`` samples of the microseconds per call.

    A sample is as many passes over ``pairs`` as fill ``SAMPLE_S`` (at
    least one), so that timer and scheduler noise stay small beside it.
    """
    def one_pass():
        start = time.perf_counter()
        for E, A in pairs:
            func(E, A, ALPHA)
        return time.perf_counter() - start

    passes = max(1, math.ceil(SAMPLE_S / one_pass()))
    samples = [sum(one_pass() for _ in range(passes)) for _ in range(repeats)]
    return 1e6 * statistics.median(samples) / (passes * len(pairs))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--repeats", type=int, default=REPEATS)
    p.add_argument("--out", default=None, help="JSON file to write")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from sfos.descriptor import analyze_pair

    rng = np.random.default_rng(SEED)
    rows = []
    for kind in ("regular", "singular", "near_singular"):
        for n in SIZES:
            pairs = pencils(rng, kind, n)
            reports = [analyze_pair(E, A, ALPHA) for E, A in pairs]
            rows.append({
                "kind": kind,
                "n": n,
                "us_per_call": median_us(analyze_pair, pairs, args.repeats),
                "judged_regular": sum(rep.regular for rep in reports),
                "reports_sha256": hashlib.sha256(
                    repr(reports).encode()).hexdigest(),
            })
            print(f"{kind:13s} n={n:2d}: {rows[-1]['us_per_call']:8.1f} us/call, "
                  f"{rows[-1]['judged_regular']}/{len(pairs)} regular",
                  file=sys.stderr, flush=True)
    record = {"src": os.path.abspath(args.src), "repeats": args.repeats,
              "pencils": PENCILS, "seed": SEED,
              "host": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "sizes": rows}
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
