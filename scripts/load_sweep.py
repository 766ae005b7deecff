#!/usr/bin/env python3
"""Cost of loading a problem file against the cost of analyzing it.

    python3 scripts/load_sweep.py [--src DIR] [--repeats N] [--out FILE]

For each n in ``SIZES`` a seeded problem file with dense E (rank n - 2),
A, B (n x 2) and C (2 x n) is written to a temporary directory, as
``json.dump`` writes it.  Three steps are then timed, each ``--repeats``
times (default ``REPEATS``) after one untimed call:

* ``json_load_ms``: opening the file and ``json.load``;
* ``load_problem_ms``: ``sfos.cli.load_problem``, which adds the schema
  check to the step above;
* ``analyze_ms``: ``sfos.analyze`` of the loaded system, built once.

The medians go to ``--out`` (default: stdout) as one JSON object, with the
matrix entries of each file.  ``--src`` is the ``src`` directory to import
``sfos`` from (default: this checkout's), so that two checkouts time the
same files.  BLAS is pinned to one thread, as in ``perfbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (16, 32, 64)
REPEATS = 21
SEED = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problem(rng, n):
    """A dense order-0.7 problem document with n states."""
    E = rng.standard_normal((n, n - 2)) @ rng.standard_normal((n - 2, n))
    return {"system": {"E": E.tolist(),
                       "A": rng.standard_normal((n, n)).tolist(),
                       "B": rng.standard_normal((n, 2)).tolist(),
                       "C": rng.standard_normal((2, n)).tolist(),
                       "alpha": 0.7}}


def median_ms(func, repeats):
    func()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--repeats", type=int, default=REPEATS)
    p.add_argument("--out", default=None, help="JSON file to write")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import sfos
    from sfos import cli

    rng = np.random.default_rng(SEED)
    rows = []
    with tempfile.TemporaryDirectory(prefix="load-sweep-") as tmp:
        for n in SIZES:
            path = os.path.join(tmp, f"problem-{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem(rng, n), fh)

            def read():
                with open(path, encoding="utf-8") as fh:
                    return json.load(fh)
            sysm = sfos.system_from_dict(cli.load_problem(path)["system"])
            rows.append({
                "n": n,
                "entries": 2 * n * n + 4 * n,
                "json_load_ms": median_ms(read, args.repeats),
                "load_problem_ms": median_ms(lambda: cli.load_problem(path),
                                             args.repeats),
                "analyze_ms": median_ms(lambda: sfos.analyze(sysm), args.repeats),
            })
    record = {"src": os.path.abspath(args.src), "repeats": args.repeats,
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
