#!/usr/bin/env python3
"""Outcome of the output-feedback design and its retries on random plants.

    python3 scripts/retry_sweep.py [--src DIR] [--plant-seed N]

Runs ``sfos.synth_output_feedback`` (no decay shift) on two families of
open-loop unstable plants drawn by ``random_impulse_free_system`` from
``tests/conftest.py``, each family from
``np.random.default_rng(--plant-seed)`` (default ``PLANT_SEED``):

* ``siso``: an order drawn from ``SISO_ORDERS`` before each plant; draws the
  generator marks stable are skipped until there are ``SISO_PLANTS``.
* ``lifted``: a base order a0 drawn from ``LIFTED_BASE_ORDERS``, the plant
  taken at order 2 a0 in (1, 2) and designed on as it is; draws that
  ``sfos.analyze`` calls stable are skipped until there are
  ``LIFTED_PLANTS``.  The family keeps its name for its draws.

Every plant is single-input, single-output (B and C are all ones), so a
design exists iff some scalar F places the closed-loop pencil in the
sector.  The oracle ``f_exists`` sweeps F over ``F_GRID`` (+-|F| in
[1e-3, 1e3], 3000 points) and asks ``sfos.analyze_pair`` (QZ) whether
(E, A + B F C) is admissible at the plant's own order; it is exact up to
the grid's resolution, and independent of the LMIs.

Prints one line a plant: its outcome ("designed" or the error's class),
the attempt that won or ended the design (0 is the first K0, solved on
the plant itself; counted as stage-1 solves less one), whether an F
exists, and the wall time of the design; then one JSON object with every
plant, outcome counts, outcome counts split by the oracle, winning
attempts and total seconds per family.  ``--src`` is the ``src``
directory to import ``sfos`` from (default: this checkout's), so that two
checkouts run the same plants.  BLAS is pinned to one thread, as in
``perfbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

PLANT_SEED = 11
SISO_ORDERS = (0.4, 0.6, 0.8)
SISO_PLANTS = 60
LIFTED_BASE_ORDERS = (0.6, 0.7, 0.8)
LIFTED_PLANTS = 30
#: The F values the oracle tries: +-|F| on a log grid over [1e-3, 1e3].
F_GRID = np.concatenate([s * np.logspace(-3.0, 3.0, 1500) for s in (1.0, -1.0)])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def siso_plants(draw, seed):
    """Each open-loop unstable draw at an order in SISO_ORDERS."""
    rng = np.random.default_rng(seed)
    while True:
        sysm, stable = draw(rng, rng.choice(SISO_ORDERS))
        if not stable:
            yield sysm


def lifted_plants(sfos, draw, seed):
    """Each draw at order 2 a0 that analyze calls unstable."""
    rng = np.random.default_rng(seed)
    while True:
        base, _ = draw(rng, rng.choice(LIFTED_BASE_ORDERS))
        sysm = sfos.DescriptorSystem(E=base.E, A=base.A, B=base.B, C=base.C,
                                     alpha=2.0 * base.alpha)
        if not sfos.analyze(sysm).stable:
            yield sysm


def f_exists(sfos, sysm):
    """Whether some F of F_GRID makes (E, A + B F C) admissible, by QZ."""
    return any(sfos.analyze_pair(sysm.E, sysm.A + f * sysm.B @ sysm.C,
                                 sysm.alpha).admissible for f in F_GRID)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--plant-seed", type=int, default=PLANT_SEED,
                   help="seed of both families' plant generators")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    import sfos
    from sfos import synthesis
    from conftest import random_impulse_free_system

    # Each attempt solves stage 1 once: count the solves.
    stage1 = []
    solve = synthesis.solve_state_feedback

    def counted(*a, **kw):
        stage1.append(None)
        return solve(*a, **kw)
    synthesis.solve_state_feedback = counted

    report = {}
    draw = random_impulse_free_system
    for family, plants, count in (
            ("siso", siso_plants(draw, args.plant_seed), SISO_PLANTS),
            ("lifted", lifted_plants(sfos, draw, args.plant_seed),
             LIFTED_PLANTS)):
        rows = []
        for i, sysm in zip(range(count), plants):
            stage1.clear()
            start = time.perf_counter()
            try:
                sfos.synth_output_feedback(sysm)
                outcome, error = "designed", None
            except sfos.SfosError as exc:
                outcome, error = type(exc).__name__, str(exc)
            seconds = time.perf_counter() - start
            exists = f_exists(sfos, sysm)
            rows.append({"n": sysm.n, "alpha": sysm.alpha, "outcome": outcome,
                         "attempt": len(stage1) - 1, "f_exists": exists,
                         "seconds": seconds, "error": error})
            print(f"{family} {i:2d}: n = {sysm.n}, alpha = {sysm.alpha:g}, "
                  f"{outcome} at attempt {len(stage1) - 1}, "
                  f"F exists: {'yes' if exists else 'no'}, {seconds:.2f} s",
                  flush=True)
        won = collections.Counter(row["attempt"] for row in rows
                                  if row["outcome"] == "designed")
        by_oracle = {label: dict(collections.Counter(
            row["outcome"] for row in rows if row["f_exists"] == exists))
            for label, exists in (("F exists", True), ("no F", False))}
        report[family] = {
            "outcomes": dict(collections.Counter(row["outcome"] for row in rows)),
            "by_oracle": by_oracle,
            "won_at": {str(a): won[a] for a in sorted(won)},
            "seconds": sum(row["seconds"] for row in rows),
            "plants": rows,
        }
        print(f"{family}: {report[family]['outcomes']}, won at attempt "
              f"{report[family]['won_at']}, {report[family]['seconds']:.1f} s; "
              f"by oracle {by_oracle}", flush=True)
    print(json.dumps({"plant_seed": args.plant_seed, "families": report}))


if __name__ == "__main__":
    main()
