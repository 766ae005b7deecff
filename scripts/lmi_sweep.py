#!/usr/bin/env python3
"""Time the LMI admissibility test alone, in Newton steps and ms a step.

    python3 scripts/lmi_sweep.py [--src DIR]

For each state size n in ``SIZES``, runs ``sfos.admissible_via_lmi`` on
``PLANTS`` plants, on each side of the criterion, and prints one line a
size and side, then one JSON object with every figure, by size and side:
decision slots (median a solve), Newton steps (total, median a solve and
total by the solver's status), ms a Newton step (all solves of the size
and side), median solve time, the solver's status counts
(``NumericalFailure`` included) and the verdicts that disagree with the
plant's known spectrum.  For the ``Infeasible`` solves it also gives the
median Newton steps and how many ended in the first centering round (every
iterate at eta = 1): how far the dual bound's witness, the projection onto
A*(Z) = 0, reaches before the central-path bound has to decide.  Each
plant is a block-diagonal stack of random impulse-free blocks of 2-4 states
at order ``ORDER``, mixed by two random orthogonal transforms; a block's
slow spectrum is placed on the stable or the unstable side of the sector
boundary, so the verdict is known.  Even
plants are admissible; odd ones have an unstable first block.  Plants are
drawn from ``SEED``, once for both sides.  ``--src`` is the ``src``
directory to import ``sfos`` from (default: this checkout's), so that two
checkouts can be timed by the same script.  BLAS is pinned to one thread,
as in ``perfbench/run.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

SIZES = (4, 8, 12, 16, 24, 32)
SIDES = ("right", "left")
PLANTS = 8
STATUSES = ("Feasible", "Infeasible", "NumericalFailure")
ORDER = 0.7
SEED = 0
#: Distance of each slow eigenvalue's argument from the sector boundary.
MARGIN = 0.05
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _transform(rng, k):
    """Random well-conditioned k x k matrix."""
    U = np.linalg.qr(rng.standard_normal((k, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return U @ np.diag(rng.uniform(0.5, 2.0, k)) @ V


def block(rng, n, stable):
    """(E, A) of an impulse-free n-state block with a stable or unstable slow part."""
    r = int(rng.integers(1, n))
    half = ORDER * np.pi / 2.0
    parts, left = [], r
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            rho = rng.uniform(0.3, 3.0)
            theta = (rng.uniform(half + MARGIN, np.pi) if stable
                     else rng.uniform(0.0, half - MARGIN))
            a, b = rho * np.cos(theta), rho * np.sin(theta)
            parts.append(np.array([[a, b], [-b, a]]))
            left -= 2
        else:
            lam = rng.uniform(0.3, 3.0)
            parts.append(np.array([[-lam if stable else lam]]))
            left -= 1
    S = _transform(rng, r)
    slow = np.linalg.solve(S, sla.block_diag(*parts) @ S)
    A4 = rng.standard_normal((n - r, n - r)) + np.eye(n - r) * (n - r)
    A2 = rng.standard_normal((r, n - r))
    A3 = rng.standard_normal((n - r, r))
    At = np.block([[slow + A2 @ np.linalg.solve(A4, A3), A2], [A3, A4]])
    M, N = _transform(rng, n), _transform(rng, n)
    return M @ np.diag([1.0] * r + [0.0] * (n - r)) @ N, M @ At @ N


def plant(rng, n, stable):
    """Orthogonally mixed stack of blocks of 2-4 states, n states in all."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(2, 5)), n - sum(sizes)))
    if sizes[-1] == 1:
        sizes[-2:] = [sizes[-2] + 1]
    blocks = [block(rng, k, stable or (i > 0 and bool(rng.integers(0, 2))))
              for i, k in enumerate(sizes)]
    E = sla.block_diag(*(E for E, _ in blocks))
    A = sla.block_diag(*(A for _, A in blocks))
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q1 @ E @ Q2, Q1 @ A @ Q2


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import sfos
    from sfos import synthesis

    # admissible_via_lmi raises on NumericalFailure; keep each solution
    # and its registry's slot count.
    last = {}
    solve = synthesis.solve_feasibility

    def recording_solve(blocks, reg, *a, **kw):
        last["slots"] = reg.num_slots
        last["sol"] = solve(blocks, reg, *a, **kw)
        return last["sol"]
    synthesis.solve_feasibility = recording_solve

    rng = np.random.default_rng(SEED)
    report = {}
    for n in SIZES:
        runs = {side: {"seconds": [], "steps": [], "slots": [], "wrong": 0,
                       "status": dict.fromkeys(STATUSES, 0),
                       "status_steps": dict.fromkeys(STATUSES, 0),
                       "infeasible_steps": [], "first_round": 0}
                for side in SIDES}
        for i in range(PLANTS):
            stable = i % 2 == 0
            E, A = plant(rng, n, stable)
            sysm = sfos.DescriptorSystem(E=E, A=A, B=np.ones((n, 1)),
                                         C=np.ones((1, n)), alpha=ORDER)
            for side in SIDES:
                run = runs[side]
                start = time.perf_counter()
                try:
                    verdict = sfos.admissible_via_lmi(sysm, side)[0]
                except sfos.LmiNumericalError:
                    verdict = None
                run["seconds"].append(time.perf_counter() - start)
                sol = last["sol"]
                run["status"][sol.status] += 1
                run["status_steps"][sol.status] += sol.newton_steps
                run["steps"].append(sol.newton_steps)
                if sol.status == "Infeasible":
                    run["infeasible_steps"].append(sol.newton_steps)
                    run["first_round"] += all(row[0] == 1.0 for row in sol.iterates)
                run["slots"].append(last["slots"])
                run["wrong"] += verdict is not None and verdict != stable
        report[n] = {}
        for side, run in runs.items():
            steps, seconds, status = run["steps"], run["seconds"], run["status"]
            by_status = run["status_steps"]
            infeasible = run["infeasible_steps"]
            r = report[n][side] = {
                "median_slots": statistics.median(run["slots"]),
                "newton_steps": sum(steps),
                "median_steps": statistics.median(steps),
                "ms_per_step": 1e3 * sum(seconds) / sum(steps),
                "median_s": statistics.median(seconds),
                "status": status,
                "status_steps": by_status,
                "infeasible_median_steps": (statistics.median(infeasible)
                                            if infeasible else None),
                "infeasible_first_round": run["first_round"],
                "wrong_verdicts": run["wrong"],
            }
            print(f"n = {n:2d} {side:>5}: {r['median_slots']:g} slots, "
                  f"{r['newton_steps']:5d} steps (median {r['median_steps']:g}; "
                  f"{by_status['Feasible']} Feasible, "
                  f"{by_status['Infeasible']} Infeasible, Infeasible median "
                  f"{r['infeasible_median_steps']}, {run['first_round']} of "
                  f"{len(infeasible)} in the first round), "
                  f"{r['ms_per_step']:.3f} ms a step, median {r['median_s']:.2f} s a solve, "
                  f"{status['Feasible']}/{status['Infeasible']}/{status['NumericalFailure']} "
                  f"Feasible/Infeasible/NumericalFailure, {run['wrong']} wrong", flush=True)
    print(json.dumps({"plants": PLANTS, "order": ORDER, "seed": SEED,
                      "sizes": report}))


if __name__ == "__main__":
    main()
