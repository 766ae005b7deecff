#!/usr/bin/env python3
"""Check that this checkout gives a parent commit's answers, bit for bit.

    python3 scripts/same_answers.py --parent REV

The parent is exported with ``git archive`` (``bench_pairs.export``) into a
temporary directory; the change is this checkout as it stands.  Each case
runs once a side, in a process of its own that imports ``sfos`` from that
side's ``src``, with BLAS pinned to one thread:

* ``DESIGNS``: the four demo designs (the paper plant at orders 0.6 and 1.2,
  lifted by k = 2, at the demo decay shifts) and the two k = 3 designs.
  Compared: K, L, K0 and F; each certificate's status, Newton steps, t,
  lower bound, margins, assignment and witness; the closed-loop report.
* ``ADMISSIBILITY_PLANTS`` seeded ``perfbench/plants.py`` blocks of 2-4
  states, each tested on both sides of the criterion: the verdict and
  solution of each LMI, or the error it raises.
* ``PENCIL_SIZES``: seeded ``perfbench/plants.py`` stacked plants of 3-32
  states, the sizes of the benchmark's ``screen`` workload, one stable and
  one not at each size: the ``sfos.analyze`` report of each, as JSON.
* ``ANALYZE``: ``sfos analyze`` on the paper plant at orders 0.6 and 1.2;
  ``SYNTH``: ``sfos synth`` at orders 0.6 and 1.2 in both modes, whose
  design JSON holds each solve's iterates; ``SIMULATE``: ``sfos simulate``
  of the published order-0.6 output gain from an x0 off the algebraic
  constraint, which the simulator projects; ``DEMOS``: ``sfos demo`` at its
  default h and T.
  Compared: exit code, stdout, stderr and every file written, byte for byte,
  except that each warning's source file and line are dropped from stderr.

Arrays are compared with ``np.array_equal``.  Every mismatch is printed;
the exit code is 1 on any, else 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

from bench_pairs import ROOT, SIDES, export, git  # noqa: E402

#: The paper's 3-state plant.
PLANT = {"E": [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
         "A": [[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]],
         "B": [[1.0], [1.0], [1.0]],
         "C": [[1.0, 0.0, 1.0]]}

#: (mode, order, lifting factor, synthesis keywords) of each design.
DESIGNS = (
    ("observer", 0.6, 2, {"decay_shift_state": 2.0, "decay_shift_injection": 6.0}),
    ("output", 0.6, 2, {"decay_shift": 2.0, "seed": 0}),
    ("observer", 1.2, 2, {}),
    ("output", 1.2, 2, {"decay_shift": 1.0, "seed": 0}),
    ("observer", 1.2, 3, {}),
    ("output", 1.2, 3, {"seed": 0}),
)

ADMISSIBILITY_PLANTS = 40
ADMISSIBILITY_SEED = 909

#: The state counts of the ``screen`` workload's pencil requests.
PENCIL_SIZES = (3, 4, 6, 8, 10, 12, 16, 20, 24, 32)
PENCIL_SEED = 911

ANALYZE = (0.6, 1.2)
SYNTH = tuple((alpha, mode) for alpha in (0.6, 1.2)
              for mode in ("observer", "output"))
#: The published order-0.6 output gain, run from an x0 that violates the
#: algebraic row (4 + F) x1 + x2 + (F - 4) x3 = 0 of its closed loop.
SIMULATE = {"system": dict(PLANT, alpha=0.6), "gains": {"F": [[-3.6723]]},
            "simulation": {"x0": [1.0, 0.0, 0.0], "T": 2.0}}
DEMOS = ("example1", "example2")

CERTIFICATE_FIELDS = ("status", "newton_steps", "t", "lower_bound", "margins",
                      "assignment", "witness")


def _import_sfos(src):
    sys.path.insert(0, src)
    import sfos
    if not sfos.__file__.startswith(src):
        raise RuntimeError(f"sfos came from {sfos.__file__}, not {src}")
    return sfos


def _solution(sol):
    return {key: getattr(sol, key) for key in CERTIFICATE_FIELDS}


def run_design(src, case):
    """Gains and certificates of one design, by field."""
    sfos = _import_sfos(src)
    mode, alpha, k, kwargs = case
    plant = sfos.DescriptorSystem(alpha=alpha, **{
        name: np.array(value) for name, value in PLANT.items()})
    synth = sfos.synth_observer if mode == "observer" else sfos.synth_output_feedback
    design = synth(sfos.lifting.as_plant(plant, k), **kwargs)
    out = {name: getattr(design, name) for name in ("K", "L", "K0", "F")
           if hasattr(design, name)}
    for name, cert in design.certificates.items():
        out.update({f"{name}.{key}": value
                    for key, value in _solution(cert).items()})
    out["closed_loop_report"] = json.dumps(design.closed_loop_report.to_dict(),
                                           sort_keys=True)
    return out


def run_admissibility(src, plants):
    """Verdict and solution of each plant's LMI on each side, by field."""
    sfos = _import_sfos(src)
    out = {}
    for i, (E, A, alpha) in enumerate(plants):
        n = len(E)
        plant = sfos.DescriptorSystem(E=E, A=A, B=np.ones((n, 1)),
                                      C=np.ones((1, n)), alpha=alpha)
        for side in ("right", "left"):
            key = f"plant {i} {side}"
            try:
                verdict, sol = sfos.admissible_via_lmi(plant, side)
            except sfos.SfosError as exc:
                out[f"{key}.error"] = f"{type(exc).__name__}: {exc}"
                continue
            out[f"{key}.verdict"] = verdict
            out.update({f"{key}.{name}": value
                        for name, value in _solution(sol).items()})
    return out


def admissibility_plants():
    """(E, A, alpha) of each plant; even ones are admissible."""
    sys.path.insert(0, ROOT)
    from perfbench import plants
    rng = np.random.default_rng(ADMISSIBILITY_SEED)
    out = []
    for i in range(ADMISSIBILITY_PLANTS):
        n = int(rng.integers(2, 5))
        alpha = float(rng.uniform(0.3, 1.0))
        p = plants.block(rng, n, int(rng.integers(1, n)), alpha, i % 2 == 0)
        out.append((p.E, p.A, alpha))
    return out


def run_pencil(src, plants):
    """Each plant's ``sfos.analyze`` report as sorted JSON, or its error."""
    sfos = _import_sfos(src)
    out = {}
    for i, (E, A, alpha) in enumerate(plants):
        n = len(E)
        try:
            report = sfos.analyze(sfos.DescriptorSystem(
                E=E, A=A, B=np.ones((n, 1)), C=np.ones((1, n)), alpha=alpha))
            out[f"plant {i} n={n}"] = json.dumps(report.to_dict(), sort_keys=True)
        except sfos.SfosError as exc:
            out[f"plant {i} n={n}.error"] = f"{type(exc).__name__}: {exc}"
    return out


def pencil_plants():
    """(E, A, alpha) of each stacked plant; even ones are admissible."""
    sys.path.insert(0, ROOT)
    from perfbench import plants
    rng = np.random.default_rng(PENCIL_SEED)
    out = []
    for n in PENCIL_SIZES:
        for stable in (True, False):
            p = plants.stacked_plant(rng, n, float(rng.uniform(0.3, 0.95)), stable)
            out.append((p.E, p.A, p.alpha))
    return out


#: A warning as Python prints it: "file:line: Category: message", then the
#: source line.  The file and line differ between sides; the rest must not.
_WARNING = re.compile(rb"^\S+:\d+: (\w+: .*\n)(?:  .*\n)?", re.M)


def run_cli(root, argv, problem=None):
    """Exit code, stdout, stderr and written files of one ``sfos`` call."""
    with tempfile.TemporaryDirectory(prefix="same-answers-") as cwd:
        if problem is not None:
            with open(os.path.join(cwd, "problem.json"), "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "sfos.cli", *argv], cwd=cwd,
                              env=env, capture_output=True)
        out = {"exit": proc.returncode, "stdout": proc.stdout,
               "stderr": _WARNING.sub(rb"\1", proc.stderr)}
        for base, _, files in os.walk(cwd):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, cwd)] = fh.read()
        return out


def same(a, b):
    """Equal values; arrays by np.array_equal, NaN equal to NaN."""
    if isinstance(a, (str, bytes)) or a is None or b is None:
        return type(a) is type(b) and a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


MISSING = "<missing>"


def describe(a, b):
    """One line on how two unequal values differ."""
    if not isinstance(a, (str, bytes)) and a is not None \
            and not isinstance(b, (str, bytes)) and b is not None:
        x, y = np.asarray(a), np.asarray(b)
        if x.shape == y.shape and x.size > 1:
            return (f"{np.count_nonzero(x != y)} of {x.size} entries differ, "
                    f"by up to {np.nanmax(np.abs(x - y)):.3g}")
    return " vs ".join(text if len(text) <= 80 else text[:80] + "..."
                       for text in (repr(a), repr(b)))


def compare(case, results):
    """Print the case's mismatches; returns how many there are."""
    parent, change = (results[side] for side in SIDES)
    diffs = [key for key in sorted(parent.keys() | change.keys())
             if key not in parent or key not in change
             or not same(parent[key], change[key])]
    for key in diffs:
        print(f"DIFF  {case}: {key}: "
              f"{describe(parent.get(key, MISSING), change.get(key, MISSING))}")
    print(f"{'same' if not diffs else 'FAIL'}  {case} ({len(parent)} fields)",
          flush=True)
    return len(diffs)


def steps(result):
    names = sorted({key.split(".")[0] for key in result if key.endswith(".status")})
    return ", ".join(f"{name} {result[name + '.status']} "
                     f"{result[name + '.newton_steps']}" for name in names)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    args = p.parse_args(argv)

    diffs = 0
    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="same-answers-parent-") as parent_root, \
            ProcessPoolExecutor(1, mp_context=context, max_tasks_per_child=1) as pool:
        export(git("rev-parse", args.parent), parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        srcs = {side: os.path.join(root, "src") for side, root in roots.items()}

        def each_side(func, *case):
            return {side: pool.submit(func, srcs[side], *case).result()
                    for side in SIDES}

        for case in DESIGNS:
            results = each_side(run_design, case)
            mode, alpha, k, _ = case
            diffs += compare(f"design {mode} alpha={alpha} k={k} "
                             f"[{steps(results['change'])}]", results)
        plants = admissibility_plants()
        diffs += compare(f"{2 * len(plants)} admissibility LMIs",
                         each_side(run_admissibility, plants))
        pencils = pencil_plants()
        diffs += compare(f"{len(pencils)} pencil reports",
                         each_side(run_pencil, pencils))
        for alpha in ANALYZE:
            problem = {"system": dict(PLANT, alpha=alpha)}
            diffs += compare(f"sfos analyze alpha={alpha}",
                             {side: run_cli(root, ["analyze", "problem.json"],
                                            problem)
                              for side, root in roots.items()})
        for alpha, mode in SYNTH:
            argv = ["synth", "problem.json", "--mode", mode]
            problem = {"system": dict(PLANT, alpha=alpha)}
            diffs += compare(f"sfos synth alpha={alpha} --mode {mode}",
                             {side: run_cli(root, argv, problem)
                              for side, root in roots.items()})
        argv = ["simulate", "problem.json", "--out", "out"]
        diffs += compare("sfos simulate, inconsistent x0",
                         {side: run_cli(root, argv, SIMULATE)
                          for side, root in roots.items()})
        for example in DEMOS:
            diffs += compare(f"sfos demo {example}",
                             {side: run_cli(root, ["demo", example, "--out", "out"])
                              for side, root in roots.items()})
    print(f"{diffs} mismatches")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
