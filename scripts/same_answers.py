#!/usr/bin/env python3
"""Check that this checkout gives a parent commit's answers, bit for bit.

    python3 scripts/same_answers.py --parent REV

The parent is exported with ``git archive`` (``bench_pairs.export``) into a
temporary directory; the change is this checkout as it stands.  Each case
runs once a side, in a process of its own that imports ``sfos`` from that
side's ``src``, with BLAS pinned to one thread:

* ``DESIGNS``: the four demo designs (the paper plant at orders 0.6 and 1.2
  at the demo decay shifts) and the two order-1.2 designs for k = 3.  Above
  order 1 each is made by ``sfos.synth_*_lifted(plant, k=k)``, whose gains
  are sized for the lift by k on either side of a change to the plant-size
  designs.  Compared: K, L, K0 and F; each certificate's status, Newton
  steps, t, lower bound, margins and assignment; the closed-loop report.
* ``ADMISSIBILITY_PLANTS`` seeded ``perfbench/plants.py`` blocks of 2-4
  states, each tested on both sides of the criterion: the verdict and
  solution of each LMI, or the error it raises.
* ``PENCIL_SIZES``: seeded ``perfbench/plants.py`` stacked plants of 3-32
  states, the sizes of the benchmark's ``screen`` workload, one stable and
  one not at each size: the ``sfos.analyze`` report of each, as JSON.
* ``ANALYZE``: ``sfos analyze`` on the paper plant at orders 0.6 and 1.2,
  and ``sfos.descriptor.analyze_pair`` on ``pencil_sweep.py``'s
  near-singular sweep and a 0 x 0 pair (:func:`analyze_pairs`), whose
  first regularity probe falls below, between and above its two
  thresholds: each report by ``repr``;
  ``SYNTH``: ``sfos synth`` at orders 0.6 and 1.2 in both modes, whose
  design JSON holds each solve's iterates; ``SIMULATE``: ``sfos simulate``
  of the published order-0.6 output gain from an x0 off the algebraic
  constraint, which the simulator projects; ``DEMOS``: ``sfos demo`` at its
  default h and T; ``REFUSED``: ``sfos analyze`` on problem files that the
  schema refuses or that are not JSON, whose error line must not change;
  ``ACCEPTED`` (counted under ``ANALYZE``): ``sfos analyze`` on documents
  at the schema's edges that it accepts, non-finite numbers among them.
  Both lists vary ``FULL``, a document that reaches every subschema.
  Compared: exit code, stdout, stderr and every file written, byte for byte,
  except that each warning's source file and line are dropped from stderr.

Arrays are compared with ``np.array_equal``.  Every mismatch is printed,
then one line a case family: the fields compared, the fields that differ,
and how many of those are ``.verdict`` or ``.error`` fields.  The exit code
is 1 on any mismatch, else 0.
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
from pencil_sweep import near_singular_sweep  # noqa: E402

#: The paper's 3-state plant.
PLANT = {"E": [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
         "A": [[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]],
         "B": [[1.0], [1.0], [1.0]],
         "C": [[1.0, 0.0, 1.0]]}

#: (mode, order, lifting factor above order 1, synthesis keywords) of each design.
DESIGNS = (
    ("observer", 0.6, 2, {"decay_shift_state": 2.0, "decay_shift_injection": 6.0}),
    ("output", 0.6, 2, {"decay_shift": 2.0}),
    ("observer", 1.2, 2, {}),
    ("output", 1.2, 2, {"decay_shift": 1.0}),
    ("observer", 1.2, 3, {}),
    ("output", 1.2, 3, {}),
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

#: A document that reaches every subschema of the problem schema.
FULL = {"system": dict(PLANT, alpha=0.6),
        "synthesis": {"mode": "observer", "decay_shift": 1.0,
                      "decay_shift_state": 2, "decay_shift_injection": 0.5},
        "simulation": {"h": 1e-3, "T": 2, "x0": [-0.25, 2.0, 0.25],
                       "xhat0": [0.0, 0, -1.5], "consistency": "strict",
                       "gate_first_input": True},
        "gains": {"K": [[-3.1656, -0.4720, 2.4146]],
                  "L": [[-0.1821], [0.0996], [0.7768]], "F": [[-3.6723]]}}


def edit(path, value=None, drop=False):
    """FULL with the node at ``path`` set to ``value``, or dropped."""
    doc = json.loads(json.dumps(FULL))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def text(doc, literal):
    """``doc`` as JSON text, with the string "@" written as ``literal``."""
    return json.dumps(doc).replace('"@"', literal)


#: (label, problem file) of each refused analyze: a document that the
#: schema refuses, or text that is not JSON.
REFUSED = (
    ("no system", {}),
    ("not an object", [1, 2]),
    ("extra key", {"system": dict(PLANT, alpha=0.6), "gain": {}}),
    ("alpha 3", {"system": dict(PLANT, alpha=3)}),
    ("alpha string", {"system": dict(PLANT, alpha="0.6")}),
    ("string in A", {"system": dict(PLANT, A=[[1, "2", 3]] * 3, alpha=0.6)}),
    ("true in B", {"system": dict(PLANT, B=[[True], [1], [1]], alpha=0.6)}),
    ("empty E", {"system": dict(PLANT, E=[], alpha=0.6)}),
    ("empty E row", {"system": dict(PLANT, E=[[]], alpha=0.6)}),
    ("no C", {"system": {key: value for key, value in
                         dict(PLANT, alpha=0.6).items() if key != "C"}}),
    ("bad mode", {"system": dict(PLANT, alpha=0.6),
                  "synthesis": {"mode": "state"}}),
    ("bad consistency", {"system": dict(PLANT, alpha=0.6),
                         "simulation": {"consistency": "warn"}}),
    ("two violations", {"system": dict(PLANT, alpha=-1),
                        "gains": {"F": [["x"]]}}),
    ("not JSON", "{not json"),
    ("empty file", ""),
    ("cut short", '{"system": {"E": [[1, 0],'),
    ("trailing comma", '{"system": {},}'),
    ("full, true in A", edit(("system", "A", 1, 2), True)),
    ("full, string in A", edit(("system", "A", 1, 2), "1")),
    ("full, null in A", edit(("system", "A", 1, 2), None)),
    ("full, true shift", edit(("synthesis", "decay_shift"), True)),
    ("full, string shift", edit(("synthesis", "decay_shift"), "1")),
    ("full, null shift", edit(("synthesis", "decay_shift"), None)),
    ("full, -Infinity shift", text(edit(("synthesis", "decay_shift"), "@"),
                                   "-Infinity")),
    ("full, negative shift", edit(("synthesis", "decay_shift_state"), -1e-300)),
    ("full, empty row in K", edit(("gains", "K", 0), [])),
    ("full, empty x0", edit(("simulation", "x0"), [])),
    ("full, alpha 0", edit(("system", "alpha"), 0)),
    ("full, alpha 2", edit(("system", "alpha"), 2.0)),
    ("full, h 0", edit(("simulation", "h"), 0.0)),
    ("full, no alpha", edit(("system", "alpha"), drop=True)),
    ("full, extra key in system", edit(("system", "D"), [[0.0]])),
    ("full, extra key at top", edit(("seed",), 3)),
    ("full, mode Observer", edit(("synthesis", "mode"), "Observer")),
    ("full, consistency PROJECT", edit(("simulation", "consistency"), "PROJECT")),
    ("full, gate 1", edit(("simulation", "gate_first_input"), 1)),
)

#: (label, problem file) of each analyze of a document that the schema
#: accepts: at its edges, and with non-finite numbers, which the schema
#: lets through and the plant refuses.
ACCEPTED = (
    ("full", FULL),
    ("full, alpha 1.999", edit(("system", "alpha"), 1.999)),
    ("full, -0.0 shifts", edit(("synthesis",), {
        "decay_shift": -0.0, "decay_shift_state": -0.0,
        "decay_shift_injection": -0.0})),
    ("full, no gains", edit(("gains",), drop=True)),
    ("full, NaN in A", text(edit(("system", "A", 1, 2), "@"), "NaN")),
    ("full, Infinity in A", text(edit(("system", "A", 1, 2), "@"), "Infinity")),
    ("full, 1e400 in A", text(edit(("system", "A", 1, 2), "@"), "1e400")),
    ("full, NaN shift", text(edit(("synthesis", "decay_shift"), "@"), "NaN")),
    ("full, Infinity shift", text(edit(("synthesis", "decay_shift_state"), "@"),
                                  "Infinity")),
    ("full, 1e400 shift", text(edit(("synthesis", "decay_shift"), "@"), "1e400")),
)

CERTIFICATE_FIELDS = ("status", "newton_steps", "t", "lower_bound", "margins",
                      "assignment")


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
    if alpha > 1.0:
        synth = (sfos.synth_observer_lifted if mode == "observer"
                 else sfos.synth_output_feedback_lifted)
        design = synth(plant, k=k, **kwargs)
    else:
        synth = (sfos.synth_observer if mode == "observer"
                 else sfos.synth_output_feedback)
        design = synth(plant, **kwargs)
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


def analyze_pairs():
    """(E, A) of the near-singular sweep, then a 0 x 0 pair."""
    return near_singular_sweep() + [(np.zeros((0, 0)), np.zeros((0, 0)))]


def run_pairs(src, pairs):
    """Each pair's ``analyze_pair`` report at order 0.7, by ``repr``."""
    _import_sfos(src)
    from sfos.descriptor import analyze_pair
    return {f"pair {i} n={len(E)}": repr(analyze_pair(E, A, 0.7))
            for i, (E, A) in enumerate(pairs)}


#: A warning as Python prints it: "file:line: Category: message", then the
#: source line.  The file and line differ between sides; the rest must not.
_WARNING = re.compile(rb"^\S+:\d+: (\w+: .*\n)(?:  .*\n)?", re.M)


def run_cli(root, argv, problem=None):
    """Exit code, stdout, stderr and written files of one ``sfos`` call.

    ``problem`` is written to ``problem.json``: a string as it is, anything
    else as JSON.
    """
    with tempfile.TemporaryDirectory(prefix="same-answers-") as cwd:
        if problem is not None:
            with open(os.path.join(cwd, "problem.json"), "w", encoding="utf-8") as fh:
                if isinstance(problem, str):
                    fh.write(problem)
                else:
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
    # numpy wraps a long repr over lines: collapse that before cutting, so
    # that each difference stays on its one labelled line.
    texts = (" ".join(repr(value).split()) for value in (a, b))
    return " vs ".join(text if len(text) <= 80 else text[:80] + "..."
                       for text in texts)


class Tally:
    """Fields compared and fields that differ, by case family."""

    def __init__(self):
        self.families = {}

    def compare(self, family, case, results):
        """Print the case's mismatches and count them under ``family``."""
        parent, change = (results[side] for side in SIDES)
        keys = sorted(parent.keys() | change.keys())
        diffs = [key for key in keys
                 if key not in parent or key not in change
                 or not same(parent[key], change[key])]
        for key in diffs:
            print(f"DIFF  {case}: {key}: "
                  f"{describe(parent.get(key, MISSING), change.get(key, MISSING))}")
        print(f"{'same' if not diffs else 'FAIL'}  {case} ({len(parent)} fields)",
              flush=True)
        fields, differ, verdicts = self.families.get(family, (0, 0, 0))
        self.families[family] = (
            fields + len(keys), differ + len(diffs),
            verdicts + sum(key.endswith((".verdict", ".error")) for key in diffs))

    @property
    def mismatches(self):
        return sum(differ for _, differ, _ in self.families.values())

    def summary(self):
        """One line a family: fields compared, differing, verdicts differing."""
        return [f"{family}: {fields} fields compared, {differ} differ, "
                f"{verdicts} .verdict/.error differ"
                for family, (fields, differ, verdicts) in self.families.items()]


def steps(result):
    names = sorted({key.split(".")[0] for key in result if key.endswith(".status")})
    return ", ".join(f"{name} {result[name + '.status']} "
                     f"{result[name + '.newton_steps']}" for name in names)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    args = p.parse_args(argv)

    tally = Tally()
    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="same-answers-parent-") as parent_root, \
            ProcessPoolExecutor(1, mp_context=context, max_tasks_per_child=1) as pool:
        export(git("rev-parse", args.parent), parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        srcs = {side: os.path.join(root, "src") for side, root in roots.items()}

        def each_side(func, *case):
            return {side: pool.submit(func, srcs[side], *case).result()
                    for side in SIDES}

        def each_cli(argv, problem=None):
            return {side: run_cli(root, argv, problem)
                    for side, root in roots.items()}

        for case in DESIGNS:
            results = each_side(run_design, case)
            mode, alpha, k, _ = case
            tally.compare("DESIGNS", f"design {mode} alpha={alpha} k={k} "
                          f"[{steps(results['change'])}]", results)
        plants = admissibility_plants()
        tally.compare("ADMISSIBILITY_PLANTS",
                      f"{2 * len(plants)} admissibility LMIs",
                      each_side(run_admissibility, plants))
        pencils = pencil_plants()
        tally.compare("PENCIL_SIZES", f"{len(pencils)} pencil reports",
                      each_side(run_pencil, pencils))
        for alpha in ANALYZE:
            problem = {"system": dict(PLANT, alpha=alpha)}
            tally.compare("ANALYZE", f"sfos analyze alpha={alpha}",
                          each_cli(["analyze", "problem.json"], problem))
        pairs = analyze_pairs()
        tally.compare("ANALYZE", f"analyze_pair, {len(pairs)} near-singular "
                      "and empty pencils", each_side(run_pairs, pairs))
        for label, problem in ACCEPTED:
            tally.compare("ANALYZE", f"sfos analyze, {label}",
                          each_cli(["analyze", "problem.json"], problem))
        for alpha, mode in SYNTH:
            problem = {"system": dict(PLANT, alpha=alpha)}
            tally.compare("SYNTH", f"sfos synth alpha={alpha} --mode {mode}",
                          each_cli(["synth", "problem.json", "--mode", mode],
                                   problem))
        tally.compare("SIMULATE", "sfos simulate, inconsistent x0",
                      each_cli(["simulate", "problem.json", "--out", "out"],
                               SIMULATE))
        for example in DEMOS:
            tally.compare("DEMOS", f"sfos demo {example}",
                          each_cli(["demo", example, "--out", "out"]))
        for label, problem in REFUSED:
            tally.compare("REFUSED", f"sfos analyze, {label}",
                          each_cli(["analyze", "problem.json"], problem))
    print(f"{tally.mismatches} mismatches")
    for line in tally.summary():
        print(line)
    return 1 if tally.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
