"""The three benchmark workloads, as lists of timed operations.

Each operation is one call into the public ``sfos`` API (``run``) and an
independent check of its answer (``check``, from :mod:`oracles`).  Inputs
are built once per process from the seed; every pass repeats the same
operations in the same order.

* ``design`` -- the four demo designs on the 3-state paper plant.  Almost
  all time is in the LMI solver; nothing is simulated.
* ``march`` -- the four demo closed loops from the published gains at
  T = 20 and T = 2, plus the scalar order-1/2 relaxation.  Almost all time
  is in the Grünwald-Letnikov history; no LMI is solved.
* ``screen`` -- many small independent requests: pencil analysis, LMI
  admissibility, the CLI ``analyze`` command and short open-loop runs.
  Request costs vary widely from plant to plant, so a run cycles through
  several distinct request sets rather than repeating one, and pass totals
  pool requests of the same shape (kind, size, rank, verdict).

An operation's ``group`` ("light" or "heavy") says which of the
``light_ms`` / ``heavy_ms`` metrics its latency adds to.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import plants
import sfos
from sfos import cli, lifting, synthesis

# The 3-state paper plant and its published gains (copied from the test
# suite so that LMI changes cannot alter the march inputs).
PAPER_E = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
PAPER_A = np.array([[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]])
PAPER_B = np.array([[1.0], [1.0], [1.0]])
PAPER_C = np.array([[1.0, 0.0, 1.0]])
PAPER_X0 = np.array([-0.25, 2.0, 0.25])
GAINS = {
    0.6: {"K": np.array([[-3.1656, -0.4720, 2.4146]]),
          "L": np.array([[-0.1821], [0.0996], [0.7768]]),
          "F": np.array([[-3.6723]])},
    1.2: {"K": np.array([[-0.8663, -0.2339, -0.2990, -1.0001, -0.7116, 0.2144]]),
          "L": np.array([[-1.7022], [0.1766], [-0.0905],
                         [-4.059], [-0.0028], [-6.4078]]),
          "F": np.array([[-0.9515]])},
}
#: Decay shifts of the demos: (state, injection) for the observer, one for output.
DEMO_SHIFTS = {0.6: ((2.0, 6.0), 2.0), 1.2: ((0.0, 0.0), 1.0)}
LIFT_K = 2
STEP = 1e-3


@dataclass
class Op:
    name: str
    kind: str                          # latency class
    run: Callable[[], object]          # the timed call
    check: Callable[[object], object]  # None when the answer is right
    group: str | None = None           # "light" | "heavy" | None
    steps: int = 0                     # simulated steps, if any
    error: Callable | None = None      # relative error against a closed form
    shape: str | None = None           # pass-total class; defaults to kind


@dataclass
class Workload:
    """Pass i runs ``subsets[i % len(subsets)]``; warm-up ops are untimed."""

    subsets: list
    warmup: list


def paper_plant(alpha):
    return sfos.DescriptorSystem(E=PAPER_E, A=PAPER_A, B=PAPER_B, C=PAPER_C,
                                 alpha=alpha)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def _design_check(alpha, kind):
    """QZ check of the returned loop, rebuilt here from the gains."""
    k = LIFT_K if alpha > 1.0 else 1
    E, A, B, C = ((PAPER_E, PAPER_A, PAPER_B, PAPER_C) if k == 1
                  else oracles.lift_plant(PAPER_E, PAPER_A, PAPER_B, PAPER_C, k))
    # An impulse-free loop has k * rank(E) finite eigenvalues per plant copy
    # at the original order; unlifted, that is all rank(E) of them.
    finite = k * np.linalg.matrix_rank(PAPER_E)

    def check(design):
        if kind == "observer":
            Ecl, Acl = oracles.observer_loop(E, A, B, C, np.atleast_2d(design.K),
                                             np.reshape(design.L, (-1, 1)))
            return oracles.sector_check(Ecl, Acl, alpha / k, 2 * finite)
        Ecl, Acl = oracles.output_loop(E, A, B, C, np.atleast_2d(design.F))
        return oracles.sector_check(Ecl, Acl, alpha / k, finite)
    return check


def _design_call(alpha, kind):
    plant = paper_plant(alpha)
    (shift_k, shift_l), shift_f = DEMO_SHIFTS[alpha]
    if alpha > 1.0:
        if kind == "observer":
            return lambda: lifting.synth_observer_lifted(
                plant, k=LIFT_K, decay_shift_state=shift_k,
                decay_shift_injection=shift_l)
        return lambda: lifting.synth_output_feedback_lifted(
            plant, k=LIFT_K, decay_shift=shift_f, seed=0)
    if kind == "observer":
        return lambda: synthesis.synth_observer(
            plant, decay_shift_state=shift_k, decay_shift_injection=shift_l)
    return lambda: synthesis.synth_output_feedback(plant, decay_shift=shift_f,
                                                   seed=0)


#: Cheap operations run this many times a pass, so that their medians rest
#: on enough samples; metrics count each distinct operation once.
LIGHT_REPEATS = 4


def design_workload(rng, tiny=False):
    ops = []
    for alpha in ((0.6,) if tiny else (0.6, 1.2)):
        for kind in ("observer", "output"):
            op = Op(name=f"{kind}-{alpha}", kind=f"{kind}-{alpha}",
                    run=_design_call(alpha, kind), check=_design_check(alpha, kind),
                    group="heavy" if alpha > 1.0 else "light")
            ops += [op] * (LIGHT_REPEATS if op.group == "light" else 1)
    rng.shuffle(ops)
    return Workload(subsets=[ops], warmup=[])


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------

def _loop_op(alpha, kind, T, group):
    plant = paper_plant(alpha)
    gains = GAINS[alpha]
    if kind == "observer":
        ctrl = ("observer", gains["K"], gains["L"])
        cfg = sfos.SimConfig(h=STEP, T=T, x0=PAPER_X0, xhat0=np.zeros(3),
                             gate_first_input=True)
    else:
        ctrl = ("output", gains["F"])
        cfg = sfos.SimConfig(h=STEP, T=T, x0=PAPER_X0, gate_first_input=True)

    def check(traj):
        return oracles.loop_trajectory_check(PAPER_E, PAPER_A, PAPER_B,
                                             traj.x, traj.u)
    return Op(name=f"{kind}-{alpha}-T{T:g}", kind=f"{kind}-{alpha}-T{T:g}",
              run=lambda: sfos.simulate(plant, ctrl, cfg), check=check,
              group=group, steps=int(round(T / STEP)))


def _relaxation_op(T, at):
    plant = sfos.DescriptorSystem(E=[[1.0]], A=[[-1.0]], B=[[0.0]], C=[[1.0]],
                                  alpha=0.5)
    cfg = sfos.SimConfig(h=STEP, T=T, x0=[1.0])

    def error(traj):
        return oracles.relaxation_error(traj.times, traj.x[:, 0], at)

    def check(traj):
        err = error(traj)
        return None if err <= oracles.CLOSED_FORM_TOL else f"closed_form {err:.2e}"
    return Op(name=f"relaxation-T{T:g}", kind=f"relaxation-T{T:g}",
              run=lambda: sfos.simulate(plant, None, cfg), check=check,
              group="heavy", steps=int(round(T / STEP)), error=error)


def march_workload(rng, tiny=False):
    long_T, at = (0.2, (0.1, 0.2)) if tiny else (20.0, (1.0, 5.0, 20.0))
    ops = []
    for alpha in (0.6, 1.2):
        for kind in ("observer", "output"):
            ops.append(_loop_op(alpha, kind, long_T, "heavy"))
            ops += [_loop_op(alpha, kind, long_T / 10, "light")] * LIGHT_REPEATS
    ops.append(_relaxation_op(long_T, at))
    rng.shuffle(ops)
    return Workload(subsets=[ops], warmup=[_loop_op(0.6, "output", 0.1, None)])


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------

def _system(p):
    n = p.n
    return sfos.DescriptorSystem(E=p.E, A=p.A, B=np.ones((n, 1)),
                                 C=np.ones((1, n)), alpha=p.alpha)


def _pencil_op(p, i):
    sysm = _system(p)
    return Op(name=f"pencil-{i}", kind="pencil", group="light", shape=f"pencil-{p.n}",
              run=lambda: sfos.analyze(sysm),
              check=lambda rep: oracles.pencil_report_check(rep.to_dict(), p))


def _lmi_op(p, i):
    sysm = _system(p)

    def check(verdict):
        return None if verdict == p.stable else "lmi:verdict"
    return Op(name=f"lmi-{i}", kind="lmi", group="heavy",
              shape=f"lmi-{p.n}-{p.r}-{'stable' if p.stable else 'unstable'}",
              run=lambda: sfos.admissible_via_lmi(sysm)[0], check=check)


def _cli_op(p, i, directory):
    problem = os.path.join(directory, f"problem-{i}.json")
    out = os.path.join(directory, f"report-{i}.json")
    doc = {"system": {"E": p.E.tolist(), "A": p.A.tolist(),
                      "B": np.ones((p.n, 1)).tolist(),
                      "C": np.ones((1, p.n)).tolist(), "alpha": p.alpha}}
    with open(problem, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    def check(code):
        if code not in (0, 2):
            return f"cli:exit {code}"
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        if (code == 0) != bool(report["admissible"]):
            return "cli:exit_code_disagrees"
        return oracles.pencil_report_check(report, p)
    return Op(name=f"cli-{i}", kind="cli", shape=f"cli-{p.n}",
              run=lambda: cli.main(["analyze", problem, "--out", out]),
              check=check)


def _short_sim_op(p, i):
    sysm = _system(p)
    cfg = sfos.SimConfig(h=STEP, T=2.0, x0=p.x0)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return sfos.simulate(sysm, None, cfg)

    def error(traj):
        return oracles.closed_form_error(p, traj.times, traj.x)

    def check(traj):
        if not np.all(np.isfinite(traj.x)):
            return "not_finite"
        err = error(traj)
        return None if err <= oracles.SHORT_SIM_TOL else f"closed_form {err:.2e}"
    return Op(name=f"short_sim-{i}", kind="short_sim", shape=f"short_sim-{p.n}",
              run=run, check=check, steps=int(round(cfg.T / STEP)), error=error)


#: Pencil sizes span the range where determinant interpolation breaks down
#: (rarely wrong up to n = 8, always wrong from n = 24 on); keep them.
PENCIL_SIZES = (3, 4, 6, 8, 10, 12, 16, 20, 24, 32)
#: (n, r) of the LMI plants; each appears once stable and once unstable.
LMI_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
CLI_SIZES = (3, 4, 6, 8, 12, 16)
SIM_SIZES = (3, 4, 5, 6)
#: Request sets per run; every run covers all of them (25-35 s).
SUBSETS = 8


def _screen_subset(rng, directory, first, tiny):
    def alpha():
        return float(rng.uniform(0.3, 0.95))

    plans = []
    for _ in range(1 if tiny else 3):
        plans += [("pencil", n, None) for n in PENCIL_SIZES]
    for n, r in LMI_SHAPES[:2] if tiny else LMI_SHAPES:
        plans += [("lmi", n, r), ("lmi", n, r)]
    plans += [("cli", n, None) for n in (CLI_SIZES[:2] if tiny else CLI_SIZES)]
    plans += [("short_sim", n, None) for n in (SIM_SIZES[:2] if tiny else SIM_SIZES)]
    ops = []
    for i, (what, n, extra) in enumerate(plans, start=first):
        stable = i % 2 == 0
        if what == "pencil":
            ops.append(_pencil_op(plants.stacked_plant(rng, n, alpha(), stable), i))
        elif what == "lmi":
            ops.append(_lmi_op(plants.block(rng, n, extra, alpha(), stable), i))
        elif what == "cli":
            ops.append(_cli_op(plants.stacked_plant(rng, n, alpha(), stable),
                               i, directory))
        else:
            p = plants.block(rng, n, int(rng.integers(1, n)), 0.5, True,
                             real_stable=True)
            ops.append(_short_sim_op(p, i))
    rng.shuffle(ops)
    return ops


def screen_workload(rng, directory, tiny=False):
    subsets = []
    for _ in range(1 if tiny else SUBSETS):
        subsets.append(_screen_subset(rng, directory, 1000 * len(subsets), tiny))
    first = {}
    for op in subsets[0]:
        first.setdefault(op.kind, op)
    return Workload(subsets=subsets,
                    warmup=[first[k] for k in ("pencil", "cli", "short_sim")])


def build(name, seed, directory, tiny=False):
    """Inputs of one workload, made from the seed alone.

    ``tiny`` shrinks every workload to a few cheap operations, for the
    smoke test.
    """
    rng = np.random.default_rng(seed)
    if name == "design":
        return design_workload(rng, tiny)
    if name == "march":
        return march_workload(rng, tiny)
    if name == "screen":
        return screen_workload(rng, directory, tiny)
    raise ValueError(f"unknown workload {name!r}")
