"""Command-line front end.

Subcommands::

    sfos analyze  problem.json           admissibility report (exit 0/2)
    sfos synth    problem.json --mode m  controller design JSON
    sfos simulate problem.json --out d   closed-loop trajectory CSV + summary
    sfos demo     example1|example2 --out d   one-command benchmark runs

Each subcommand takes only the flags it reads: ``--out`` on all four;
``--mode`` on ``synth``; ``--h`` and ``--horizon`` on ``simulate`` and
``demo``.  The LMI solver's margin and box, the rank threshold of E
(:data:`sfos.descriptor.RANK_TOL`) and the output-feedback retries
(:data:`sfos.synthesis.RETRY_SHIFTS`) are constants, not options.
``synth`` writes each LMI solve's certificate with its iterates.

Exit codes are a stable contract: 0 success / admissible, 1 error (bad
input, including a usage error on the command line, I/O, numerical
failure), 2 analyzed and not admissible, 3 synthesis certified infeasible,
4 no design verified (output-feedback retries exhausted, or the observer
loop failed the closed-loop pencil check).

The CLI reads its flags and the problem file, nothing else.  A problem
file is read as UTF-8 JSON and checked in full against ``PROBLEM_SCHEMA``:
a plain walk of the schema proves most valid files valid, and any file it
cannot prove goes to one ``jsonschema`` validator built per process, the
only judge of a refusal and the only author of its message.  That the
schema itself is a valid 2020-12 schema is checked once, by the test
suite.  The parser is built once per process too.  h and T resolve as the
command-line flag, then the problem-file value, then this module's
``DEFAULT_H`` or ``DEFAULT_T``.  Designs act on the plant's own state.  A
``gains`` block is verified and simulated on the plant, or on its lift by
k when K or L is sized for one (:func:`sfos.lifting.coordinates`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

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


#: Step and horizon when neither a flag nor the problem file sets them.
DEFAULT_H = 1e-3
DEFAULT_T = 20.0


@functools.cache
def _problem_validator():
    """The validator of :data:`PROBLEM_SCHEMA`, built once per process.

    ``jsonschema.validate`` would check the constant schema against its
    metaschema on every call; the test suite checks it once instead.
    """
    # Imported here: of the whole CLI, only a problem file needs it.
    import jsonschema
    return jsonschema.Draft202012Validator(PROBLEM_SCHEMA)


def _proven_valid(schema, doc) -> bool:
    """Whether ``doc`` is valid against ``schema``, proven without jsonschema.

    The walk models only the keywords :data:`PROBLEM_SCHEMA` uses: type
    (object, array, number, boolean), required, additionalProperties
    (false), properties, items, minItems, enum (of strings), minimum,
    exclusiveMinimum and exclusiveMaximum.  A number is an int or a finite
    float, never a bool.  Anything else it meets -- another keyword, type
    or value, NaN or an infinity -- is a doubt and gives False, as does an
    invalid document: False means "not proven", and the caller asks
    jsonschema.  A subschema the document does not reach is not read.
    """
    if type(schema) is not dict:
        return False
    for keyword, value in schema.items():
        if keyword == "type":
            ok = (_is_number(doc) if value == "number" else (value, type(doc)) in
                  (("object", dict), ("array", list), ("boolean", bool)))
        elif keyword == "required":
            ok = (type(value) is list and type(doc) is dict
                  and all(type(key) is str and key in doc for key in value))
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            ok = (value is False and type(doc) is dict and type(known) is dict
                  and all(key in known for key in doc))
        elif keyword == "properties":
            ok = type(value) is dict and type(doc) is dict and all(
                _proven_valid(sub, doc[key]) for key, sub in value.items()
                if key in doc)
        elif keyword == "items":
            # The matrix rows' schema, taken in one pass: most of a file.
            ok = type(doc) is list and (
                all(map(_is_number, doc)) if value == {"type": "number"}
                else all(_proven_valid(value, item) for item in doc))
        elif keyword == "minItems":
            ok = type(value) is int and type(doc) is list and len(doc) >= value
        elif keyword == "enum":
            ok = (type(value) is list and type(doc) is str
                  and all(type(option) is str for option in value)
                  and doc in value)
        elif keyword in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
            ok = _is_number(value) and _is_number(doc) and (
                doc >= value if keyword == "minimum"
                else doc > value if keyword == "exclusiveMinimum"
                else doc < value)
        else:
            return False
        if not ok:
            return False
    return True


def _is_number(x) -> bool:
    return type(x) is int or (type(x) is float and math.isfinite(x))


def load_problem(path) -> dict:
    """Parse a problem file and check it against :data:`PROBLEM_SCHEMA`.

    A document that :func:`_proven_valid` proves valid is returned as it
    is.  Any other goes to the validator built once per process, and the
    error reported is the one ``jsonschema.validate`` would raise: the best
    match of all of them.  A document jsonschema accepts is returned too,
    so the walk decides nothing that jsonschema would not.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    if _proven_valid(PROBLEM_SCHEMA, doc):
        return doc
    from jsonschema.exceptions import best_match
    error = best_match(_problem_validator().iter_errors(doc))
    if error is not None:
        raise InputError(
            f"{path} fails schema validation at {error.json_path}: "
            f"{error.message}") from error
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


def _run_synthesis(plant: DescriptorSystem, synth_cfg: dict, mode=None):
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
        plant, decay_shift=synth_cfg.get("decay_shift", 0.0))


def cmd_synth(args) -> int:
    doc = load_problem(args.problem)
    synth_cfg = doc.get("synthesis", {})
    sysm = descriptor.system_from_dict(doc["system"])
    design = _run_synthesis(sysm, synth_cfg, args.mode)
    _emit(design.to_dict(), args.out)
    return EXIT_OK


def _injected_controller(plant: DescriptorSystem, gains: dict):
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
    h = _resolve(args.h, sim_cfg.get("h"), DEFAULT_H)
    T = _resolve(args.horizon, sim_cfg.get("T"), DEFAULT_T)
    return simulator.SimConfig(
        h=h, T=T, x0=sim_cfg.get("x0"), xhat0=sim_cfg.get("xhat0"),
        consistency=sim_cfg.get("consistency", "project"),
        gate_first_input=sim_cfg.get("gate_first_input", False))


def cmd_simulate(args) -> int:
    doc = load_problem(args.problem)
    sysm = descriptor.system_from_dict(doc["system"])
    config = _sim_config(doc.get("simulation", {}), args)
    # The pair verified below is the pair simulated: both come from
    # synthesis.closed_loop, in the coordinates lifting.coordinates picks.
    verification = None
    if "gains" in doc:
        controller, report = _injected_controller(sysm, doc["gains"])
        verification = report.to_dict()
        admissible = report.admissible
    elif "synthesis" in doc:
        controller = _run_synthesis(sysm, doc["synthesis"])
        admissible = True
    else:
        controller = None
        admissible = True

    traj = simulator.simulate(sysm, controller, config)
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
    "example2": {"decay_shift_state": 1.0, "decay_shift_injection": 1.0,
                 "decay_shift": 1.0},
}


def cmd_demo(args) -> int:
    alpha = 0.6 if args.example == "example1" else 1.2
    plant = _benchmark_system(alpha)
    cfg_obs = _sim_config(dict(DEMO_SIMULATION, xhat0=[0.0, 0.0, 0.0]), args)
    cfg_out = _sim_config(DEMO_SIMULATION, args)
    shifts = DEMO_SHIFTS[args.example]
    obs = _run_synthesis(plant, shifts, "observer")
    out = _run_synthesis(plant, shifts, "output")
    traj_obs = simulator.simulate(plant, obs, cfg_obs)
    traj_out = simulator.simulate(plant, out, cfg_out)

    out_dir = args.out or args.example
    os.makedirs(out_dir, exist_ok=True)
    t = traj_obs.times
    xn = [f"x{i+1}" for i in range(traj_obs.x.shape[1])]
    un = [f"u{i+1}" for i in range(traj_obs.u.shape[1])]
    en = [f"e{i+1}" for i in range(traj_obs.e.shape[1])]
    for fig, data, names in (("fig1", traj_obs.x, xn), ("fig2", traj_obs.u, un),
                             ("fig3", traj_obs.e, en), ("fig4", traj_out.x, xn),
                             ("fig5", traj_out.u, un)):
        simulator.write_csv(os.path.join(out_dir, f"{fig}.csv"), ["t", *names],
                            t, data)

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every call.

    Building it costs more than most ``analyze`` requests (argparse looks
    up each help and error text through ``gettext``); parsing leaves it
    unchanged.  h and T default to None: the subcommands fall back on the
    problem file before ``DEFAULT_H`` and ``DEFAULT_T``.
    """
    parser = _Parser(
        prog="sfos",
        description="Analysis, synthesis, and simulation for singular "
                    "fractional-order systems.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="closed-loop simulation")
    p.add_argument("problem")
    p.add_argument("--out", default=None,
                   help="output directory (default: current directory)")
    march(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demo", help="reproduce a benchmark example end to end")
    p.add_argument("example", choices=["example1", "example2"])
    p.add_argument("--out", default=None,
                   help="output directory (default: the example name)")
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
    except (SfosError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
