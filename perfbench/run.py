#!/usr/bin/env python3
"""Run one sfos benchmark workload and print its metrics.

    python3 perfbench/run.py --workload design|march|screen --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; ``sfos`` is imported from ``src/``.
One client calls the public API, one operation after another, for about
``--seconds`` seconds of whole passes over the workload.  Every answer is
checked by an oracle that does not share the code path under test;
``attempted`` and ``failed`` count each distinct operation once, by its
first run, so they depend on the seed alone.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run (one untraced pass, then traced passes).  The
lines before it are a readable summary.  A detailed record -- versions,
thread setting, every operation, and the spans of a traced run -- is
written to ``.perfbench/`` in the checkout.
"""

import os

# Pin BLAS to one thread before numpy loads it: with the default thread
# pool, pass times on a 2-CPU machine spread several times wider.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("design", "march", "screen")
#: Set-up is repeated this many times in fresh processes; the median is reported.
SETUP_REPEATS = 3
#: Simulations with at least this many steps count as long horizons.
LONG_STEPS = 10_000
#: Seconds the reference kernel takes on the 2-CPU development machine at
#: its usual speed; reported timings are scaled to this speed.
REFERENCE_S = 5e-3
TIME_UNITS = {"s", "ms", "us"}


def import_sfos():
    """Import sfos from this checkout's ``src/``, or exit without a result."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import sfos
    except ImportError as exc:
        sys.exit(f"error: cannot import sfos from {SRC}: {exc}")
    if not os.path.abspath(sfos.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: sfos was imported from {sfos.__file__}, not {SRC}")
    return sfos


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: time one set-up in a fresh process (see measure_setup).
    p.add_argument("--setup-only", type=float, default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build_inputs(args, directory):
    import_sfos()
    import workloads
    return workloads.build(args.workload, args.seed, directory, tiny=args.tiny)


def setup_child(args):
    """Set up once and print the time since the parent launched this process."""
    directory = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        build_inputs(args, directory)
        print(json.dumps({"setup_s": time.time() - args.setup_only}))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure_setup(args):
    """Process start to inputs ready, in fresh interpreters; returns seconds."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        launched = time.time()
        done = subprocess.run(cmd + ["--setup-only", repr(launched)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def classify(reason, exc):
    """'ok', 'known' (pencil defect), 'refused' (loud NumericalFailure) or 'wrong'."""
    from sfos.errors import LmiNumericalError
    if reason is None:
        return "ok"
    if reason.startswith("pencil:"):
        return "known"
    if isinstance(exc, LmiNumericalError):
        return "refused"
    return "wrong"


def run_op(op, tracer):
    exc = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.operation(op.name):
                result = op.run()
    except Exception as err:  # every failure is counted, none stops the run
        exc, result = err, None
    seconds = time.perf_counter() - start
    record = {"op": op.name, "kind": op.kind, "shape": op.shape or op.kind,
              "group": op.group, "seconds": seconds, "steps": op.steps}
    if exc is not None:
        reason = f"exception:{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exception(exc)
    else:
        try:
            reason = op.check(result)
            if op.error is not None:
                record["error"] = op.error(result)
        except Exception as err:  # a malformed answer fails its check
            reason = f"check:{type(err).__name__}: {err}"
    record["reason"] = reason
    record["outcome"] = classify(reason, exc)
    return record


class Reference:
    """A fixed numpy workload that shares no code with sfos: machine speed.

    The host's speed drifts by up to twofold for minutes at a time, for
    every program alike.  Timing this kernel between operations gives the
    speed the run saw; timings are reported at the speed the kernel shows
    at :data:`REFERENCE_S`.  Small solves stand for call-bound solver work,
    long dot products for the memory-bound history sums.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        self.v = rng.standard_normal(8)
        self.D = rng.standard_normal((20000, 6))
        self.w = rng.standard_normal(20000)
        self.solve = np.linalg.solve

    def __call__(self):
        start = time.perf_counter()
        for _ in range(250):
            self.solve(self.M, self.v)
        for _ in range(60):
            self.w @ self.D
        return time.perf_counter() - start


def run_pass(ops, reference, tracer=None):
    records = []
    for op in ops:
        record = run_op(op, tracer)
        record["reference_s"] = reference()
        records.append(record)
    return records


def run_passes(work, seconds, trace):
    """Whole passes until every request set has run and the next pass
    would end past ``seconds``.

    Untraced: every pass is measured.  Traced: pass 0 is untraced and the
    rest are traced; pass 1 repeats pass 0's inputs so that their
    difference is the tracing overhead.  Every run covers all request
    sets, so the operations it checks depend on the seed alone.
    """
    import spans as tracing
    import workloads
    reference = Reference()
    for op in work.warmup:
        run_op(op, None)
        reference()
    passes = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        subset = work.subsets[(index - 1 if trace and index else index)
                              % len(work.subsets)]
        t0 = time.perf_counter()
        if trace and index > 0:
            with tracing.Tracer(extra_modules=[workloads]) as tracer:
                records = run_pass(subset, reference, tracer)
            spans = tracer.spans
        else:
            records, spans = run_pass(subset, reference), None
        passes.append({"records": records, "spans": spans,
                       "elapsed": time.perf_counter() - t0})
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= len(work.subsets) + trace and elapsed + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def op_seconds(records, group=None):
    return sum(r["seconds"] for r in records if group is None or r["group"] == group)


def high_percentile(values):
    """(p, value) of the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def kind_latencies(passes, key="kind"):
    by_kind = {}
    for p in passes:
        for r in p["records"]:
            by_kind.setdefault(r[key], []).append(r["seconds"])
    return by_kind


def typical_pass(passes):
    """One pass as the typical latency of each distinct operation's shape.

    An operation counts at the median of its repeats, and a shape at the
    mean of its operations.  In ``design`` and ``march`` each operation is
    its own shape (cheap ones repeat within a pass).  In ``screen`` a shape
    pools the same-sized requests of the request sets the run cycles
    through; their cost differs from plant to plant, for some LMI shapes
    in two clusters, so a median over a handful of plants jumps between
    clusters from seed to seed where the mean does not.
    """
    by_op = {}
    for p in passes:
        for r in p["records"]:
            by_op.setdefault(r["op"], []).append(r)
    by_shape = {}
    for runs in by_op.values():
        by_shape.setdefault(runs[0]["shape"], []).append(
            statistics.median(r["seconds"] for r in runs))
    typical = {shape: statistics.fmean(v) for shape, v in by_shape.items()}
    distinct = {r["op"]: r for r in passes[-1]["records"]}.values()
    return [{"seconds": typical[r["shape"]], "group": r["group"]} for r in distinct]


def first_outcomes(passes):
    """Each distinct operation's outcome on its first run.

    Repeats of an operation time it again; they are not new attempts.
    """
    first = {}
    for p in passes:
        for r in p["records"]:
            first.setdefault(r["op"], r["outcome"])
    return list(first.values())


def end_to_end(passes, setup):
    typical = typical_pass(passes)
    outcomes = first_outcomes(passes)
    medians = [statistics.median(v) for v in kind_latencies(passes).values()]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (op_seconds(typical), "s"),
        "op_ms": (1e3 * math.exp(statistics.fmean(math.log(m) for m in medians)), "ms"),
        "light_ms": (1e3 * op_seconds(typical, "light"), "ms"),
        "heavy_ms": (1e3 * op_seconds(typical, "heavy"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (outcomes.count("ok") / len(outcomes), "share"),
    }


SYNTH = ("synthesis.synth_observer", "synthesis.synth_output_feedback")
VERIFY = ("synthesis.verify_state_estimate_loop", "synthesis.verify_static_output_loop")


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def _info(span, key):
    """A count read off a span's result; 0 when the call raised."""
    return (span.info or {}).get(key, 0)


def pass_layers(spans, records):
    """Per-layer counts and times of one traced pass."""
    from spans import LAYERS, self_times
    own = self_times(spans)
    self_s = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        if s.layer in self_s:
            self_s[s.layer] += t
    lmi = [s for s in spans if s.name == "lmi.solve_feasibility"]
    steps = sum(_info(s, "newton_steps") for s in lmi)
    designs = [s for s in spans if s.name in SYNTH]
    in_designs = sum(1 for s in lmi for d in designs if d.start <= s.start and s.end <= d.end)
    sims = [s for s in spans if s.name == "simulator.simulate"]

    def per_step(long):
        chosen = [s for s in sims if (_info(s, "steps") >= LONG_STEPS) == long]
        n = sum(_info(s, "steps") for s in chosen)
        return 1e6 * sum(s.duration for s in chosen) / n if n else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "cli"}
    out.update({
        "lmi.solves": len(lmi),
        "lmi.newton_steps": steps,
        "lmi.ms_per_newton_step": 1e3 * self_s["lmi"] / steps if steps else 0.0,
        "lmi.status.Marginal": sum(_info(s, "marginal") for s in designs),
        "synthesis.solves_per_design": in_designs / len(designs) if designs else 0.0,
        "descriptor.analyze_calls": sum(s.name == "descriptor.analyze_pair" for s in spans),
        "descriptor.verdict_errors": sum(r["outcome"] == "known" for r in records),
        "simulator.us_per_step.long": per_step(True),
        "simulator.us_per_step.short": per_step(False),
        "fpdm.calls": sum(s.layer == "fpdm" for s in spans),
        "trace.spans": len(spans),
    })
    for status in ("Feasible", "Infeasible", "NumericalFailure"):
        out[f"lmi.status.{status}"] = sum(_info(s, "status") == status for s in lmi)
    long, short = out["simulator.us_per_step.long"], out["simulator.us_per_step.short"]
    out["simulator.history_ratio"] = long / short if long and short else 0.0
    return out


def cli_self_ms(spans):
    """cli.main durations minus the non-cli spans below them, in ms."""
    from spans import self_times
    own = self_times(spans)
    values = []
    for s in spans:
        if s.name == "cli.main":
            values.append(sum(t for c, t in zip(spans, own) if c.layer == "cli"
                              and s.start <= c.start and c.end <= s.end))
    return values


PER_LAYER_UNITS = {
    "self_s": "s", "solves": "count", "newton_steps": "count",
    "ms_per_newton_step": "ms", "solves_per_design": "count",
    "analyze_calls": "count", "verdict_errors": "count", "calls": "count",
    "spans": "count", "history_ratio": "ratio", "long": "us", "short": "us",
    "Feasible": "count", "Infeasible": "count", "NumericalFailure": "count",
    "Marginal": "count", "verify_ms": "ms", "lift_ms": "ms", "analyze_ms": "ms",
    "self_ms": "ms", "rel_err": "ratio", "overhead_s": "s",
}


def _at_speed(one_pass):
    """A pass's total time divided by the reference time during it."""
    refs = statistics.median(r["reference_s"] for r in one_pass["records"])
    return op_seconds(one_pass["records"]) / refs


def per_layer(passes, reference):
    untraced, traced = passes[0], passes[1:]
    rows = [pass_layers(p["spans"], p["records"]) for p in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    spans = [s for p in traced for s in p["spans"]]

    def durations(*names):
        return [s.duration for s in spans if s.name in names]

    errors = [r["error"] for p in passes for r in p["records"] if "error" in r]
    metrics.update({
        "synthesis.verify_ms": _median_ms(durations(*VERIFY)),
        "lifting.lift_ms": _median_ms(durations("lifting.lift")),
        "lifting.verify_ms": _median_ms(durations("lifting.analyze_lifted_pair")),
        "descriptor.analyze_ms": _median_ms(durations("descriptor.analyze_pair")),
        "cli.self_ms": _median_ms([v for p in traced for v in cli_self_ms(p["spans"])]),
        "simulator.rel_err": max(errors, default=0.0),
        # Same inputs in both passes; each is put at the run's machine speed
        # first, because the speed may change between them.
        "trace.overhead_s": reference * (_at_speed(traced[0]) - _at_speed(untraced)),
    })
    return {name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[-1]])
            for name, value in sorted(metrics.items())}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def environment(args):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def summary_lines(passes):
    lines = []
    for kind, values in sorted(kind_latencies(passes).items()):
        hi = high_percentile(values)
        tail = f", p{hi[0]:.0f} {1e3 * hi[1]:.3f} ms" if hi else ""
        lines.append(f"# {kind}: n={len(values)}, median "
                     f"{1e3 * statistics.median(values):.3f} ms{tail}")
    failures = {}
    for p in passes:
        for r in p["records"]:
            if r["outcome"] != "ok":
                key = (r["outcome"], r["kind"], r["reason"].split(" ")[0])
                failures[key] = failures.get(key, 0) + 1
    for (outcome, kind, reason), count in sorted(failures.items()):
        lines.append(f"# failed ({outcome}): {kind} {reason} x{count}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only is not None:
        setup_child(args)
        return 0
    import_sfos()
    setup = measure_setup(args)
    directory = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        work = build_inputs(args, directory)
        passes = run_passes(work, args.seconds, args.trace)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    records = [r for p in passes for r in p["records"]]
    reference = statistics.median(r["reference_s"] for r in records)
    measured = per_layer(passes, reference) if args.trace else end_to_end(passes, setup)
    speed = REFERENCE_S / reference
    metrics = {name: (value * speed if unit in TIME_UNITS else value, unit)
               for name, (value, unit) in measured.items()}
    if args.trace:
        metrics["bench.reference_ms"] = (1e3 * reference, "ms")
    env = environment(args)
    detail = {"environment": env, "setup_s": setup,
              "passes": [{"elapsed": p["elapsed"], "records": p["records"],
                          "spans": None if p["spans"] is None
                          else [s.to_dict() for s in p["spans"]]}
                         for p in passes],
              "measured": measured, "reference_s": reference, "metrics": metrics}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, default=str)
    print("# env: " + json.dumps(env))
    print(f"# passes: {len(passes)}, detail: {os.path.relpath(path, ROOT)}")
    for line in summary_lines(passes):
        print(line)
    print(f"# reference kernel: {1e3 * reference:.3f} ms (nominal "
          f"{1e3 * REFERENCE_S:g} ms); timings as measured: "
          + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit)
                      in measured.items() if unit in TIME_UNITS))
    outcomes = first_outcomes(passes)
    result = {
        "correct": not any(r["outcome"] == "wrong" for r in records),
        "attempted": len(outcomes),
        "failed": len(outcomes) - outcomes.count("ok"),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
