#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this checkout, in pairs.

    python3 scripts/bench_pairs.py --out BENCH_<n>.json --parent REV
        [--workload march --workload screen ...] [--seeds 801-810]

The parent revision is exported with ``git archive`` into a temporary
directory, so that it runs from exactly its committed files and the
repository's own git state is left as it was.  The change is
this checkout as it stands.  For every workload and seed, both sides run
``perfbench/run.py --trace 0`` as a subprocess, each from its own root,
for the ``run_seconds`` of ``BENCHMARK.json``; which side runs first
alternates from seed to seed.

The output file holds every run's result line, and for each end-to-end
metric named in ``BENCHMARK.json``: both sides' median and quartiles, and
how many pairs the change won (ties count for neither side).

``setup_s`` is scaled by the run's reference-kernel speed, like every
timing of the result line, so a host that is slow during the passes but not
during set-up (or the other way round) moves it.  Each run entry therefore
also keeps, from that side's ``.perfbench/<workload>-seed<N>-trace0.json``,
the raw set-up samples (``setup_raw_s``, seconds from process start to
inputs ready) and the median reference-kernel time (``reference_s``).  The
summary gives ``setup_raw_s`` (the median of each run's samples) the same
spread and wins, beside the scaled metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def seed_range(text):
    """'801-810' or '801,805' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, directory):
    """Write the committed files of ``rev`` into ``directory``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"error: git archive {rev} failed")


def run_once(root, workload, seed, seconds):
    """One untraced benchmark run from ``root``.

    Its final JSON line, with the raw set-up samples and the reference time
    of the run's detail record added as ``setup_raw_s`` and ``reference_s``.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = os.path.join(root, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    with open(detail, encoding="utf-8") as fh:
        record = json.load(fh)
    result["setup_raw_s"] = record["setup_s"]
    result["reference_s"] = record["reference_s"]
    return result


def spread(values):
    """Median and quartiles of a list of run values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs, better):
    """Spread of each side and the change's wins over (parent, change) pairs."""
    sign = 1.0 if better == "lower" else -1.0
    return {
        "better": better,
        "parent": spread([p for p, _ in pairs]),
        "change": spread([c for _, c in pairs]),
        "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
        "parent_wins": sum(sign * (c - p) > 0 for p, c in pairs),
        "pairs": len(pairs),
    }


def summarize(runs, metrics):
    """Per-metric :func:`compare`, and the same for the raw set-up time."""
    out = {}
    for name, better in metrics.items():
        pairs = [(r["parent"]["metrics"][name]["value"],
                  r["change"]["metrics"][name]["value"]) for r in runs
                 if name in r["parent"]["metrics"]
                 and name in r["change"]["metrics"]]
        if pairs:
            out[name] = compare(pairs, better)
    out["setup_raw_s"] = compare(
        [tuple(statistics.median(r[side]["setup_raw_s"]) for side in SIDES)
         for r in runs], "lower")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--workload", action="append",
                   choices=("design", "march", "screen"),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seeds", type=seed_range, default=seed_range("801-810"))
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {
        "parent": git("rev-parse", args.parent),
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain",
                                           "--untracked-files=no"))},
        "seconds": seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        export(record["parent"], parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, seed, seconds)
                    value = run[side]["metrics"].get("heavy_ms", {}).get("value")
                    print(f"{workload} seed {seed} {side}: heavy_ms {value}",
                          flush=True)
                runs.append(run)
            record["workloads"][workload] = {
                "runs": runs, "metrics": summarize(runs, metrics)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
