"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload prints every metric named in BENCHMARK.json with
its unit, and that every oracle rejects a corrupted answer.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import plants  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "oracles.py", "plants.py", "spans.py"):
        with open(os.path.join(HERE, name), encoding="utf-8") as src:
            (tmp_path / "perfbench" / name).write_text(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        (tmp_path / "BENCHMARK.json").write_text(src.read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------------------
# Oracles reject corrupted answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 1.2])
def test_design_oracle_rejects_perturbed_gains(alpha):
    gains = workloads.GAINS[alpha]
    observer = workloads._design_check(alpha, "observer")
    output = workloads._design_check(alpha, "output")
    good_obs = SimpleNamespace(K=gains["K"], L=gains["L"])
    assert observer(good_obs) is None
    assert output(SimpleNamespace(F=gains["F"])) is None
    # The open loop is unstable, so zero or sign-flipped gains must fail.
    assert observer(SimpleNamespace(K=0 * gains["K"], L=gains["L"])) is not None
    assert observer(SimpleNamespace(K=gains["K"], L=0 * gains["L"])) is not None
    assert output(SimpleNamespace(F=-gains["F"])) is not None


def test_march_oracles_reject_corrupted_trajectories():
    work = workloads.march_workload(np.random.default_rng(0), tiny=True)
    loops = [op for op in work.subsets[0] if op.kind.startswith("observer-0.6")]
    traj = loops[0].run()
    assert loops[0].check(traj) is None
    grown = traj.x.copy()
    grown[-1] = 2 * grown[0]
    assert loops[0].check(SimpleNamespace(x=grown, u=traj.u)) == "final_norm_ratio"
    off = traj.x.copy()
    off[1:, 0] += 1e-3  # leaves the algebraic constraint
    assert loops[0].check(SimpleNamespace(x=off, u=traj.u)) == "algebraic_residual"
    relax = [op for op in work.subsets[0] if op.kind.startswith("relaxation")][0]
    traj = relax.run()
    assert relax.check(traj) is None
    assert relax.check(SimpleNamespace(times=traj.times, x=1.01 * traj.x)) is not None


def test_screen_oracles_reject_flipped_verdicts(tmp_path):
    rng = np.random.default_rng(5)
    plant = plants.stacked_plant(rng, 6, 0.7, True)
    report = workloads._pencil_op(plant, 0).run().to_dict()
    assert oracles.pencil_report_check(report, plant) is None
    assert oracles.pencil_report_check({**report, "admissible": False}, plant) == "pencil:verdict"
    assert oracles.pencil_report_check({**report, "pencil_degree": plant.r + 1},
                                       plant) == "pencil:degree"
    moved = [[re + 0.1, im] for re, im in report["finite_eigenvalues"]]
    assert oracles.pencil_report_check({**report, "finite_eigenvalues": moved},
                                       plant) == "pencil:spectrum"

    lmi = workloads._lmi_op(plants.block(rng, 2, 1, 0.7, True), 1)
    assert lmi.check(lmi.run()) is None
    assert lmi.check(False) == "lmi:verdict"

    cli = workloads._cli_op(plant, 2, str(tmp_path))
    code = cli.run()
    assert cli.check(code) is None
    assert cli.check(2) == "cli:exit_code_disagrees"

    sim = workloads._short_sim_op(
        plants.block(rng, 4, 2, 0.5, True, real_stable=True), 3)
    traj = sim.run()
    assert sim.check(traj) is None
    assert sim.check(SimpleNamespace(times=traj.times, x=1.01 * traj.x)) is not None


def test_block_plant_answers_match_qz():
    """The block construction's spectrum is what QZ finds on the pair."""
    plant = plants.stacked_plant(np.random.default_rng(7), 8, 0.5, False)
    eigs = oracles.qz_finite_eigenvalues(plant.E, plant.A)
    assert oracles.match_spectra(eigs, plant.eigs) < 1e-8
