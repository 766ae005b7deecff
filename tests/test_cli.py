"""Command-line interface: problem files, exit codes, outputs."""

import json

import numpy as np
import pytest

from conftest import (BENCH_A, BENCH_B, BENCH_C, BENCH_E, BENCH_X0, GAINS_06)
from sfos import cli


def problem_doc(alpha=0.6, **extra):
    doc = {"system": {"E": BENCH_E.tolist(), "A": BENCH_A.tolist(),
                      "B": BENCH_B.tolist(), "C": BENCH_C.tolist(),
                      "alpha": alpha}}
    doc.update(extra)
    return doc


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_benchmark_not_admissible_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["analyze", path]) == cli.EXIT_NOT_ADMISSIBLE
        report = json.loads(capsys.readouterr().out)
        assert report["regular"] is True
        assert report["impulse_free"] is True
        assert report["stable"] is False

    def test_stable_system_exit_0(self, tmp_path):
        doc = {"system": {"E": [[1.0, 0.0], [0.0, 1.0]],
                          "A": [[-1.0, 0.0], [0.0, -2.0]],
                          "B": [[1.0], [1.0]], "C": [[1.0, 0.0]],
                          "alpha": 0.5}}
        assert cli.main(["analyze", write_problem(tmp_path, doc)]) == cli.EXIT_OK

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_ERROR
        assert "line 1" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        doc = problem_doc()
        doc["system"]["alpha"] = 3.0
        assert cli.main(["analyze", write_problem(tmp_path, doc)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "alpha" in err

    def test_missing_file_exit_1(self):
        assert cli.main(["analyze", "/nonexistent.json"]) == cli.EXIT_ERROR

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_problem(tmp_path, problem_doc())
        cli.main(["analyze", path, "--out", str(out)])
        assert json.loads(out.read_text())["pencil_degree"] == 2
        assert capsys.readouterr().out == ""


class TestSynth:
    def test_output_mode(self, tmp_path):
        out = tmp_path / "design.json"
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["synth", path, "--mode", "output",
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        F = np.array(doc["F"])
        assert F.shape == (1, 1)
        assert doc["closed_loop_report"]["admissible"] is True

    def test_observer_mode_lifted_shapes(self, tmp_path):
        out = tmp_path / "design.json"
        path = write_problem(tmp_path, problem_doc(alpha=1.2))
        assert cli.main(["synth", path, "--mode", "observer",
                         "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert np.array(doc["K"]).shape == (1, 6)
        assert np.array(doc["L"]).shape == (6, 1)
        assert doc["closed_loop_report"]["admissible"] is True

    def test_mode_from_problem_file(self, tmp_path, capsys):
        doc = problem_doc(synthesis={"mode": "output"})
        assert cli.main(["synth", write_problem(tmp_path, doc)]) == cli.EXIT_OK
        assert "closed_loop_report" in capsys.readouterr().out

    def test_no_mode_anywhere_exit_1(self, tmp_path):
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["synth", path]) == cli.EXIT_ERROR

    def test_uncontrollable_exit_3(self, tmp_path):
        doc = problem_doc()
        doc["system"]["B"] = [[0.0], [0.0], [0.0]]
        path = write_problem(tmp_path, doc)
        assert cli.main(["synth", path, "--mode", "observer"]) == cli.EXIT_INFEASIBLE


class TestSimulate:
    def test_injected_gain_verification_only(self, tmp_path):
        doc = problem_doc(
            gains={"F": GAINS_06["F"].tolist()},
            simulation={"x0": BENCH_X0.tolist(), "T": 2.0,
                        "gate_first_input": True})
        out = tmp_path / "run"
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["injected_gain_verification"]["admissible"] is True
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,u1"

    def test_destabilizing_gain_exit_2(self, tmp_path):
        doc = problem_doc(gains={"F": [[0.0]]},
                          simulation={"x0": BENCH_X0.tolist(), "T": 1.0})
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out",
                         str(tmp_path / "o")]) == cli.EXIT_NOT_ADMISSIBLE

    def test_misshapen_gain_exit_1(self, tmp_path, capsys):
        cases = [({"K": [[0.5, 0.1]]}, "K"), ({"F": [[1.0, 2.0]]}, "F"),
                 ({"K": [[0.5]]}, "K")]
        for alpha in (0.6, 1.2):
            for gains, name in cases:
                doc = problem_doc(alpha=alpha, gains=gains,
                                  simulation={"x0": BENCH_X0.tolist(), "T": 0.1})
                path = write_problem(tmp_path, doc)
                assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]
                                ) == cli.EXIT_ERROR
                assert f"gain {name}" in capsys.readouterr().err

    def test_synthesis_block_drives_simulation(self, tmp_path):
        doc = problem_doc(synthesis={"mode": "output"},
                          simulation={"x0": BENCH_X0.tolist(), "T": 2.0})
        out = tmp_path / "run"
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controller"] == "output"

    def test_open_loop_run(self, tmp_path):
        doc = problem_doc(simulation={"x0": BENCH_X0.tolist(), "T": 1.0})
        out = tmp_path / "run"
        assert cli.main(["simulate", write_problem(tmp_path, doc),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controller"] == "none"

    def test_missing_x0_exit_1(self, tmp_path):
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["simulate", path, "--out",
                         str(tmp_path / "o")]) == cli.EXIT_ERROR

    def test_flag_overrides_horizon(self, tmp_path):
        doc = problem_doc(simulation={"x0": BENCH_X0.tolist(), "T": 10.0})
        out = tmp_path / "run"
        cli.main(["simulate", write_problem(tmp_path, doc),
                  "--out", str(out), "--horizon", "1.0", "--h", "0.01"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["T"] == 1.0
        assert summary["config"]["h"] == 0.01

    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        doc = problem_doc(gains={"F": GAINS_06["F"].tolist()},
                          simulation={"x0": BENCH_X0.tolist()})
        monkeypatch.setenv("SFOS_HORIZON", "2.0")
        out = tmp_path / "run"
        cli.main(["simulate", write_problem(tmp_path, doc), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["T"] == 2.0


class TestDemo:
    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_demo_smoke(self, tmp_path, example):
        out = tmp_path / example
        # short horizon keeps the smoke test fast; the full-length runs are
        # exercised by the acceptance suite
        assert cli.main(["demo", example, "--out", str(out),
                         "--horizon", "2.0", "--h", "0.01"]) == cli.EXIT_OK
        for idx in range(1, 6):
            assert (out / f"fig{idx}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["example"] == example
        assert np.array(summary["gains"]["K"]).size in (3, 6)
        assert summary["observer"]["final_norm_ratio"] < 1.0

    def test_demo_writes_debug_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert cli.main(["demo", "example1", "--out", str(tmp_path / "d"),
                         "--horizon", "0.1", "--debug-trace", str(trace)]
                        ) == cli.EXIT_OK
        doc = json.loads(trace.read_text())
        assert doc["iterates"] and doc["result"]["status"] == "Feasible"

    def test_demo_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["demo", "example1", "--out", str(a),
                  "--horizon", "2.0", "--h", "0.01"])
        cli.main(["demo", "example1", "--out", str(b),
                  "--horizon", "2.0", "--h", "0.01"])
        for name in [f"fig{i}.csv" for i in range(1, 6)] + ["summary.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()
