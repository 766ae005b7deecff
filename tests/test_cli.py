"""Command-line interface: problem files, exit codes, outputs."""

import json

import numpy as np
import pytest

from conftest import (BENCH_A, BENCH_B, BENCH_C, BENCH_E, BENCH_X0, GAINS_06,
                      GAINS_12)
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
        # The history is always summed in full: a file asking for short
        # memory is refused by name, not silently run in full.
        doc = problem_doc(simulation={"x0": BENCH_X0.tolist(),
                                      "memory_length": 100})
        assert cli.main(["simulate", write_problem(tmp_path, doc), "--out",
                         str(tmp_path / "o")]) == cli.EXIT_ERROR
        assert "memory_length" in capsys.readouterr().err
        # An inconsistent x0 is projected or refused; no mode runs it as it is.
        doc = problem_doc(simulation={"x0": BENCH_X0.tolist(),
                                      "consistency": "warn"})
        assert cli.main(["simulate", write_problem(tmp_path, doc), "--out",
                         str(tmp_path / "o")]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "schema validation" in err and "consistency" in err
        # The solver's margin, box and retry count are constants, not
        # settings: a file that sets one is refused by name.
        for key, value in (("feas_margin", 1e-6), ("box_bound", 10.0),
                           ("retries", 2)):
            doc = problem_doc(synthesis={"mode": "output", key: value})
            assert cli.main(["synth", write_problem(tmp_path, doc)]
                            ) == cli.EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err

    def test_missing_file_exit_1(self):
        assert cli.main(["analyze", "/nonexistent.json"]) == cli.EXIT_ERROR

    def test_ragged_matrix_exit_1(self, tmp_path, capsys):
        doc = problem_doc()
        doc["system"]["E"] = [[1.0, 0.0, 0.0], [0.0, 1.0]]
        assert cli.main(["analyze", write_problem(tmp_path, doc)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: E must be a rectangular matrix")
        assert len(err.strip().splitlines()) == 1

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_problem(tmp_path, problem_doc())
        cli.main(["analyze", path, "--out", str(out)])
        assert json.loads(out.read_text())["pencil_degree"] == 2
        assert capsys.readouterr().out == ""


class TestUsage:
    """Command-line misuse is bad input: one error line, exit 1."""

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "{path}", "--bogus"], "--bogus"),
        (["analyze"], "problem"),
        (["synth", "{path}", "--h", "0.5"], "--h"),
        (["analyze", "{path}", "--k", "3"], "--k"),
        (["synth", "{path}", "--horizon", "2"], "--horizon"),
        (["synth", "{path}", "--feas-margin", "1e-6"], "--feas-margin"),
        (["simulate", "{path}", "--box-bound", "10"], "--box-bound"),
        (["analyze", "{path}", "--tol", "1e-9"], "--tol")])
    def test_usage_error_exit_1(self, tmp_path, capsys, argv, named):
        path = write_problem(tmp_path, problem_doc(
            synthesis={"mode": "output"}, simulation={"x0": BENCH_X0.tolist()}))
        argv = [arg.replace("{path}", path) for arg in argv]
        assert cli.main(argv) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name, value", [
        ("K", "abc"), ("H", "abc"), ("HORIZON", "abc"), ("SEED", "abc")])
    def test_malformed_flag_exit_1(self, tmp_path, capsys, name, value):
        # A setting's flag that does not parse stops the run before any work.
        flag = f"--{name.lower()}"
        path = write_problem(tmp_path, problem_doc(
            gains={"F": GAINS_06["F"].tolist()},
            simulation={"x0": BENCH_X0.tolist(), "T": 1.0}))
        out = tmp_path / "run"
        assert cli.main(["simulate", path, flag, value, "--out", str(out)]
                        ) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and flag in captured.err
        assert value in captured.err
        assert len(captured.err.strip().splitlines()) == 1


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

    def test_verification_miss_exit_4(self, tmp_path, capsys,
                                      failing_verification):
        path = write_problem(tmp_path, problem_doc())
        assert (cli.main(["synth", path, "--mode", "observer"])
                == cli.EXIT_EXHAUSTED)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pencil check" in captured.err

    def test_output_retries_exhausted_exit_4(self, tmp_path, capsys,
                                             failing_stage2):
        path = write_problem(tmp_path, problem_doc())
        assert (cli.main(["synth", path, "--mode", "output"])
                == cli.EXIT_EXHAUSTED)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "all 2 intermediate gains" in captured.err

    @pytest.mark.parametrize("mode", ["observer", "output"])
    def test_every_solve_carries_its_iterates(self, tmp_path, capsys, mode):
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["synth", path, "--mode", mode]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["certificates"]) == 2
        for cert in doc["certificates"].values():
            assert 1 <= len(cert["iterates"]) <= cert["newton_steps"]
            assert set(cert["iterates"][0]) == {"eta", "t", "decrement2",
                                                "step_size"}
        if mode == "output":
            assert doc["attempts"] == []

    def test_mode_from_problem_file(self, tmp_path, capsys):
        doc = problem_doc(synthesis={"mode": "output"})
        assert cli.main(["synth", write_problem(tmp_path, doc)]) == cli.EXIT_OK
        assert "closed_loop_report" in capsys.readouterr().out

    def test_no_mode_anywhere_exit_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, problem_doc())
        assert cli.main(["synth", path]) == cli.EXIT_ERROR
        capsys.readouterr()
        # simulate resolves the mode by the same rule: a synthesis block
        # without one is refused, not run as an observer design.
        doc = problem_doc(synthesis={"seed": 3},
                          simulation={"x0": BENCH_X0.tolist(), "T": 0.1})
        path = write_problem(tmp_path, doc)
        for argv in (["synth", path],
                     ["simulate", path, "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == cli.EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: no synthesis mode")
            assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

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
                 ({"K": [[0.5]]}, "K"), ({"K": [[0.5, 0.1, 0.2], [0.3]]}, "K")]
        for alpha in (0.6, 1.2):
            for gains, name in cases:
                doc = problem_doc(alpha=alpha, gains=gains,
                                  simulation={"x0": BENCH_X0.tolist(), "T": 0.1})
                path = write_problem(tmp_path, doc)
                assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]
                                ) == cli.EXIT_ERROR
                err = capsys.readouterr().err
                assert err.startswith(f"error: gain {name}")
                assert len(err.strip().splitlines()) == 1

    def test_diverging_march_exit_1(self, tmp_path, capsys):
        doc = {"system": {"E": [[1.0]], "A": [[10.0]], "B": [[0.0]],
                          "C": [[1.0]], "alpha": 0.5},
               "simulation": {"x0": [1.0], "h": 1e-3, "T": 20.0}}
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]
                        ) == cli.EXIT_ERROR
        assert "stopped being finite at t = 6." in capsys.readouterr().err

    def test_non_finite_setting_exit_1(self, tmp_path, capsys):
        doc = problem_doc(simulation={"x0": BENCH_X0.tolist(), "T": 1.0})
        path = write_problem(tmp_path, doc)
        for flag, name in (("--h", "h"), ("--horizon", "T")):
            for value in ("nan", "inf"):
                assert cli.main(["simulate", path, flag, value, "--out",
                                 str(tmp_path / "o")]) == cli.EXIT_ERROR
                err = capsys.readouterr().err
                assert err.startswith(f"error: {name} must be finite")
                assert err.count("\n") == 1

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

    def test_file_horizon_used_when_no_flag(self, tmp_path):
        doc = problem_doc(gains={"F": GAINS_06["F"].tolist()},
                          simulation={"x0": BENCH_X0.tolist(), "T": 2.0})
        out = tmp_path / "run"
        cli.main(["simulate", write_problem(tmp_path, doc), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["T"] == 2.0
        assert summary["config"]["h"] == cli.DEFAULT_H

    def test_k_flag_reaches_the_summary(self, tmp_path):
        doc = problem_doc(alpha=1.2, gains={"F": GAINS_12["F"].tolist()},
                          simulation={"x0": BENCH_X0.tolist(), "T": 1.0,
                                      "h": 0.01})
        out = tmp_path / "run"
        assert cli.main(["simulate", write_problem(tmp_path, doc), "--out",
                         str(out), "--k", "3"]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["k"] == 3
        assert summary["injected_gain_verification"]["k"] == 3

    def test_output_gain_with_observer_gains_exit_1(self, tmp_path, capsys):
        # One controller per gains block: F is never silently preferred.
        F, K, L = (GAINS_06[name].tolist() for name in ("F", "K", "L"))
        for gains, named in (({"F": F, "K": K}, "K"), ({"F": F, "L": L}, "L"),
                             ({"F": F, "K": K, "L": L}, "K and L")):
            doc = problem_doc(gains=gains,
                              simulation={"x0": BENCH_X0.tolist(), "T": 1.0})
            assert cli.main(["simulate", write_problem(tmp_path, doc), "--out",
                             str(tmp_path / "o")]) == cli.EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"error: gains block gives F together with "
                                  f"{named}:")
            assert len(err.strip().splitlines()) == 1


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
        # Order 0.6 is never lifted; order 1.2 is lifted by the default k.
        k = 1 if example == "example1" else 2
        for loop in ("observer", "output_feedback"):
            assert summary[loop]["config"]["k"] == k

    def test_demo_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["demo", "example1", "--out", str(a),
                  "--horizon", "2.0", "--h", "0.01"])
        cli.main(["demo", "example1", "--out", str(b),
                  "--horizon", "2.0", "--h", "0.01"])
        for name in [f"fig{i}.csv" for i in range(1, 6)] + ["summary.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()
