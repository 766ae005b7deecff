"""Command-line interface: problem files, exit codes, outputs."""

import copy
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (BENCH_A, BENCH_B, BENCH_C, BENCH_E, BENCH_X0, GAINS_06,
                      GAINS_12)
from sfos import cli
from sfos.errors import InputError


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

    def test_jsonschema_loads_with_a_problem_file_only(self, tmp_path):
        # sfos demo reads no problem file, so importing the CLI skips it;
        # scipy.fft waits for the first march.  A file the walk proves valid
        # is loaded without it; an invalid one is judged by it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        valid = write_problem(tmp_path, problem_doc(), "valid.json")
        invalid = write_problem(tmp_path, problem_doc(alpha=3), "invalid.json")
        code = ("import sys, sfos.cli\n"
                "print('jsonschema' in sys.modules, 'scipy.fft' in sys.modules)\n"
                "sfos.cli.load_problem(sys.argv[1])\n"
                "print('jsonschema' in sys.modules)\n"
                "try:\n"
                "    sfos.cli.load_problem(sys.argv[2])\n"
                "except sfos.cli.InputError:\n"
                "    print('jsonschema' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, valid, invalid],
            env=dict(os.environ, PYTHONPATH=root), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["False False", "False", "True", ""]

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
        # The solver's margin, box and retries are constants, not
        # settings: a file that sets one is refused by name.
        for key, value in (("feas_margin", 1e-6), ("box_bound", 10.0),
                           ("retries", 2), ("seed", 3)):
            doc = problem_doc(synthesis={"mode": "output", key: value})
            assert cli.main(["synth", write_problem(tmp_path, doc)]
                            ) == cli.EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err

    def test_not_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not UTF-8 text")
        assert len(captured.err.strip().splitlines()) == 1

    def test_missing_file_exit_1(self):
        assert cli.main(["analyze", "/nonexistent.json"]) == cli.EXIT_ERROR

    def test_ragged_matrix_exit_1(self, tmp_path, capsys):
        doc = problem_doc()
        doc["system"]["E"] = [[1.0, 0.0, 0.0], [0.0, 1.0]]
        assert cli.main(["analyze", write_problem(tmp_path, doc)]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: E must be a rectangular matrix")
        assert len(err.strip().splitlines()) == 1

    def test_integer_too_large_for_a_float_exit_1(self, tmp_path, capsys):
        # The schema takes any JSON number; a 401-digit integer overflows
        # the float conversion and is refused with one error line.
        doc = problem_doc()
        doc["system"]["A"][1][2] = 10 ** 400
        assert cli.main(["analyze", write_problem(tmp_path, doc)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: A contains a number too large for a float\n"

    def test_report_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_problem(tmp_path, problem_doc())
        cli.main(["analyze", path, "--out", str(out)])
        assert json.loads(out.read_text())["pencil_degree"] == 2
        assert capsys.readouterr().out == ""


def _invalid_documents():
    """Documents that PROBLEM_SCHEMA refuses, each with its label as id."""
    def with_system(**changes):
        doc = problem_doc()
        doc["system"].update(changes)
        return doc

    no_c = problem_doc()
    del no_c["system"]["C"]
    two = with_system(alpha=-1)
    two["gains"] = {"F": [["x"]]}
    cases = [
        ("no-system", {}),
        ("not-an-object", []),
        ("extra-top-level-key", problem_doc(extra=1)),
        ("alpha-3", with_system(alpha=3)),
        ("alpha--1", with_system(alpha=-1)),
        ("alpha-string", with_system(alpha="x")),
        ("string-in-matrix", with_system(A=[[1, "2", 3]] * 3)),
        ("true-in-matrix", with_system(B=[[True], [1.0], [1.0]])),
        ("E-empty", with_system(E=[])),
        ("E-empty-row", with_system(E=[[]])),
        ("bad-mode", problem_doc(synthesis={"mode": "state"})),
        ("bad-consistency", problem_doc(simulation={"consistency": "warn"})),
        ("no-C", no_c),
        ("two-violations", two),
    ]
    return [pytest.param(doc, id=label) for label, doc in cases]


class TestSchema:
    """PROBLEM_SCHEMA is checked once, here; each file is checked in full."""

    def test_schema_is_a_valid_2020_12_schema(self):
        import jsonschema
        jsonschema.Draft202012Validator.check_schema(cli.PROBLEM_SCHEMA)
        # load_problem builds this class directly: it is the one
        # jsonschema.validate would pick for the schema.
        assert (jsonschema.validators.validator_for(cli.PROBLEM_SCHEMA)
                is jsonschema.Draft202012Validator)

    def test_load_problem_does_not_recheck_the_schema(self, tmp_path,
                                                      monkeypatch):
        import jsonschema

        def refuse(cls, schema):
            raise AssertionError("the schema was checked again")

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                            classmethod(refuse))
        doc = problem_doc()
        assert cli.load_problem(write_problem(tmp_path, doc)) == doc
        doc["system"]["alpha"] = 3
        with pytest.raises(InputError, match="fails schema validation"):
            cli.load_problem(write_problem(tmp_path, doc))

    @pytest.mark.parametrize("doc", _invalid_documents())
    def test_message_is_that_of_jsonschema_validate(self, tmp_path, doc):
        import jsonschema
        path = write_problem(tmp_path, doc)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, cli.PROBLEM_SCHEMA)
        with pytest.raises(InputError) as got:
            cli.load_problem(path)
        assert str(got.value) == (
            f"{path} fails schema validation at {expected.value.json_path}: "
            f"{expected.value.message}")


def _full_doc():
    """A valid document that reaches every subschema of PROBLEM_SCHEMA."""
    return problem_doc(
        synthesis={"mode": "observer", "decay_shift": 1.0,
                   "decay_shift_state": 2, "decay_shift_injection": 0.5},
        simulation={"h": 1e-3, "T": 2, "x0": BENCH_X0.tolist(),
                    "xhat0": [0.0, 0, -1.5], "consistency": "strict",
                    "gate_first_input": True},
        gains={name: GAINS_06[name].tolist() for name in ("K", "L", "F")})


def _paths(node, path=()):
    """The path of every node of a document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


#: Values a mutation puts in a document.  json.loads("1e400") is how a file
#: that writes 1e400 reads: an infinity.
_EDGE_VALUES = [True, False, "0.5", None, float("nan"), float("inf"),
                float("-inf"), json.loads("1e400"), -0.0, 0, 0.0, 2, 2.0, -1,
                1e-300, 10**400, [], [[]], [1.0], {}, "observer", "Observer",
                "project", "PROJECT", "output"]

#: Values a "bound" mutation gives a number: the schema's bounds and their
#: neighbours.
_BOUNDS = [0, 0.0, -0.0, 2, 2.0, 1e-300, -1e-300, 1.9999999999999998]


def _edge_documents():
    """(label, document) of the edge cases, valid and not."""
    def full(path, value):
        doc = _full_doc()
        _node(doc, path[:-1])[path[-1]] = value
        return doc

    def without(path):
        doc = _full_doc()
        del _node(doc, path[:-1])[path[-1]]
        return doc

    cases = [("full", _full_doc())]
    for label, value in (("true", True), ("string", "1"), ("null", None),
                         ("nan", float("nan")), ("inf", float("inf")),
                         ("-inf", float("-inf")),
                         ("1e400", json.loads("1e400"))):
        cases.append((f"{label}-in-A", full(("system", "A", 1, 2), value)))
        cases.append((f"{label}-shift", full(("synthesis", "decay_shift"), value)))
    cases += [
        ("empty-row-in-K", full(("gains", "K", 0), [])),
        ("empty-x0", full(("simulation", "x0"), [])),
        ("alpha-0", full(("system", "alpha"), 0)),
        ("alpha-2", full(("system", "alpha"), 2.0)),
        ("alpha-1.999", full(("system", "alpha"), 1.999)),
        ("minus-zero-shifts", full(("synthesis",), {
            "decay_shift": -0.0, "decay_shift_state": -0.0,
            "decay_shift_injection": -0.0})),
        ("negative-shift", full(("synthesis", "decay_shift_state"), -1e-300)),
        ("h-0", full(("simulation", "h"), 0.0)),
        ("no-alpha", without(("system", "alpha"))),
        ("no-system", without(("system",))),
        ("no-gains", without(("gains",))),
        ("extra-key-in-system", full(("system", "D"), [[0.0]])),
        ("extra-key-at-top", full(("seed",), 3)),
        ("mode-Observer", full(("synthesis", "mode"), "Observer")),
        ("consistency-PROJECT", full(("simulation", "consistency"), "PROJECT")),
        ("gate-1", full(("simulation", "gate_first_input"), 1)),
    ]
    return cases


class TestSchemaWalk:
    """cli._proven_valid proves only what jsonschema accepts."""

    @staticmethod
    def _jsonschema_valid(doc):
        import jsonschema
        return jsonschema.Draft202012Validator(cli.PROBLEM_SCHEMA).is_valid(doc)

    @pytest.mark.parametrize("label, doc", _edge_documents())
    def test_edge_documents(self, label, doc):
        proven = cli._proven_valid(cli.PROBLEM_SCHEMA, doc)
        assert not proven or self._jsonschema_valid(doc)
        # Documents with finite numbers that jsonschema accepts are proven,
        # so that they skip jsonschema.
        finite = not any(label.startswith(bad) for bad in ("nan", "inf", "-inf", "1e400"))
        assert proven == (finite and self._jsonschema_valid(doc))

    @given(st.lists(st.tuples(
        st.sampled_from(("replace", "delete", "add", "case", "bound", "empty")),
        st.integers(0, 10**6), st.sampled_from(_EDGE_VALUES),
        st.sampled_from(_BOUNDS)), min_size=1, max_size=3))
    def test_walk_is_sound(self, mutations):
        # Each mutation acts on a node picked from the current document:
        # any node ("replace", "delete"), an object ("add" a key), a string
        # ("case": an enum in another case), a number held directly in an
        # object ("bound": alpha, a shift, h or T at a bound) or an array
        # ("empty").  test_edge_documents runs each named edge for sure.
        doc = _full_doc()
        for op, pick, value, bound in mutations:
            paths = [path for path in _paths(doc) if path]
            if op == "add":
                paths = [()] + [path for path in paths
                                if isinstance(_node(doc, path), dict)]
            elif op == "case":
                paths = [path for path in paths
                         if isinstance(_node(doc, path), str)]
            elif op == "bound":
                paths = [path for path in paths
                         if type(_node(doc, path)) in (int, float)
                         and isinstance(_node(doc, path[:-1]), dict)]
            elif op == "empty":
                paths = [path for path in paths
                         if isinstance(_node(doc, path), list)]
            if not paths:
                continue
            path = paths[pick % len(paths)]
            if op == "add":
                _node(doc, path)["extra"] = value
                continue
            parent = _node(doc, path[:-1])
            if op == "delete":
                del parent[path[-1]]
            elif op == "case":
                parent[path[-1]] = parent[path[-1]].swapcase()
            elif op == "empty":
                parent[path[-1]] = []
            else:
                parent[path[-1]] = bound if op == "bound" else value
        if cli._proven_valid(cli.PROBLEM_SCHEMA, doc):
            assert self._jsonschema_valid(doc), doc

    def test_unknown_keyword_is_never_proven(self):
        doc = _full_doc()
        assert cli._proven_valid(cli.PROBLEM_SCHEMA, doc)

        def subschemas(schema, path=()):
            yield path
            for key, sub in schema.get("properties", {}).items():
                yield from subschemas(sub, path + ("properties", key))
            if "items" in schema:
                yield from subschemas(schema["items"], path + ("items",))

        paths = list(subschemas(cli.PROBLEM_SCHEMA))
        assert len(paths) == 39
        for path in paths:
            for keyword, value in (("$comment", "x"), ("maxItems", 10**9),
                                   ("multipleOf", 1e-300)):
                schema = copy.deepcopy(cli.PROBLEM_SCHEMA)
                _node(schema, path)[keyword] = value
                assert not cli._proven_valid(schema, doc), (path, keyword)
        # A modelled keyword with a value the walk does not model.
        for path, keyword, value in (
                ((), "additionalProperties", True),
                (("properties", "system", "properties", "alpha"), "type",
                 "integer"),
                (("properties", "system", "properties", "alpha"), "type",
                 ["number", "null"]),
                (("properties", "synthesis", "properties", "mode"), "enum",
                 ["observer", 1])):
            schema = copy.deepcopy(cli.PROBLEM_SCHEMA)
            _node(schema, path)[keyword] = value
            assert not cli._proven_valid(schema, doc), (path, keyword)


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
        (["analyze", "{path}", "--tol", "1e-9"], "--tol"),
        (["synth", "{path}", "--seed", "3"], "--seed")])
    def test_usage_error_exit_1(self, tmp_path, capsys, argv, named):
        path = write_problem(tmp_path, problem_doc(
            synthesis={"mode": "output"}, simulation={"x0": BENCH_X0.tolist()}))
        argv = [arg.replace("{path}", path) for arg in argv]
        assert cli.main(argv) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_parser_is_built_once(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        # Parsing leaves it as it was: each call gets its own namespace.
        first = parser.parse_args(["simulate", "p.json", "--h", "0.5"])
        second = parser.parse_args(["simulate", "p.json"])
        assert first.h == 0.5 and second.h is None

    @pytest.mark.parametrize("name, value", [
        ("K", "abc"), ("H", "abc"), ("HORIZON", "abc")])
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
        # Designed on the order-1.2 plant, the gains are the plant's own.
        assert np.array(doc["K"]).shape == (1, 3)
        assert np.array(doc["L"]).shape == (3, 1)
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

    @pytest.mark.parametrize("literal, name", [
        ("NaN", "decay_shift"), ("Infinity", "decay_shift_state")])
    def test_non_finite_shift_exit_1(self, tmp_path, capsys, literal, name):
        # json.load reads these literals and the schema's minimum lets them
        # through; synthesis refuses the shift by name, without a warning.
        mode = "output" if name == "decay_shift" else "observer"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_doc())[:-1]
                        + f', "synthesis": {{"mode": "{mode}", "{name}": {literal}}}}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["synth", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        value = "nan" if literal == "NaN" else "inf"
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite, got {value}\n"

    @pytest.mark.parametrize("mode, name", [
        ("output", "decay_shift"), ("observer", "decay_shift_state"),
        ("observer", "decay_shift_injection")])
    def test_integer_too_large_for_a_float_exit_1(self, tmp_path, capsys,
                                                  mode, name):
        # The schema's minimum lets a 401-digit shift through; synthesis
        # refuses it by name with one error line.
        doc = problem_doc(synthesis={"mode": mode, name: 10 ** 400})
        assert cli.main(["synth", write_problem(tmp_path, doc)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {name} contains a number too large "
                                "for a float\n")

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
        doc = problem_doc(synthesis={"decay_shift": 1.0},
                          simulation={"x0": BENCH_X0.tolist(), "T": 0.1})
        path = write_problem(tmp_path, doc)
        for argv in (["synth", path],
                     ["simulate", path, "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == cli.EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: no synthesis mode")
            assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["observer", "output"])
    def test_nonsingular_e_exit_0(self, tmp_path, capsys, mode):
        # E = I is an ordinary fractional-order plant; it is designed, not
        # refused.
        doc = {"system": {"E": [[1.0, 0.0], [0.0, 1.0]],
                          "A": [[1.0, 0.0], [0.0, -1.0]],
                          "B": [[1.0], [0.0]], "C": [[1.0, 0.0]],
                          "alpha": 0.6}}
        path = write_problem(tmp_path, doc)
        assert cli.main(["synth", path, "--mode", mode]) == cli.EXIT_OK
        design = json.loads(capsys.readouterr().out)
        assert design["closed_loop_report"]["admissible"] is True
        assert all(cert["status"] == "Feasible"
                   for cert in design["certificates"].values())

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

    @pytest.mark.parametrize("name", ["x0", "xhat0", "h", "T"])
    def test_integer_too_large_for_a_float_exit_1(self, tmp_path, capsys, name):
        simulation = {"x0": BENCH_X0.tolist(), "xhat0": [0.0, 0.0, 0.0],
                      "T": 1.0}
        simulation[name] = (10 ** 400 if name in ("h", "T")
                            else [0.0, 10 ** 400, 0.0])
        doc = problem_doc(gains={"K": GAINS_06["K"].tolist(),
                                 "L": GAINS_06["L"].tolist()},
                          simulation=simulation)
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]
                        ) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {name} contains a number too large "
                                "for a float\n")

    @pytest.mark.parametrize("alpha, gains, name", [
        (0.6, GAINS_06, "F"), (0.6, GAINS_06, "K"), (0.6, GAINS_06, "L"),
        (1.2, GAINS_12, "K"), (1.2, GAINS_12, "L")])
    def test_gain_too_large_for_a_float_exit_1(self, tmp_path, capsys, alpha,
                                               gains, name):
        # F alone, or K and L; above order 1 the padded K and L, which the
        # lift reads.
        given = {key: gains[key].tolist()
                 for key in (("F",) if name == "F" else ("K", "L"))}
        given[name][-1][-1] = 10 ** 400
        doc = problem_doc(alpha=alpha, gains=given,
                          simulation={"x0": BENCH_X0.tolist(), "T": 0.1})
        path = write_problem(tmp_path, doc)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]
                        ) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: gain {name} contains a number too "
                                "large for a float\n")

    def test_unallocatable_horizon_exit_1(self, tmp_path):
        # h = 1e-9 at T = 20 asks for a 149 GiB weight array.  The child's
        # address space is capped at 1.5 GB, so that no allocation commits
        # gigabytes, and BLAS runs on one thread.  x0 is consistent, so
        # nothing is projected.
        doc = problem_doc(simulation={"x0": [1.0, 0.0, 1.0], "h": 1e-9,
                                      "T": 20})
        path = write_problem(tmp_path, doc)
        root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import resource, sys\n"
                "cap = 1536 << 20\n"
                "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                "from sfos import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code, "simulate", path, "--out",
             str(tmp_path / "o")], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == cli.EXIT_ERROR, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("error: h = 1e-09 and T = 20 make 20000000000 "
                               "steps, more than memory holds; take a larger "
                               "h or a shorter T\n")

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

    def test_order_one_exit_0(self, tmp_path):
        # Order exactly 1 is marched as it is (backward Euler), not lifted.
        doc = {"system": {"E": [[1.0]], "A": [[-1.0]], "B": [[0.0]],
                          "C": [[1.0]], "alpha": 1.0},
               "simulation": {"x0": [1.0], "h": 1e-2, "T": 1.0}}
        out = tmp_path / "run"
        assert cli.main(["simulate", write_problem(tmp_path, doc),
                         "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert "k" not in summary["config"]
        assert summary["final_norm"] == pytest.approx(1.01 ** -100, rel=1e-12)

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

    def test_gain_size_picks_the_lift(self, tmp_path):
        # The published k = 2 state gain, zero-padded to a k = 3 lift: it has
        # nonzero entries off the plant block, so it is verified on that lift.
        K = np.hstack([GAINS_12["K"], np.zeros((1, 3))])
        doc = problem_doc(alpha=1.2, gains={"K": K.tolist()},
                          simulation={"x0": BENCH_X0.tolist(), "T": 1.0,
                                      "h": 0.01})
        path, out = write_problem(tmp_path, doc), tmp_path / "run"
        assert cli.main(["simulate", path, "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["injected_gain_verification"]["k"] == 3
        assert "k" not in summary["config"]
        # k is read off the gains; there is no flag for it.
        assert cli.main(["simulate", path, "--out", str(out),
                         "--k", "3"]) == cli.EXIT_ERROR

    def test_impulsive_loop_exit_2(self, tmp_path):
        # The first order-(1, 2) plant of scripts/retry_sweep.py at plant
        # seed 12.  With this F its loop has pencil degree 2 < rank E = 3 at
        # alpha, so it is impulsive; the lift by 2 or 3 called it admissible.
        E = [[0.3472223247426792, -0.5514558923603119, 0.12447437373166434,
              0.8787939452150227],
             [0.4036840984565333, -0.16760477971523266, 0.14778302356154935,
              -1.2242346977113456],
             [0.3475345376116756, 0.3557593291009117, 0.6840290134216744,
              0.21634937786849986],
             [-0.43653672700190593, 0.7751711040695288, 0.06557609966571896,
              -0.03556996623888119]]
        A = [[-0.441937456437777, 2.1530199152229925, -0.6128493796977004,
              -1.5561457831909764],
             [-0.8631695722846883, 0.18804849603397436, -1.5282144566934222,
              2.4390584025452724],
             [-1.1415437117329712, -1.445247937425836, -1.0761998956141305,
              -4.557048147892326],
             [2.7658715138308647, -0.09069215470830609, -0.9744968178461999,
              0.46785741210897286]]
        doc = {"system": {"E": E, "A": A, "B": [[1.0]] * 4,
                          "C": [[1.0] * 4], "alpha": 1.6},
               "gains": {"F": [[-3.1718023803389315]]},
               "simulation": {"x0": [0.0] * 4, "T": 0.1, "h": 0.01}}
        out = tmp_path / "run"
        assert cli.main(["simulate", write_problem(tmp_path, doc), "--out",
                         str(out)]) == cli.EXIT_NOT_ADMISSIBLE
        report = json.loads((out / "summary.json").read_text())[
            "injected_gain_verification"]
        assert report["admissible"] is False
        assert report["pencil_degree"] == 2 and report["impulse_free"] is False

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
        # Both orders design on the plant; neither loop reports a lift.
        assert np.array(summary["gains"]["K"]).size == 3
        assert summary["observer"]["final_norm_ratio"] < 1.0
        for loop in ("observer", "output_feedback"):
            assert "k" not in summary[loop]["config"]

    def test_demo_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["demo", "example1", "--out", str(a),
                  "--horizon", "2.0", "--h", "0.01"])
        cli.main(["demo", "example1", "--out", str(b),
                  "--horizon", "2.0", "--h", "0.01"])
        for name in [f"fig{i}.csv" for i in range(1, 6)] + ["summary.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()
