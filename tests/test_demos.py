"""The walkthrough scripts in demos/ run to completion and write their files."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sfos

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


@pytest.mark.parametrize("script, gain_size", [("example1.py", 3),
                                               ("example2.py", 3)])
def test_demo_script_runs(tmp_path, script, gain_size):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfos.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script),
                           str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("observer_loop.csv", "output_loop.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("t,x1,x2,x3,u1")
        assert len(lines) == 20001 + 1          # header, then t = 0 ... 20
    gains = json.loads((tmp_path / "gains.json").read_text())
    assert np.array(gains["K"]).size == gain_size
    assert np.array(gains["F"]).shape == (1, 1)
