"""Grünwald-Letnikov stepping: accuracy, constraints, controller plumbing."""

import numpy as np
import pytest
from scipy.special import binom, erfc

from conftest import BENCH_X0, GAINS_06, GAINS_12, benchmark
from sfos.descriptor import DescriptorSystem
from sfos.errors import InputError
from sfos.simulator import (SimConfig, Trajectory, gl_weights, simulate,
                            tail_decay_exponent)
from sfos import synthesis


def scalar_relaxation(alpha=0.5):
    """D^alpha x = -x, x(0) = 1: solution E_alpha(-t^alpha)."""
    return DescriptorSystem(E=np.eye(1), A=-np.eye(1), B=np.zeros((1, 1)),
                            C=np.eye(1), alpha=alpha)


def mittag_leffler_half(t):
    """E_{1/2}(-sqrt(t)) = exp(t) * erfc(sqrt(t))."""
    return np.exp(t) * erfc(np.sqrt(t))


class TestGlWeights:
    def test_against_binomial_formula(self):
        alpha = 0.7
        w = gl_weights(alpha, 10)
        expected = [(-1.0) ** j * binom(alpha, j) for j in range(10)]
        assert np.allclose(w, expected, rtol=1e-12)

    def test_first_weights(self):
        w = gl_weights(0.5, 3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-0.5)
        assert w[2] == pytest.approx(-0.125)

    def test_range_validation(self):
        with pytest.raises(InputError):
            gl_weights(1.0, 5)
        with pytest.raises(InputError):
            gl_weights(0.5, 0)


class TestScalarAccuracy:
    def test_matches_mittag_leffler(self):
        cfg = SimConfig(h=1e-3, T=5.0, x0=np.array([1.0]))
        traj = simulate(scalar_relaxation(), None, cfg)
        for t_probe in (1.0, 5.0):
            idx = int(round(t_probe / cfg.h))
            exact = mittag_leffler_half(t_probe)
            assert traj.x[idx, 0] == pytest.approx(exact, rel=0.02)

    def test_first_order_convergence(self):
        errs = []
        for h in (2e-2, 1e-2, 5e-3):
            cfg = SimConfig(h=h, T=1.0, x0=np.array([1.0]))
            traj = simulate(scalar_relaxation(), None, cfg)
            errs.append(abs(traj.x[-1, 0] - mittag_leffler_half(1.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_short_memory_warns_and_stays_close(self):
        cfg = SimConfig(h=1e-2, T=2.0, x0=np.array([1.0]), memory_length=100)
        with pytest.warns(UserWarning, match="short-memory"):
            traj = simulate(scalar_relaxation(), None, cfg)
        full = simulate(scalar_relaxation(), None,
                        SimConfig(h=1e-2, T=2.0, x0=np.array([1.0])))
        # the neglected tail decays only like t^-alpha, so the truncation
        # error is visible but bounded
        assert np.abs(traj.x - full.x).max() < 5e-2


class TestDescriptorStepping:
    def test_closed_loop_constraint_residual(self, bench06):
        cfg = SimConfig(h=1e-3, T=5.0, x0=BENCH_X0, gate_first_input=True)
        traj = simulate(bench06, ("output", GAINS_06["F"]), cfg)
        scale = max(np.linalg.norm(traj.x, axis=1).max(), 1.0)
        assert traj.algebraic_residual.max() < 1e-6 * scale

    def test_singular_step_matrix_raises(self):
        # h = 1, alpha arbitrary: h^-alpha E - A = I - I is singular.
        sysm = DescriptorSystem(E=np.eye(1), A=np.eye(1), B=np.zeros((1, 1)),
                                C=np.eye(1), alpha=0.5)
        with pytest.raises(InputError, match="singular"):
            simulate(sysm, None, SimConfig(h=1.0, T=5.0, x0=np.array([1.0])))

    def test_inconsistent_x0_projected_with_warning(self, bench06):
        bad = np.array([1.0, 1.0, 1.0])  # violates the algebraic row
        cfg = SimConfig(h=1e-2, T=1.0, x0=bad)
        with pytest.warns(UserWarning, match="projected"):
            traj = simulate(bench06, ("output", GAINS_06["F"]), cfg)
        assert traj.algebraic_residual[0] < 1e-8

    def test_inconsistent_x0_strict_raises(self, bench06):
        cfg = SimConfig(h=1e-2, T=1.0, x0=np.array([1.0, 1.0, 1.0]),
                        consistency="strict")
        with pytest.raises(InputError, match="algebraic"):
            simulate(bench06, ("output", GAINS_06["F"]), cfg)


class TestControllers:
    def test_observer_error_decays(self, bench06):
        cfg = SimConfig(h=1e-3, T=10.0, x0=BENCH_X0, xhat0=np.zeros(3))
        traj = simulate(bench06, ("observer", GAINS_06["K"], GAINS_06["L"]),
                        cfg)
        assert traj.e is not None
        assert np.linalg.norm(traj.e[0]) == pytest.approx(
            np.linalg.norm(BENCH_X0))
        # power-law (t^-alpha) error decay: substantial but not exponential
        assert np.linalg.norm(traj.e[-1]) < 0.5 * np.linalg.norm(traj.e[0])

    def test_perfect_observer_start_keeps_error_zero(self, bench06):
        cfg = SimConfig(h=1e-2, T=2.0, x0=BENCH_X0, xhat0=BENCH_X0)
        traj = simulate(bench06, ("observer", GAINS_06["K"], GAINS_06["L"]),
                        cfg)
        assert np.abs(traj.e).max() < 1e-9

    def test_design_objects_accepted(self, bench06):
        design = synthesis.synth_observer(bench06)
        cfg = SimConfig(h=1e-2, T=2.0, x0=BENCH_X0)
        traj = simulate(bench06, design, cfg)
        assert traj.controller == "observer"

    def test_state_feedback_input_recovery(self, bench06):
        K, L, F = GAINS_06["K"], GAINS_06["L"], GAINS_06["F"]
        bench12 = benchmark(1.2)
        cfg = SimConfig(h=1e-2, T=2.0, x0=BENCH_X0, xhat0=np.zeros(3))
        # u = K xhat = K (x - e) for the observer, u = F C x for output
        # feedback; the lifted output C reads the plant block only.
        cases = [(bench06, ("state", K), lambda t: t.x @ K.T),
                 (bench06, ("observer", K, L), lambda t: (t.x - t.e) @ K.T),
                 (bench06, ("output", F), lambda t: t.x @ (F @ bench06.C).T),
                 (bench12, ("output", GAINS_12["F"]),
                  lambda t: t.x @ (GAINS_12["F"] @ bench12.C).T)]
        for plant, ctrl, expected in cases:
            traj = simulate(plant, ctrl, cfg)
            assert np.allclose(traj.u, expected(traj), rtol=1e-12, atol=1e-14)

    def test_gate_first_input(self, bench06):
        cfg = SimConfig(h=1e-2, T=1.0, x0=BENCH_X0, gate_first_input=True)
        traj = simulate(bench06, ("output", GAINS_06["F"]), cfg)
        assert np.all(traj.u[0] == 0.0)

    def test_higher_order_auto_lifts(self, bench12):
        cfg = SimConfig(h=1e-3, T=5.0, x0=BENCH_X0)
        traj = simulate(bench12, ("output", GAINS_12["F"]), cfg)
        assert traj.x.shape[1] == 3  # original state reported, not the lift
        assert traj.final_norm_ratio < 1.0

    def test_unknown_controller_rejected(self, bench06):
        cfg = SimConfig(h=1e-2, T=1.0, x0=BENCH_X0)
        with pytest.raises(InputError):
            simulate(bench06, ("pid", 1.0), cfg)

    def test_wrong_gain_shape_rejected(self, bench06):
        cfg = SimConfig(h=1e-2, T=1.0, x0=BENCH_X0)
        for plant, gains in ((bench06, GAINS_06), (benchmark(1.2), GAINS_12)):
            K, L = gains["K"], gains["L"]
            cases = [(("state", np.ones((1, 4))), "K"),
                     (("state", [[0.5, 0.1]]), "K"),
                     (("state", [[0.5]]), "K"),
                     (("state", K.ravel()), "K"),
                     (("output", [[1.0, 2.0]]), "F"),
                     (("output", 1.0), "F"),
                     (("observer", 0.5, L), "K"),
                     (("observer", K, L.T), "L"),
                     (("observer", K, L.ravel()), "L")]
            for ctrl, name in cases:
                with pytest.raises(InputError, match=f"gain {name}"):
                    simulate(plant, ctrl, cfg)


class TestTrajectoryOutputs:
    def make_traj(self, bench06):
        cfg = SimConfig(h=1e-2, T=2.0, x0=BENCH_X0, xhat0=np.zeros(3))
        return simulate(bench06, ("observer", GAINS_06["K"], GAINS_06["L"]),
                        cfg)

    def test_csv_layout(self, bench06, tmp_path):
        traj = self.make_traj(bench06)
        path = tmp_path / "run.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,u1,e1,e2,e3"
        assert len(lines) == len(traj.times) + 1
        first = np.fromstring(lines[1], sep=",")
        assert first[0] == 0.0
        assert np.allclose(first[1:4], BENCH_X0)

    def test_summary_and_json(self, bench06, tmp_path):
        traj = self.make_traj(bench06)
        s = traj.summary()
        assert s["controller"] == "observer"
        assert 0 <= s["final_norm_ratio"] < 1
        path = tmp_path / "summary.json"
        traj.to_json(path)
        import json
        assert json.loads(path.read_text())["config"]["h"] == 1e-2


class TestTailDecay:
    def synthetic_power_law(self, alpha):
        t = np.linspace(0.0, 20.0, 2001)
        x = np.zeros((len(t), 1))
        x[0, 0] = 10.0
        x[1:, 0] = t[1:] ** (-alpha)
        cfg = SimConfig(h=1e-2, T=20.0, x0=np.array([10.0]))
        return Trajectory(times=t, x=x, u=np.zeros((len(t), 1)), e=None,
                          algebraic_residual=np.zeros(len(t)), config=cfg,
                          controller="none")

    def test_recovers_exponent(self):
        for alpha in (0.4, 0.8):
            traj = self.synthetic_power_law(alpha)
            assert tail_decay_exponent(traj) == pytest.approx(-alpha, abs=1e-6)

    def test_nondecaying_raises(self):
        t = np.linspace(0.0, 1.0, 101)
        x = np.ones((101, 1))
        cfg = SimConfig(h=1e-2, T=1.0, x0=np.array([1.0]))
        traj = Trajectory(times=t, x=x, u=np.zeros((101, 1)), e=None,
                          algebraic_residual=np.zeros(101), config=cfg,
                          controller="none")
        with pytest.raises(InputError, match="decay"):
            tail_decay_exponent(traj)
