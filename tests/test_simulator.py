"""Grünwald-Letnikov stepping: accuracy, constraints, controller plumbing."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import binom, erfc, erfcx

from conftest import BENCH_X0, GAINS_06, GAINS_12, benchmark
from sfos.descriptor import DescriptorSystem
from sfos.errors import InputError
from sfos.simulator import (SimConfig, Trajectory, gl_weights, simulate,
                            tail_decay_exponent)
from sfos import lifting, simulator, synthesis


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
        # The vectorised product is the recurrence w_j = (1 - (a+1)/j) w_{j-1}
        # to the last bit.
        count = 10 ** 5
        for alpha in (0.1, 0.7, 0.999):
            expected = np.empty(count)
            expected[0] = 1.0
            for j in range(1, count):
                expected[j] = (1.0 - (alpha + 1.0) / j) * expected[j - 1]
            assert np.array_equal(gl_weights(alpha, count), expected)

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


class TestSimConfig:
    def test_validation(self):
        x0 = np.array([1.0])
        for h, T in ((0.0, 1.0), (-1e-3, 1.0), (1e-2, 1e-3)):
            with pytest.raises(InputError, match="h > 0"):
                SimConfig(h=h, T=T, x0=x0)
        for mode in ("repair", "warn"):
            with pytest.raises(InputError, match="consistency"):
                SimConfig(h=1e-2, T=1.0, x0=x0, consistency=mode)
        # Non-finite settings are refused by name, not left to fail in the
        # march with a bare ValueError or OverflowError.
        nan, inf = float("nan"), float("inf")
        for h, T, name in ((nan, 1.0, "h"), (1e-2, nan, "T"),
                           (1e-2, inf, "T"), (inf, 1.0, "h")):
            with pytest.raises(InputError, match=f"^{name} must be finite"):
                SimConfig(h=h, T=T, x0=x0)
        for start in ([nan], [inf], [1.0, -inf]):
            with pytest.raises(InputError, match="^x0 must be finite"):
                SimConfig(h=1e-2, T=1.0, x0=start)
            with pytest.raises(InputError, match="^xhat0 must be finite"):
                SimConfig(h=1e-2, T=1.0, x0=x0, xhat0=start)
        # There is no short-memory option; the history is always summed in full.
        for memory in ("full", 100):
            with pytest.raises(TypeError, match="memory_length"):
                SimConfig(h=1e-2, T=1.0, x0=x0, memory_length=memory)


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

    def test_projection_skipped_when_not_impulse_free(self):
        # E = [[0, 1], [0, 0]] with A = I is regular but impulsive: the fast
        # block cannot be solved for, so an inconsistent x0 is kept as given.
        sysm = DescriptorSystem(E=[[0.0, 1.0], [0.0, 0.0]], A=np.eye(2),
                                B=np.zeros((2, 1)), C=np.ones((1, 2)),
                                alpha=0.5)
        cfg = SimConfig(h=1e-2, T=1.0, x0=np.array([1.0, 1.0]))
        with pytest.warns(UserWarning, match="projection skipped"):
            traj = simulate(sysm, None, cfg)
        assert np.array_equal(traj.x[0], [1.0, 1.0])

    def test_diverging_march_raises(self):
        # D^0.5 x = 10 x grows like exp(100 t); the march overflows at
        # t = 6.7.  Tier-1 turns a numpy RuntimeWarning into a failure.
        sysm = DescriptorSystem(E=np.eye(1), A=10.0 * np.eye(1),
                                B=np.zeros((1, 1)), C=np.eye(1), alpha=0.5)
        cfg = SimConfig(h=1e-3, T=20.0, x0=np.array([1.0]))
        with pytest.raises(InputError,
                           match=r"finite at t = 6\.\d+; .*unstable"):
            simulate(sysm, None, cfg)

    def test_overflow_within_one_leaf_raises_without_warning(self):
        # h^-alpha E - A = 1e-6 here, so the leaf kernel itself overflows
        # within the first leaf; the march refuses with no RuntimeWarning.
        sysm = DescriptorSystem(E=np.eye(1), A=9.999999 * np.eye(1),
                                B=np.zeros((1, 1)), C=np.eye(1), alpha=0.5)
        cfg = SimConfig(h=1e-2, T=5.0, x0=np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"finite at t = 0\.46"):
                simulate(sysm, None, cfg)

    def test_inconsistent_x0_strict_raises(self, bench06):
        cfg = SimConfig(h=1e-2, T=1.0, x0=np.array([1.0, 1.0, 1.0]),
                        consistency="strict")
        with pytest.raises(InputError, match="algebraic"):
            simulate(bench06, ("output", GAINS_06["F"]), cfg)


def direct_march(E, A, x0, alpha, h, steps):
    """Reference march: the O(N^2) history sum over all lags, per step."""
    n = E.shape[0]
    ha = h ** (-alpha)
    lu = sla.lu_factor(ha * E - A)
    w = gl_weights(alpha, steps + 1)
    X = np.empty((steps + 1, n))
    X[0] = x0
    D = np.zeros((steps + 1, n))
    for s in range(1, steps + 1):
        conv = w[1:s + 1] @ D[:s][::-1]
        X[s] = sla.lu_solve(lu, ha * (E @ (x0 - conv)))
        D[s] = X[s] - x0
    return X


def stable_plant(n):
    """n states, E = I and a random symmetric stable A, seeded by n."""
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T
    sysm = DescriptorSystem(E=np.eye(n), A=A, B=np.ones((n, 1)),
                            C=np.ones((1, n)), alpha=0.7)
    return lifting.as_plant(sysm), ("none",), rng.standard_normal(n)


class TestLeafKernel:
    """The leaf kernel against a dense solve of the leaf's Toeplitz system."""

    @pytest.mark.parametrize("n, m", [(1, 64), (3, 64), (6, 64), (18, 21),
                                      (400, 1)])
    def test_inverts_the_leaf_system(self, n, m):
        plant, _, b = stable_plant(n)
        # A singular E from 2 states on.
        E = np.diag([1.0] * (n - 1) + [0.0 if n > 1 else 1.0])
        ha = 1e-3 ** -0.7
        G = np.linalg.solve(ha * E - plant.base.A, ha * E)
        w = gl_weights(0.7, m)
        K, c = simulator._leaf_kernel(G, b, w)
        # Identity diagonal blocks and G w_j on the j-th block subdiagonal.
        T = np.eye(m * n) + np.kron(sla.toeplitz(w, np.zeros(m)) - np.eye(m),
                                    G)
        want_K = np.linalg.solve(T, np.kron(np.eye(m), G))
        want_c = np.linalg.solve(T, np.tile(b, m))
        assert np.abs(K - want_K).max() <= 1e-13 * np.abs(want_K).max()
        assert np.abs(c - want_c).max() <= 1e-13 * np.abs(want_c).max()


class TestFastHistory:
    """The recursive FFT history against the direct sum it replaces."""

    @staticmethod
    def lifted_observer():
        plant = lifting.as_plant(benchmark(1.2), 2)
        return plant, ("observer", GAINS_12["K"], GAINS_12["L"]), BENCH_X0

    @staticmethod
    def relaxation():
        return lifting.as_plant(scalar_relaxation(), 2), ("none",), BENCH_X0[:1]

    @staticmethod
    def output_loop():
        # Unlifted, on the singular paper plant.
        plant = lifting.as_plant(benchmark(0.6))
        return plant, ("output", GAINS_06["F"]), BENCH_X0

    @staticmethod
    def lifted_observer_k3():
        # 18 closed-loop states: the published k = 2 gains, zero-padded.
        plant = lifting.as_plant(benchmark(1.2), 3)
        K, L = np.zeros((1, 9)), np.zeros((9, 1))
        K[:, :6], L[:6] = GAINS_12["K"], GAINS_12["L"]
        return plant, ("observer", K, L), BENCH_X0

    @staticmethod
    def block_plant():
        # 48 states: 18 stable 2 x 2 slow blocks and 12 algebraic rows,
        # mixed by orthogonal transforms; x0 is consistent.
        rng = np.random.default_rng(48)
        slow = [[[-1.0, b], [-b, -1.0]] for b in rng.uniform(0.0, 1.5, 18)]
        A = sla.block_diag(*slow, np.diag(-rng.uniform(0.5, 2.0, 12)))
        E = np.diag([1.0] * 36 + [0.0] * 12)
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((48, 48)))[0]
                  for _ in range(2))
        sysm = DescriptorSystem(E=Q1 @ E @ Q2, A=Q1 @ A @ Q2,
                                B=np.ones((48, 1)), C=np.ones((1, 48)),
                                alpha=0.7)
        x0 = Q2.T @ np.concatenate([rng.standard_normal(36), np.zeros(12)])
        return lifting.as_plant(sysm), ("none",), x0

    @staticmethod
    def wide_plant():
        # 96 states, past the size where the leaf length leaves 8 steps.
        return stable_plant(96)

    @staticmethod
    def one_step_leaves():
        # 390 states, past KERNEL_ROWS: every leaf is a single step.
        return stable_plant(390)

    @pytest.mark.parametrize("loop", ["lifted_observer", "relaxation",
                                      "output_loop", "lifted_observer_k3",
                                      "block_plant", "wide_plant",
                                      "one_step_leaves"])
    def test_matches_direct_sum(self, loop):
        plant, ctrl, x0 = getattr(self, loop)()
        n, N = plant.base.n, plant.lifted.n
        E, A, _ = synthesis.closed_loop(plant.lifted, ctrl)
        z0 = np.zeros(E.shape[0])
        z0[:n] = x0
        if ctrl[0] == "observer":
            z0[N:N + n] = x0              # e0 = x0 - xhat0 with xhat0 = 0
        h = 1e-3
        # One step, both sides of this loop's leaf length, and several
        # recursion levels.  With one-step leaves the reference's 3000 steps
        # would take long; 600 steps still take one FFT far field.
        leaf = simulator._leaf_steps(E.shape[0])
        all_steps = ((1, 2, 600) if leaf == 1
                     else (1, leaf - 1, leaf, leaf + 1, 3000))
        for steps in all_steps:
            cfg = SimConfig(h=h, T=steps * h, x0=x0, xhat0=np.zeros(n))
            traj = simulate(plant, ctrl, cfg)
            ref = direct_march(E, A, z0, plant.lifted.alpha, h, steps)
            got, want = [traj.x], [ref[:, :n]]
            if ctrl[0] == "observer":
                got.append(traj.e)
                want.append(ref[:, N:N + n])
            got, want = np.hstack(got), np.hstack(want)
            assert got.shape == want.shape == (steps + 1, len(want[0]))
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, steps
            assert traj.algebraic_residual.max() <= 1e-12 * scale, steps

    def test_long_relaxation_matches_closed_form(self):
        # E_{1/2}(-sqrt(t)) = erfcx(sqrt(t)), over 20 000 steps.
        cfg = SimConfig(h=1e-3, T=20.0, x0=np.array([1.0]))
        traj = simulate(scalar_relaxation(), None, cfg)
        assert traj.x.shape == (20001, 1)
        for t in (1.0, 5.0, 20.0):
            exact = erfcx(np.sqrt(t))
            idx = int(round(t / cfg.h))
            assert abs(traj.x[idx, 0] - exact) <= 1e-3 * exact


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
        # The residual is taken on the input the march applied (u = K x0 at
        # t = 0), not on the gated report.
        with pytest.warns(UserWarning, match="projected"):
            traj = simulate(bench06, ("state", GAINS_06["K"]), cfg)
        assert np.all(traj.u[0] == 0.0)
        assert traj.algebraic_residual.max() < 1e-9

    def test_higher_order_auto_lifts(self, bench12):
        cfg = SimConfig(h=1e-3, T=5.0, x0=BENCH_X0)
        traj = simulate(bench12, ("output", GAINS_12["F"]), cfg)
        assert traj.x.shape[1] == 3  # original state reported, not the lift
        assert traj.final_norm_ratio < 1.0

    def test_summary_reports_the_k_marched(self, bench06, bench12):
        # The plant carries its lifting factor into the march and the summary.
        cfg = SimConfig(h=1e-2, T=1.0, x0=BENCH_X0)
        F = GAINS_12["F"]
        for plant, k in ((bench06, 1), (bench12, lifting.DEFAULT_K),
                         (lifting.lift(bench12, 3), 3)):
            traj = simulate(plant, ("output", F), cfg)
            assert traj.k == k and traj.summary()["config"]["k"] == k

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
                     (("state", [[1.0, 0.0], [0.0]]), "K"),
                     (("state", np.full_like(K, np.nan)), "K"),
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

    def test_summary_and_json(self, bench06):
        traj = self.make_traj(bench06)
        s = traj.summary()
        assert s["controller"] == "observer"
        assert 0 <= s["final_norm_ratio"] < 1
        import json
        assert json.loads(json.dumps(s))["config"]["h"] == 1e-2


class TestTailDecay:
    def synthetic_power_law(self, alpha):
        t = np.linspace(0.0, 20.0, 2001)
        x = np.zeros((len(t), 1))
        x[0, 0] = 10.0
        x[1:, 0] = t[1:] ** (-alpha)
        cfg = SimConfig(h=1e-2, T=20.0, x0=np.array([10.0]))
        return Trajectory(times=t, x=x, u=np.zeros((len(t), 1)), e=None,
                          algebraic_residual=np.zeros(len(t)), config=cfg,
                          controller="none", k=1)

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
                          controller="none", k=1)
        with pytest.raises(InputError, match="decay"):
            tail_decay_exponent(traj)
