"""Grünwald-Letnikov stepping: accuracy, constraints, controller plumbing."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import binom, erfc, erfcx

from conftest import (BENCH_X0, GAINS_06, GAINS_12, benchmark,
                      random_impulse_free_system)
from sfos.descriptor import DescriptorSystem
from sfos.errors import InputError
from sfos.simulator import (SimConfig, Trajectory, gl_weights, simulate,
                            tail_decay_exponent, write_csv)
from sfos import cli, lifting, simulator, synthesis


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

    @pytest.mark.parametrize("alpha", [1.2, 1.6, 1.9])
    def test_above_order_one(self, alpha):
        w = gl_weights(alpha, 200)
        expected = [(-1.0) ** j * binom(alpha, j) for j in range(200)]
        assert np.allclose(w, expected, rtol=1e-12, atol=0.0)

    def test_first_weights(self):
        w = gl_weights(0.5, 3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-0.5)
        assert w[2] == pytest.approx(-0.125)

    def test_range_validation(self):
        # Orders in (0, 2): order 1 is the first difference, (1, -1, 0, ...).
        assert np.array_equal(gl_weights(1.0, 5), [1.0, -1.0, 0.0, 0.0, 0.0])
        for alpha in (0.0, 2.0, -0.5):
            with pytest.raises(InputError, match=r"\(0, 2\)"):
                gl_weights(alpha, 5)
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
        # So is an integer too large for a float, not left to raise
        # OverflowError or a TypeError from np.isfinite.
        for h, T, name in ((10 ** 400, 1.0, "h"), (1e-2, 10 ** 400, "T")):
            with pytest.raises(InputError, match=f"^{name} contains a number too large"):
                SimConfig(h=h, T=T, x0=x0)
        with pytest.raises(InputError, match="^x0 contains a number too large"):
            SimConfig(h=1e-2, T=1.0, x0=[10 ** 400])
        with pytest.raises(InputError, match="^xhat0 contains a number too large"):
            SimConfig(h=1e-2, T=1.0, x0=x0, xhat0=[-10 ** 400])
        # A missing initial state is refused by name, not left to fail in
        # simulate with an AttributeError.
        with pytest.raises(InputError, match="^x0 is required"):
            SimConfig(h=1e-2, T=1.0, x0=None)
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

    def test_order_one_is_backward_euler(self):
        # At order 1 the weights are (1, -1, 0, ...), so the march is
        # backward Euler: for D x = -x, x_N = (1 + h)^-N exactly, through
        # every leaf, direct and FFT history sum of a 20 000-step march.
        cfg = SimConfig(h=1e-3, T=20.0, x0=np.array([1.0]))
        traj = simulate(scalar_relaxation(1.0), None, cfg)
        want = (1.0 + cfg.h) ** -np.arange(traj.x.shape[0])
        assert np.abs(traj.x[:, 0] - want).max() <= 1e-12
        assert not traj.algebraic_residual.any()

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
    return sysm, ("none",), rng.standard_normal(n)


class TestLeafKernel:
    """The leaf kernel against a dense solve of the leaf's Toeplitz system."""

    @pytest.mark.parametrize("n, m", [(1, 64), (3, 64), (6, 64), (18, 21),
                                      (400, 1)])
    def test_inverts_the_leaf_system(self, n, m):
        plant, _, b = stable_plant(n)
        # A singular E from 2 states on.
        E = np.diag([1.0] * (n - 1) + [0.0 if n > 1 else 1.0])
        ha = 1e-3 ** -0.7
        G = np.linalg.solve(ha * E - plant.A, ha * E)
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
        # The published gains have nonzero padding: marched on the lift.
        return (benchmark(1.2), ("observer", GAINS_12["K"], GAINS_12["L"]),
                BENCH_X0)

    @staticmethod
    def relaxation():
        return scalar_relaxation(), ("none",), BENCH_X0[:1]

    @staticmethod
    def output_loop():
        # Unlifted, on the singular paper plant.
        return benchmark(0.6), ("output", GAINS_06["F"]), BENCH_X0

    @staticmethod
    def lifted_observer_k3():
        # 18 closed-loop states: the published k = 2 gains, zero-padded.
        K, L = np.zeros((1, 9)), np.zeros((9, 1))
        K[:, :6], L[:6] = GAINS_12["K"], GAINS_12["L"]
        return benchmark(1.2), ("observer", K, L), BENCH_X0

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
        return sysm, ("none",), x0

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
        k, ctrl = lifting.coordinates(plant, ctrl)
        work = plant if k == 1 else lifting.lift(plant, k).lifted
        n, N = plant.n, work.n
        E, A, _ = synthesis.closed_loop(work, ctrl)
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
            ref = direct_march(E, A, z0, work.alpha, h, steps)
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


def lifted_march(sysm, ctrl, x0, xhat0, k, h, steps):
    """The reference: ``_march`` of the loop's lift by k, gains zero-padded.

    The lifted state starts at (x0, 0, ..., 0), and the observer's error at
    (x0 - xhat0, 0, ..., 0).  Returns the plant block of x (and of e).
    """
    ls = lifting.lift(sysm, k)
    n, N = sysm.n, ls.lifted.n
    if ctrl[0] == "observer":
        ctrl = ("observer", *lifting.embed(ls, ctrl[1], ctrl[2]))
    elif ctrl[0] == "state":
        ctrl = ("state", lifting.embed(ls, ctrl[1], np.zeros((n, 1)))[0])
    E, A, _ = synthesis.closed_loop(ls.lifted, ctrl)
    z0 = np.zeros(E.shape[0])
    z0[:n] = x0
    if ctrl[0] == "observer":
        z0[N:N + n] = x0 - xhat0
    Z = simulator._march(E, A, z0, ls.lifted.alpha, h, steps)
    return np.hstack([Z[:, :n], Z[:, N:N + n]]) if ctrl[0] == "observer" \
        else Z[:, :n]


class TestPlantOrderMarch:
    """Orders in (1, 2) march on the plant as their zero-padded lift does.

    The GL weights at alpha/k, k times convolved, are those at alpha, so the
    lifted march from (x0, 0, ...) is the plant's march at alpha with the
    Caputo data x(0) = x0, x'(0) = 0, up to rounding.
    """

    def test_demo_designs(self, bench12):
        shifts = cli.DEMO_SHIFTS["example2"]
        obs = synthesis.synth_observer(
            bench12, decay_shift_state=shifts["decay_shift_state"],
            decay_shift_injection=shifts["decay_shift_injection"])
        out = synthesis.synth_output_feedback(
            bench12, decay_shift=shifts["decay_shift"])
        h, steps = 1e-3, 2000
        cfg = SimConfig(h=h, T=steps * h, x0=BENCH_X0, xhat0=np.zeros(3))
        for ctrl in (("observer", obs.K, obs.L), ("output", out.F)):
            traj = simulate(bench12, ctrl, cfg)
            got = traj.x if traj.e is None else np.hstack([traj.x, traj.e])
            for k in (2, 3):
                want = lifted_march(bench12, ctrl, BENCH_X0, np.zeros(3), k,
                                    h, steps)
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_random_plants(self):
        # Open loop and a random plant-size K; x0 is made consistent with
        # each loop first, since only the plant's march projects it.
        rng = np.random.default_rng(2025)
        h, steps = 1e-2, 100
        for _ in range(20):
            sysm, _ = random_impulse_free_system(rng, rng.uniform(1.05, 1.95))
            K = rng.standard_normal((sysm.m, sysm.n))
            for ctrl in (("none",), ("state", K)):
                E, A, _ = synthesis.closed_loop(sysm, ctrl)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    x0 = simulator._project_consistent(
                        E, A, rng.standard_normal(sysm.n), "project")
                traj = simulate(sysm, ctrl, SimConfig(h=h, T=steps * h, x0=x0))
                for k in (2, 3):
                    want = lifted_march(sysm, ctrl, x0, None, k, h, steps)
                    assert (np.abs(traj.x - want).max()
                            <= 1e-11 * np.abs(want).max())


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
        # The published order-1.2 observer gains are sized for the lift by
        # 2, with nonzero padding: the march lifts, and reports the plant.
        cfg = SimConfig(h=1e-3, T=5.0, x0=BENCH_X0, xhat0=np.zeros(3))
        traj = simulate(bench12, ("observer", GAINS_12["K"], GAINS_12["L"]),
                        cfg)
        assert traj.x.shape[1] == traj.e.shape[1] == 3
        assert traj.final_norm_ratio < 1.0

    def test_gain_size_picks_the_march(self, bench06, bench12):
        # The gains, not a setting, say where the loop is marched; the
        # summary has no lifting factor to report.
        cfg = SimConfig(h=1e-2, T=1.0, x0=BENCH_X0, xhat0=np.zeros(3))
        K, L = GAINS_12["K"][:, :3], GAINS_12["L"][3:]
        K3, L3 = lifting.embed(lifting.lift(bench12, 3), K, L)
        padded = simulate(bench12, ("observer", K3, L3), cfg)
        plant = simulate(bench12, ("observer", K, L), cfg)
        assert np.array_equal(padded.x, plant.x)
        assert np.array_equal(padded.e, plant.e)
        for sysm in (bench06, bench12):
            traj = simulate(sysm, ("output", GAINS_12["F"]), cfg)
            assert traj.summary()["config"] == cfg.to_dict()

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

    def test_csv_bytes_match_savetxt(self, tmp_path):
        # One % over the whole block writes what np.savetxt writes a row at
        # a time, special values included.
        t = np.linspace(0.0, 1.0, 7)
        data = np.array([[np.nan, -0.0], [1e300, -1e-300], [np.inf, -np.inf],
                         [5e-324, 1.0 / 3.0], [-2.5, 123456789012345.0],
                         [0.1, 1e-7], [7.0, -0.0]])
        ref, path = tmp_path / "ref.csv", tmp_path / "run.csv"
        np.savetxt(ref, np.hstack([t[:, None], data]), delimiter=",",
                   header="t,a,b", comments="", fmt="%.12g")
        write_csv(path, ["t", "a", "b"], t, data)
        assert path.read_bytes() == ref.read_bytes()

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
