"""Order reduction for orders in (1, 2): structure, fidelity, synthesis."""

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GAINS_12, benchmark, random_impulse_free_system
from sfos import descriptor, lifting, synthesis
from sfos.descriptor import numerical_rank
from sfos.errors import InputError
from sfos.lifting import (analyze_lifted_pair, coordinates, embed, lift,
                          transfer_function)
from sfos.simulator import SimConfig, simulate
from sfos.synthesis import synth_observer, synth_output_feedback


def _finite_eigs(E, A):
    eigs = sla.eigvals(A, E)
    return eigs[np.isfinite(eigs)]


class TestLiftStructure:
    def test_block_layout(self, bench12):
        ls = lift(bench12, 2)
        L = ls.lifted
        assert L.alpha == pytest.approx(0.6)
        assert np.allclose(L.E[:3, :3], bench12.E)
        assert np.allclose(L.E[3:, 3:], np.eye(3))
        assert np.allclose(L.A[:3, 3:], np.eye(3))
        assert np.allclose(L.A[3:, :3], bench12.A)
        assert np.allclose(L.B[3:], bench12.B)
        assert np.allclose(L.C[:, :3], bench12.C)

    def test_low_order_rejected(self, bench06):
        with pytest.raises(InputError, match="no lifting needed"):
            lift(bench06, 2)

    def test_k_below_two_rejected(self, bench12):
        with pytest.raises(InputError, match="^k must be at least 2"):
            lift(bench12, k=1)
        for k in (2.5, 2.0, "2", True, None):
            with pytest.raises(InputError, match="^k must be an integer"):
                lift(bench12, k)
        assert lift(bench12, np.int64(3)).lifted.n == 9

    def test_determinant_identity(self, bench12):
        # det(mu*Ebar - Abar) = det(mu^k E - A) at sample points.
        ls = lift(bench12, 2)
        rng = np.random.default_rng(0)
        for mu in rng.standard_normal(6) + 1j * rng.standard_normal(6):
            lhs = np.linalg.det(mu * ls.lifted.E - ls.lifted.A)
            rhs = np.linalg.det(mu ** 2 * bench12.E - bench12.A)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rank_deficit_is_structural(self, bench12):
        # rank(Ebar) always exceeds k * rank(E) by (k-1)(n-r): the lifted
        # pair can never be impulse-free in the strict sense.
        for k in (2, 3):
            ls = lift(bench12, k)
            rank_lifted = numerical_rank(ls.lifted.E)
            n, r = bench12.n, bench12.r
            assert rank_lifted == r + (k - 1) * n
            assert rank_lifted - k * r == (k - 1) * (n - r) > 0


class TestTransferFunction:
    def test_equivalence_base_vs_lifted(self, bench12):
        ls = lift(bench12, 2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            g_base = transfer_function(bench12, s)
            g_lift = transfer_function(ls.lifted, s)
            assert abs(g_base - g_lift) < 1e-8 * max(abs(g_base), 1.0)


class TestLiftedAnalysis:
    def test_benchmark_verdict(self, bench12):
        ls = lift(bench12, 2)
        report = analyze_lifted_pair(ls.lifted.E, ls.lifted.A, bench12.r, 2,
                                     ls.lifted.alpha)
        assert report.strict.regular
        assert not report.strict.impulse_free  # structurally impossible
        assert report.effective_impulse_free
        assert not report.admissible  # open loop is unstable
        assert report.base_alpha == pytest.approx(1.2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_sector_verdicts_agree_with_base(self, bench12, k):
        # Oracle: a finite lifted eigenvalue mu on the principal branch
        # (|arg mu| <= pi/k) is in the order-alpha/k sector exactly when mu^k
        # is in the order-alpha sector of the base pencil; the other branches
        # always are.  The lifted verdict then matches the base one.
        rng = np.random.default_rng(23)
        plants = [bench12] + [
            random_impulse_free_system(rng, rng.uniform(1.1, 1.9))[0]
            for _ in range(20)]
        for sysm in plants:
            plant = lift(sysm, k)
            report = analyze_lifted_pair(plant.lifted.E, plant.lifted.A,
                                         sysm.r, k, plant.lifted.alpha)
            base = descriptor.analyze(sysm)
            assert report.strict.regular == base.regular
            assert report.admissible == base.admissible
            half_base = sysm.alpha * np.pi / 2.0
            half_lift = plant.lifted.alpha * np.pi / 2.0
            for mu in report.strict.finite_eigenvalues:
                if abs(mu) < 1e-9:
                    continue
                in_lift = abs(np.angle(mu)) > half_lift
                if abs(np.angle(mu)) <= np.pi / k:
                    assert in_lift == (abs(np.angle(mu ** k)) > half_base)
                else:
                    assert in_lift

    def test_spectral_correspondence(self):
        # Nonzero finite eigenvalues of the lifted pencil are the k-th roots
        # (all branches) of the original finite eigenvalues.
        rng = np.random.default_rng(2)
        for _ in range(8):
            sysm, _ = random_impulse_free_system(rng, 0.9)
            sysm = sysm.with_matrices(alpha=1.3)
            ls = lift(sysm, 2)
            base_eigs = _finite_eigs(sysm.E, sysm.A)
            lifted_eigs = _finite_eigs(ls.lifted.E, ls.lifted.A)
            assert len(lifted_eigs) >= 2 * sysm.r
            for mu in lifted_eigs:
                if abs(mu) < 1e-9:
                    continue
                dist = np.min(np.abs(base_eigs - mu ** 2))
                assert dist < 1e-6 * max(1.0, abs(mu) ** 2)

    @pytest.mark.parametrize("k", [3, 4])
    def test_open_loop_augmented_pair_at_higher_k(self, k):
        # The (state, error) pair of the lift has 6k states; its pencil has
        # degree k * rank = 4k, so the structural threshold is met exactly.
        ls = lift(benchmark(1.2), k)
        n = ls.lifted.n
        Ebar, Abar, _ = synthesis.closed_loop(
            ls.lifted, ("observer", np.zeros((1, n)), np.zeros((n, 1))))
        report = analyze_lifted_pair(Ebar, Abar, 2 * ls.base.r, k, 1.2 / k)
        assert report.strict.regular
        assert report.strict.pencil_degree == 4 * k
        assert report.effective_impulse_free

    def test_as_plant(self, bench06, bench12):
        # F, and every gain up to order 1, runs on the plant itself (k = 1);
        # above order 1, zero-padded gains are cut back to the plant block.
        K, L, F = GAINS_12["K"], GAINS_12["L"], GAINS_12["F"]
        for sysm, ctrl in ((bench06, ("observer", K, L)), (bench12, ("output", F)),
                           (bench12, ("none",))):
            assert coordinates(sysm, ctrl) == (1, ctrl)
        K3, L3 = embed(lift(bench12, 3), K[:, :3], L[3:])
        k, (kind, K1, L1) = coordinates(bench12, ("observer", K3, L3))
        assert (k, kind) == (1, "observer")
        assert np.array_equal(K1, K[:, :3]) and np.array_equal(L1, L[3:])

    def test_gain_size_picks_the_coordinates(self, bench12):
        # Above order 1, gains with a nonzero auxiliary entry pick the lift
        # by their size; one such gain lifts the pair as given.
        K, L = GAINS_12["K"], GAINS_12["L"]
        assert coordinates(bench12, ("observer", K, L)) == (2, ("observer", K, L))
        K3, _ = embed(lift(bench12, 3), K[:, :3], L[3:])
        ctrl = ("observer", K3, np.vstack([np.ones((6, 1)), L[3:]]))
        assert coordinates(bench12, ctrl) == (3, ctrl)
        # Any other shape is left as it is, for closed_loop to refuse.
        for gain in (np.ones((1, 4)), np.ones((1, 3)), K.ravel(), 0.5):
            assert coordinates(bench12, ("state", gain)) == (1, ("state", gain))
        # A ragged gain is refused here, with closed_loop's message.
        with pytest.raises(InputError, match="^gain K must be a rectangular "
                           "matrix of numbers$"):
            coordinates(bench12, ("state", [[1.0, 0.0], [0.0]]))

    def test_as_plant_refuses_a_disagreeing_k(self, bench12):
        # A gain sized for no lift of the plant is refused by its shape.
        with pytest.raises(InputError, match=r"shape \(1, 4\), expected \(1, 3\)"):
            lifting.verify_loop(bench12, ("state", np.ones((1, 4))))
        # A lift's k must be an integer of at least 2.
        for k in (1, 2.5):
            with pytest.raises(InputError, match="^k must be"):
                lift(bench12, k)
        # A lifted plant is refused by its type, wherever a loop is built.
        cfg = SimConfig(h=1e-2, T=1.0, x0=np.zeros(3))
        for call in (lambda: coordinates(lift(bench12, 2), ("none",)),
                     lambda: lifting.verify_loop(lift(bench12, 2), ("none",)),
                     lambda: simulate(lift(bench12, 2), None, cfg)):
            with pytest.raises(InputError, match="not a LiftedSystem"):
                call()

    def test_observer_threshold_counts_both_copies(self, bench12):
        # K = [0, 0, 5] on the plant block makes (E, A + BK) impulsive: the
        # algebraic row of A + BK then annihilates ker E = span([0, 1, -1]).
        # The lifted (state, error) pair has degree 2 + 4 = 6 < 2 * k * r = 8.
        K = np.zeros((1, 6))
        K[0, 2] = 5.0
        ls = lift(bench12, 2)
        E, A, _ = synthesis.closed_loop(ls.lifted,
                                        ("observer", K, np.zeros((6, 1))))
        report = analyze_lifted_pair(E, A, 2 * bench12.r, 2, 0.6)
        assert report.strict.regular and report.strict.pencil_degree == 6
        assert not report.effective_impulse_free and not report.admissible
        # Its padding is zero, so verify_loop judges the plant loop at 1.2.
        report = lifting.verify_loop(bench12, ("observer", K, np.zeros((6, 1))))
        assert not report.impulse_free and not report.admissible

    def test_effective_threshold(self, bench12):
        ls = lift(bench12, 2)
        report = analyze_lifted_pair(ls.lifted.E, ls.lifted.A, bench12.r, 2,
                                     0.6)
        # open loop: degree 2*deg_base = 4 meets the k*r = 4 threshold
        assert report.strict.pencil_degree == 4
        assert report.effective_impulse_free


def _matched(got, expected):
    """Whether two lists of eigenvalues agree as multisets, to 1e-6 relative."""
    got = list(got)
    if len(got) != len(expected):
        return False
    for lam in expected:
        dist = np.abs(np.array(got) - lam)
        if dist.min() > 1e-6 * max(1.0, abs(lam)):
            return False
        got.pop(int(np.argmin(dist)))
    return True


class TestEmbed:
    """A base gain on the lifted state: the lifted loop is the base loop's lift."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_eigenvalues_are_kth_roots(self, k):
        # Oracle: each finite eigenvalue of the embedded loop is one of the
        # k k-th roots of a finite eigenvalue of the base loop, all of them
        # once, as det(mu^k E - A) = det(mu Ebar - Abar) says.  Random gains
        # may leave the base loop impulsive; the roots match all the same.
        rng = np.random.default_rng(30 + k)
        for _ in range(6):
            base, _ = random_impulse_free_system(rng, 0.7)
            base = base.with_matrices(alpha=1.4)
            plant = lift(base, k)
            K = rng.standard_normal((base.m, base.n))
            L = rng.standard_normal((base.n, base.p))
            Kbar, Lbar = embed(plant, K, L)
            for ctrl, lifted in ((("state", K), ("state", Kbar)),
                                 (("observer", K, L), ("observer", Kbar, Lbar))):
                E, A, _ = synthesis.closed_loop(base, ctrl)
                Ebar, Abar, _ = synthesis.closed_loop(plant.lifted, lifted)
                base_eigs = descriptor.analyze_pair(E, A, 1.4).finite_eigenvalues
                roots = [lam ** (1.0 / k) * np.exp(2j * np.pi * j / k)
                         for lam in base_eigs for j in range(k)]
                report = descriptor.analyze_pair(Ebar, Abar, 1.4 / k)
                assert _matched(report.finite_eigenvalues, roots)

    def test_layout(self, bench12):
        K, L = np.arange(1.0, 4.0)[None], np.arange(4.0, 7.0)[:, None]
        Kbar, Lbar = embed(lift(bench12, 3), K, L)
        assert np.array_equal(Kbar, np.hstack([K, np.zeros((1, 6))]))
        assert np.array_equal(Lbar, np.vstack([np.zeros((6, 1)), L]))
        # coordinates takes embedded gains back to the plant's own.
        k, (_, K1, L1) = coordinates(bench12, ("observer", Kbar, Lbar))
        assert k == 1 and np.array_equal(K1, K) and np.array_equal(L1, L)


class TestLiftedSynthesis:
    def test_published_gains_verify(self, bench12):
        ls = lift(bench12, 2)
        ctrl = ("observer", GAINS_12["K"], GAINS_12["L"])
        Ebar, Abar, _ = synthesis.closed_loop(ls.lifted, ctrl)
        report = analyze_lifted_pair(Ebar, Abar, 2 * bench12.r, 2, 0.6)
        assert report.admissible
        assert report.strict.min_angle_margin > 1e-6
        # Their padding is nonzero: verify_loop takes the same lift.
        assert lifting.verify_loop(bench12, ctrl) == report

    def test_published_output_gain_verifies(self, bench12):
        ls = lift(bench12, 2)
        Acl = ls.lifted.A + ls.lifted.B @ GAINS_12["F"] @ ls.lifted.C
        report = analyze_lifted_pair(ls.lifted.E, Acl, bench12.r, 2, 0.6)
        assert report.admissible
        assert report.strict.min_angle_margin > 1e-6

    def test_synth_observer_lifted(self, bench12):
        # Designed and returned on the plant at order 1.2.
        design = synth_observer(bench12)
        assert design.K.shape == (1, 3) and design.L.shape == (3, 1)
        assert design.closed_loop_report.admissible
        # designed at order 1.2 on the plant itself: strict certificates
        for cert in design.certificates.values():
            assert cert.status == "Feasible"
            assert max(cert.margins) <= -cert.feas_margin

    @pytest.mark.parametrize("alpha, k", [(1.5, 3), (1.8, 3), (1.2, 4)])
    def test_designs_that_raised_not_member_error(self, alpha, k):
        # At example1's observer shifts, lifted LMIs left these three
        # observers with a fractional-PD parameter outside the set; designed
        # on the plant they verify.
        plant = benchmark(alpha)
        design = lifting.synth_observer_lifted(
            plant, k, decay_shift_state=2.0, decay_shift_injection=6.0)
        assert design.K.shape == (1, 3 * k) and design.L.shape == (3 * k, 1)
        assert design.closed_loop_report.admissible
        assert lifting.verify_loop(plant, ("observer", design.K,
                                           design.L)).admissible
        for cert in design.certificates.values():
            assert cert.status == "Feasible"
            assert max(cert.margins) <= -cert.feas_margin

    def test_synth_output_feedback_lifted(self, bench12):
        design = synth_output_feedback(bench12)
        assert design.F.shape == (1, 1)
        assert design.closed_loop_report.admissible
        # a static gain in lifted coordinates is static on the plant too
        rep = descriptor.analyze_pair(
            bench12.E, bench12.A + bench12.B @ design.F @ bench12.C, 1.2)
        assert rep.regular and rep.impulse_free and rep.stable

    def test_lifted_designs_at_k3(self, bench12):
        obs = lifting.synth_observer_lifted(bench12, 3)
        out = lifting.synth_output_feedback_lifted(bench12, 3)
        assert obs.K.shape == (1, 9) and obs.L.shape == (9, 1)
        assert obs.closed_loop_report.admissible
        assert out.closed_loop_report.admissible
        # The lift of the observer loop is admissible at k = 3 as well.
        ls = lift(bench12, 3)
        E, A, _ = synthesis.closed_loop(ls.lifted, ("observer", obs.K, obs.L))
        assert analyze_lifted_pair(E, A, 2 * bench12.r, 3, 0.4).admissible
        # the output gain is static on the plant; check it there by QZ
        eigs = _finite_eigs(bench12.E, bench12.A + bench12.B @ out.F @ bench12.C)
        assert len(eigs) == bench12.r
        assert np.all(np.abs(np.angle(eigs)) > 1.2 * np.pi / 2)
