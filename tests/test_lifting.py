"""Order reduction for orders in (1, 2): structure, fidelity, synthesis."""

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GAINS_12, benchmark, random_impulse_free_system
from sfos import descriptor, lifting, synthesis
from sfos.descriptor import numerical_rank
from sfos.errors import InputError
from sfos.lifting import analyze_lifted_pair, lift, transfer_function
from sfos.synthesis import synth_observer, synth_output_feedback


def _finite_eigs(E, A):
    eigs = sla.eigvals(A, E)
    return eigs[np.isfinite(eigs)]


class TestLiftStructure:
    def test_block_layout(self, bench12):
        ls = lift(bench12)
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
            lift(bench06)

    def test_k_below_two_rejected(self, bench12):
        with pytest.raises(InputError, match="^k must be at least 2"):
            lift(bench12, k=1)
        for k in (2.5, 2.0, "2", True, None):
            with pytest.raises(InputError, match="^k must be an integer"):
                lift(bench12, k)
        assert lift(bench12, np.int64(3)).lifted.n == 9

    def test_determinant_identity(self, bench12):
        # det(mu*Ebar - Abar) = det(mu^k E - A) at sample points.
        ls = lift(bench12)
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
        ls = lift(bench12)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            g_base = transfer_function(bench12, s)
            g_lift = transfer_function(ls.lifted, s)
            assert abs(g_base - g_lift) < 1e-8 * max(abs(g_base), 1.0)


class TestLiftedAnalysis:
    def test_benchmark_verdict(self, bench12):
        report = lifting.verify_loop(lifting.as_plant(bench12), ("none",))
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
            plant = lifting.as_plant(sysm, k)
            report = lifting.verify_loop(plant, ("none",))
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
            ls = lift(sysm)
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
        assert lifting.as_plant(bench06) == lifting.LiftedSystem(
            base=bench06, k=1, lifted=bench06)
        plant = lifting.as_plant(bench12, 3)
        assert plant.k == 3 and plant.lifted.n == 9
        assert lifting.as_plant(plant) is plant

    def test_as_plant_refuses_a_disagreeing_k(self, bench06, bench12):
        plant = lift(bench12, 3)
        assert lifting.as_plant(plant, 3) is plant
        with pytest.raises(InputError, match="^plant is lifted by k = 3, not 2"):
            lifting.as_plant(plant, 2)
        # Below order 1 any integer k leaves the plant as it is; a k that is
        # not an integer is refused at every order.
        assert lifting.as_plant(bench06, 3).k == 1
        for sysm in (bench06, bench12, plant):
            with pytest.raises(InputError, match="^k must be an integer"):
                lifting.as_plant(sysm, 2.5)

    def test_observer_threshold_counts_both_copies(self, bench12):
        # K = [0, 0, 5] on the plant block makes (E, A + BK) impulsive: the
        # algebraic row of A + BK then annihilates ker E = span([0, 1, -1]).
        # The (state, error) pair has degree 2 + 4 = 6 < 2 * k * r = 8.
        K = np.zeros((1, 6))
        K[0, 2] = 5.0
        report = lifting.verify_loop(lifting.as_plant(bench12),
                                     ("observer", K, np.zeros((6, 1))))
        assert report.strict.regular and report.strict.pencil_degree == 6
        assert not report.effective_impulse_free and not report.admissible

    def test_effective_threshold(self, bench12):
        ls = lift(bench12)
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
            plant = lifting.as_plant(base, k)
            K = rng.standard_normal((base.m, base.n))
            L = rng.standard_normal((base.n, base.p))
            Kbar, Lbar = lifting.embed(plant, K, L)
            for ctrl, lifted in ((("state", K), ("state", Kbar)),
                                 (("observer", K, L), ("observer", Kbar, Lbar))):
                E, A, _ = synthesis.closed_loop(base, ctrl)
                Ebar, Abar, _ = synthesis.closed_loop(plant.lifted, lifted)
                base_eigs = descriptor.analyze_pair(E, A, 1.4).finite_eigenvalues
                roots = [lam ** (1.0 / k) * np.exp(2j * np.pi * j / k)
                         for lam in base_eigs for j in range(k)]
                report = descriptor.analyze_pair(Ebar, Abar, 1.4 / k)
                assert _matched(report.finite_eigenvalues, roots)

    def test_layout(self, bench06, bench12):
        K, L = np.arange(1.0, 4.0)[None], np.arange(4.0, 7.0)[:, None]
        Kbar, Lbar = lifting.embed(lifting.as_plant(bench12, 3), K, L)
        assert np.array_equal(Kbar, np.hstack([K, np.zeros((1, 6))]))
        assert np.array_equal(Lbar, np.vstack([np.zeros((6, 1)), L]))
        for got, want in zip(lifting.embed(lifting.as_plant(bench06), K, L),
                             (K, L)):
            assert np.array_equal(got, want)


class TestLiftedSynthesis:
    def test_published_gains_verify(self, bench12):
        ls = lift(bench12)
        Ebar, Abar, _ = synthesis.closed_loop(
            ls.lifted, ("observer", GAINS_12["K"], GAINS_12["L"]))
        report = analyze_lifted_pair(Ebar, Abar, 2 * bench12.r, 2, 0.6)
        assert report.admissible
        assert report.strict.min_angle_margin > 1e-6

    def test_published_output_gain_verifies(self, bench12):
        ls = lift(bench12)
        Acl = ls.lifted.A + ls.lifted.B @ GAINS_12["F"] @ ls.lifted.C
        report = analyze_lifted_pair(ls.lifted.E, Acl, bench12.r, 2, 0.6)
        assert report.admissible
        assert report.strict.min_angle_margin > 1e-6

    def test_synth_observer_lifted(self, bench12):
        design = synth_observer(bench12)
        assert design.K.shape == (1, 6) and design.L.shape == (6, 1)
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
        design = synth_observer(lifting.as_plant(benchmark(alpha), k),
                                decay_shift_state=2.0, decay_shift_injection=6.0)
        assert design.K.shape == (1, 3 * k) and design.L.shape == (3 * k, 1)
        assert design.closed_loop_report.admissible
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
        plant = lifting.as_plant(bench12, 3)
        obs = synth_observer(plant)
        out = synth_output_feedback(plant)
        assert obs.K.shape == (1, 9) and obs.L.shape == (9, 1)
        assert obs.closed_loop_report.admissible
        assert out.closed_loop_report.admissible
        # the output gain is static on the plant; check it there by QZ
        eigs = _finite_eigs(bench12.E, bench12.A + bench12.B @ out.F @ bench12.C)
        assert len(eigs) == bench12.r
        assert np.all(np.abs(np.angle(eigs)) > 1.2 * np.pi / 2)
