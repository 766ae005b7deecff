"""Admissibility-via-LMI and controller synthesis at orders in (0, 1]."""

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GAINS_06, GAINS_12, benchmark, random_impulse_free_system
from sfos import descriptor, synthesis
from sfos.descriptor import DescriptorSystem, analyze, analyze_pair
from sfos.errors import InputError, StateFeedbackInfeasible
from sfos.lifting import lift
from sfos.synthesis import (admissible_via_lmi, augmented_pair, closed_loop,
                            solve_output_injection, solve_state_feedback,
                            synth_observer, synth_output_feedback,
                            verify_state_estimate_loop,
                            verify_static_output_loop)


def stable_singular_system(alpha=0.6):
    """A hand-built admissible plant: stable slow block, invertible fast block."""
    E = np.diag([1.0, 1.0, 0.0])
    A = np.array([[-1.0, 0.2, 0.0],
                  [0.0, -2.0, 0.3],
                  [0.1, 0.0, 1.0]])
    return DescriptorSystem(E=E, A=A, B=np.ones((3, 1)), C=np.ones((1, 3)),
                            alpha=alpha)


class TestAdmissibleViaLmi:
    def test_benchmark_open_loop_infeasible_both_sides(self, bench06):
        for side in ("right", "left"):
            verdict, sol = admissible_via_lmi(bench06, side)
            assert verdict is False
            assert sol.status == "Infeasible"
            assert sol.lower_bound > -sol.feas_margin

    def test_stable_system_feasible_both_sides(self):
        sysm = stable_singular_system()
        assert analyze(sysm).admissible
        for side in ("right", "left"):
            verdict, sol = admissible_via_lmi(sysm, side)
            assert verdict is True
            assert max(sol.margins) <= -sol.feas_margin

    def test_bad_side_rejected(self, bench06):
        with pytest.raises(InputError):
            admissible_via_lmi(bench06, side="up")

    def test_order_above_one_rejected(self, bench12):
        with pytest.raises(InputError, match="lift"):
            admissible_via_lmi(bench12)

    def test_agreement_with_pencil_analysis(self):
        rng = np.random.default_rng(101)
        for trial in range(12):
            alpha = float(rng.uniform(0.3, 1.0))
            sysm, _ = random_impulse_free_system(rng, alpha)
            side = "right" if trial % 2 == 0 else "left"
            verdict, _ = admissible_via_lmi(sysm, side)
            assert verdict == analyze(sysm).admissible


class TestStateFeedback:
    def test_benchmark_gain_stabilizes(self, bench06):
        K, cert = solve_state_feedback(bench06)
        assert K.shape == (1, 3)
        assert cert.feasible
        rep = analyze_pair(bench06.E, bench06.A + bench06.B @ K, 0.6)
        assert rep.admissible

    def test_decay_shift_moves_spectrum_left(self, bench06):
        K0, _ = solve_state_feedback(bench06)
        Ks, _ = solve_state_feedback(
            bench06, A_override=bench06.A + 3.0 * bench06.E)
        def max_real(K):
            rep = analyze_pair(bench06.E, bench06.A + bench06.B @ K, 0.6)
            return max(ev.real for ev in rep.finite_eigenvalues)
        assert max_real(Ks) < max_real(K0)
        # the shifted design still verifies against the true plant
        assert analyze_pair(bench06.E, bench06.A + bench06.B @ Ks, 0.6).admissible

    def test_uncontrollable_certified_infeasible(self, bench06):
        dead = bench06.with_matrices(B=np.zeros((3, 1)))
        with pytest.raises(StateFeedbackInfeasible):
            solve_state_feedback(dead)


class TestOutputInjection:
    def test_benchmark_injection_stabilizes(self, bench06):
        L, cert = solve_output_injection(bench06)
        assert L.shape == (3, 1)
        assert cert.feasible
        rep = analyze_pair(bench06.E, bench06.A + L @ bench06.C, 0.6)
        assert rep.admissible


class TestObserverDesign:
    def test_augmented_pair_structure(self, bench06):
        K, L = GAINS_06["K"], GAINS_06["L"]
        Ebar, Abar = augmented_pair(bench06, K, L)
        assert np.allclose(Ebar[:3, :3], bench06.E)
        assert np.allclose(Ebar[3:, 3:], bench06.E)
        assert np.allclose(Abar[3:, :3], 0.0)
        assert np.allclose(Abar[:3, :3], bench06.A + bench06.B @ K)
        assert np.allclose(Abar[3:, 3:], bench06.A + L @ bench06.C)

    def test_augmented_pair_rejects_misshapen_gains(self, bench06):
        K, L = GAINS_06["K"], GAINS_06["L"]
        cases = [(0, 0, "K"), ([[0.5]], L, "K"), (K.ravel(), L, "K"),
                 (0.5, L, "K"), (K, 0.0, "L"), (K, L.T, "L"),
                 (K, L.ravel(), "L")]
        for K_bad, L_bad, name in cases:
            with pytest.raises(InputError, match=f"gain {name}"):
                augmented_pair(bench06, K_bad, L_bad)
            with pytest.raises(InputError, match=f"gain {name}"):
                verify_state_estimate_loop(bench06, K_bad, L_bad)

    def test_published_gains_verify(self, bench06):
        rep = verify_state_estimate_loop(bench06, GAINS_06["K"], GAINS_06["L"])
        assert rep.admissible
        assert rep.min_angle_margin > 1e-6

    def test_synth_observer_full_design(self, bench06):
        design = synth_observer(bench06)
        assert design.K.shape == (1, 3) and design.L.shape == (3, 1)
        assert design.closed_loop_report.admissible
        for cert in design.certificates.values():
            assert cert.feasible
            assert max(cert.margins) <= -cert.feas_margin

    def test_separation_of_the_two_solves(self, bench06):
        # The state-feedback problem never sees C, the injection problem
        # never sees B: scrambling the unused matrix must not change the gain.
        K1, _ = solve_state_feedback(bench06)
        K2, _ = solve_state_feedback(
            bench06.with_matrices(C=7.0 * bench06.C))
        assert np.allclose(K1, K2)
        L1, _ = solve_output_injection(bench06)
        L2, _ = solve_output_injection(
            bench06.with_matrices(B=-3.0 * bench06.B))
        assert np.allclose(L1, L2)

    def test_design_serialization(self, bench06):
        import json
        design = synth_observer(bench06)
        doc = json.loads(synthesis.design_to_json(design))
        assert np.allclose(doc["K"], design.K)
        assert doc["closed_loop_report"]["admissible"] is True
        assert doc["certificates"]["state_feedback"]["status"] == "Feasible"


class TestOutputFeedback:
    def test_published_gain_verifies(self, bench06):
        rep = verify_static_output_loop(bench06, GAINS_06["F"])
        assert rep.admissible
        assert rep.min_angle_margin > 1e-6

    def test_misshapen_gain_rejected(self, bench06):
        for F in (np.ones((1, 2)), -3.6723, np.ones(1), np.ones((3, 1))):
            with pytest.raises(InputError, match="gain F"):
                verify_static_output_loop(bench06, F)

    def test_synth_output_feedback(self, bench06):
        design = synth_output_feedback(bench06)
        assert design.F.shape == (1, 1)
        assert design.closed_loop_report.admissible
        for cert in design.certificates.values():
            assert cert.feasible
            assert max(cert.margins) <= -cert.feas_margin

    def test_decay_shift_strengthens_gain(self, bench06):
        plain = synth_output_feedback(bench06)
        shifted = synth_output_feedback(bench06, decay_shift=2.0)
        def max_real(F):
            rep = verify_static_output_loop(bench06, F)
            return max(ev.real for ev in rep.finite_eigenvalues)
        assert max_real(shifted.F) < max_real(plain.F)

    def test_deterministic_under_seed(self, bench06):
        d1 = synth_output_feedback(bench06, seed=5)
        d2 = synth_output_feedback(bench06, seed=5)
        assert np.array_equal(d1.F, d2.F)

    def test_uncontrollable_certified_infeasible(self, bench06):
        dead = bench06.with_matrices(B=np.zeros((3, 1)))
        with pytest.raises(StateFeedbackInfeasible):
            synth_output_feedback(dead)


def _finite_spectrum(E, A):
    eigs = sla.eigvals(A, E)
    return eigs[np.isfinite(eigs)]


class TestClosedLoop:
    @pytest.mark.parametrize("alpha, k", [(0.6, 1), (1.2, 2), (1.2, 3)])
    def test_observer_spectrum_is_union_of_blocks(self, alpha, k):
        # Separation: the (state, error) pair's finite spectrum is that of
        # (E, A + BK) together with that of (E, A + LC), both built here.
        plant = benchmark(alpha) if k == 1 else lift(benchmark(alpha), k).lifted
        gains = GAINS_06 if k == 1 else GAINS_12
        n = plant.n
        # The published gains, zero-padded to the size of a k = 3 lift.
        K = np.zeros((1, n))
        K[:, :gains["K"].shape[1]] = gains["K"]
        L = np.zeros((n, 1))
        L[:gains["L"].shape[0]] = gains["L"]
        E, A, U = closed_loop(plant, ("observer", K, L))
        assert E.shape == A.shape == (2 * n, 2 * n) and U.shape == (1, 2 * n)
        expected = list(np.concatenate([
            _finite_spectrum(plant.E, plant.A + plant.B @ K),
            _finite_spectrum(plant.E, plant.A + L @ plant.C)]))
        got = list(_finite_spectrum(E, A))
        assert len(got) == len(expected) >= 4 * k
        for lam in expected:
            dist = np.abs(np.array(got) - lam)
            assert dist.min() <= 1e-6 * max(1.0, abs(lam))
            got.pop(int(np.argmin(dist)))

    def test_readouts(self, bench06):
        K, L, F = GAINS_06["K"], GAINS_06["L"], GAINS_06["F"]
        assert np.array_equal(closed_loop(bench06, ("none",))[2], np.zeros((1, 3)))
        assert np.array_equal(closed_loop(bench06, ("state", K))[2], K)
        assert np.array_equal(closed_loop(bench06, ("output", F))[2],
                              F @ bench06.C)
        assert np.array_equal(closed_loop(bench06, ("observer", K, L))[2],
                              np.hstack([K, -K]))
        with pytest.raises(InputError, match="unknown controller"):
            closed_loop(bench06, ("pid", K))


class TestMarginalRepair:
    def test_fpdm_repair_restores_membership(self):
        # A slightly indefinite membership block is corrected by a diagonal
        # shift before P is formed from a marginal witness.
        X = np.diag([1.0, -1e-7])
        Y = np.zeros((2, 2))
        vals = {"P_X": X, "P_Y": Y}
        P = synthesis._materialize_fpdm(vals, "P", 0.5, repair=True)
        # repaired X must be positive definite, so P's symmetric part is too
        assert np.linalg.eigvalsh((P + P.T) / 2.0)[0] > 0

    def test_no_repair_for_strict_certificates(self):
        X = np.diag([2.0, 1.0])
        Y = np.zeros((2, 2))
        P = synthesis._materialize_fpdm({"P_X": X, "P_Y": Y}, "P", 0.5,
                                        repair=False)
        assert np.allclose(P, np.sin(0.25 * np.pi) * X)
