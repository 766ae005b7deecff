"""Admissibility-via-LMI and controller synthesis at orders in (0, 2)."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GAINS_06, GAINS_12, benchmark, random_impulse_free_system
from sfos import lifting, synthesis
from sfos.descriptor import DescriptorSystem, analyze, analyze_pair
from sfos.errors import (InputError, OutputStageExhausted,
                         StateFeedbackInfeasible, VerificationFailed)
from sfos.lifting import lift
from sfos.lmi import AffineExpr, VariableRegistry, block_of, sym_of
from sfos.synthesis import (admissible_via_lmi, closed_loop,
                            solve_output_injection, solve_state_feedback,
                            synth_observer, synth_output_feedback)


def verify(sysm, controller):
    return lifting.verify_loop(lifting.as_plant(sysm), controller)


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


def _reference_fpdm(reg, blocks, prefix, n, alpha):
    X = reg.expr(reg.add(f"{prefix}_X", "symmetric", n))
    Y = reg.expr(reg.add(f"{prefix}_Y", "skew", n))
    blocks.append(block_of(
        AffineExpr.bmat([[-X, -Y], [Y, -X]]), label=f"{prefix}_membership"))
    half = alpha * np.pi / 2.0
    return np.sin(half) * X + np.cos(half) * Y


def _reference_blocks(sys, kind):
    """The four inequalities posed by hand on E's row space.

    Kept here as the reference for the one criterion builder: admissibility
    on the right and on the left, state feedback and output injection.  With
    E = U1 Sigma V1^T (r = rank E), P is r x r; the null-space bases are
    the remaining singular vectors.
    """
    n, r = sys.n, sys.r
    U, sv, Vt = np.linalg.svd(sys.E)
    U1, V1, Sig = U[:, :r], Vt[:r].T, np.diag(sv[:r])
    E_right, E_left = Vt[r:].T, U[:, r:].T
    reg = VariableRegistry()
    blocks = []
    prefix = {"state_feedback": "P1", "output_injection": "P2"}.get(kind, "P")
    P = _reference_fpdm(reg, blocks, prefix, r, sys.alpha)
    if kind in ("admissibility_right", "state_feedback"):
        Q = reg.expr(reg.add(prefix.replace("P", "Q"), "rectangular", n - r, n))
        expr = sys.A @ (V1 @ P @ (Sig @ U1.T) + E_right @ Q)
        if kind == "state_feedback":
            expr = expr + sys.B @ reg.expr(reg.add("R1", "rectangular", sys.m, n))
    else:
        Q = reg.expr(reg.add(prefix.replace("P", "Q"), "rectangular", n, n - r))
        expr = (V1 @ Sig @ P @ U1.T + Q @ E_left) @ sys.A
        if kind == "output_injection":
            expr = expr + reg.expr(reg.add("R2", "rectangular", n, sys.p)) @ sys.C
    blocks.append(sym_of(expr, label=kind))
    return blocks, reg


def _criterion_plants():
    rng = np.random.default_rng(7)
    bench = benchmark(0.6)
    plants = [bench, bench.with_matrices(A=bench.A + 2.0 * bench.E),
              lifting.as_plant(benchmark(1.2), 2).lifted]
    for _ in range(2):
        sysm, _ = random_impulse_free_system(rng, float(rng.uniform(0.3, 1.0)))
        plants.append(sysm.with_matrices(B=rng.standard_normal((sysm.n, 2)),
                                         C=rng.standard_normal((2, sysm.n))))
    return plants


class TestCriterionBuilder:
    """One builder poses the criterion on both sides, with or without a gain."""

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("kind, side, suffix, gain", [
        ("admissibility_right", "right", "", False),
        ("admissibility_left", "left", "", False),
        ("state_feedback", "right", "1", True),
        ("output_injection", "left", "2", True)])
    def test_matches_the_hand_built_inequalities(self, index, kind, side,
                                                 suffix, gain):
        sysm = _criterion_plants()[index]
        blocks, reg, _ = synthesis._criterion(sysm, side, suffix, gain)
        ref_blocks, ref_reg = _reference_blocks(sysm, kind)
        n, r = sysm.n, sysm.r
        extra = (sysm.m * n if side == "right" else n * sysm.p) if gain else 0
        assert reg.num_slots == ref_reg.num_slots == r * r + n * (n - r) + extra
        assert len(blocks) == len(ref_blocks) == 2
        assert blocks[0].dim == 2 * r and blocks[1].dim == n
        for got, ref in zip(blocks, ref_blocks):
            assert got.label == ref.label
            for field in ("F0", "slots", "stack"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))


class TestReducedCriterionOracle:
    """The row-space criterion against QZ on random impulse-free plants."""

    def test_verdicts_and_gains(self):
        rng = np.random.default_rng(2024)
        stable_count = 0
        for _ in range(50):
            sysm, _ = random_impulse_free_system(rng, float(rng.uniform(0.3, 1.0)))
            truth = analyze(sysm).admissible
            stable_count += truth
            for side in ("right", "left"):
                assert admissible_via_lmi(sysm, side)[0] == truth
            K, _ = solve_state_feedback(sysm)
            assert analyze_pair(sysm.E, sysm.A + sysm.B @ K, sysm.alpha).admissible
            L, _ = solve_output_injection(sysm)
            assert analyze_pair(sysm.E, sysm.A + L @ sysm.C, sysm.alpha).admissible
        assert 10 <= stable_count <= 40

    def test_rank_zero_e(self):
        # E = 0 leaves an empty P: the criterion is A E_right Q alone.
        sysm = DescriptorSystem(E=np.zeros((2, 2)), A=-np.eye(2),
                                B=np.ones((2, 1)), C=np.ones((1, 2)), alpha=0.6)
        assert analyze(sysm).admissible
        for side in ("right", "left"):
            assert admissible_via_lmi(sysm, side)[0]
        K, _ = solve_state_feedback(sysm)
        assert analyze_pair(sysm.E, sysm.A + sysm.B @ K, 0.6).admissible


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
            bench06.with_matrices(A=bench06.A + 3.0 * bench06.E))
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
        Ebar, Abar, _ = closed_loop(bench06, ("observer", K, L))
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
                closed_loop(bench06, ("observer", K_bad, L_bad))
            with pytest.raises(InputError, match=f"gain {name}"):
                verify(bench06, ("observer", K_bad, L_bad))

    def test_published_gains_verify(self, bench06):
        rep = verify(bench06, ("observer", GAINS_06["K"], GAINS_06["L"]))
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
        doc = json.loads(json.dumps(design.to_dict()))
        assert np.allclose(doc["K"], design.K)
        assert doc["closed_loop_report"]["admissible"] is True
        assert doc["certificates"]["state_feedback"]["status"] == "Feasible"

    def test_verification_miss_raises_after_one_attempt(
            self, bench06, monkeypatch, failing_verification):
        # A loop that fails the pencil check is refused at once: each gain
        # is solved once, and nothing is retried.
        calls = []
        for name in ("solve_state_feedback", "solve_output_injection"):
            def counted(*args, _solve=getattr(synthesis, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(synthesis, name, counted)
        with pytest.raises(VerificationFailed, match="pencil check"):
            synth_observer(bench06)
        assert sorted(calls) == ["solve_output_injection",
                                 "solve_state_feedback"]


class TestOutputFeedback:
    def test_published_gain_verifies(self, bench06):
        rep = verify(bench06, ("output", GAINS_06["F"]))
        assert rep.admissible
        assert rep.min_angle_margin > 1e-6

    def test_misshapen_gain_rejected(self, bench06):
        for F in (np.ones((1, 2)), -3.6723, np.ones(1), np.ones((3, 1))):
            with pytest.raises(InputError, match="gain F"):
                verify(bench06, ("output", F))

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
            rep = verify(bench06, ("output", F))
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

    @pytest.mark.parametrize("status", ["Infeasible", "NumericalFailure"])
    def test_retry_after_stage2_failure(self, bench06, monkeypatch, status):
        # The first K0's stage 2 gives no certificate, certified infeasible
        # or unclassified alike, at k = 1 as above it: stage 1 is re-solved
        # with a tilt, and the design keeps the failed sample and its status.
        first_K0 = synthesis.solve_state_feedback(bench06)[0]
        solve, failed = synthesis.solve_feasibility, []

        def failing_once(blocks, reg, **kwargs):
            sol = solve(blocks, reg, **kwargs)
            if blocks[-1].label == "output_feedback" and not failed:
                failed.append(sol)
                return dataclasses.replace(sol, status=status, assignment=None)
            return sol
        monkeypatch.setattr(synthesis, "solve_feasibility", failing_once)
        design = synth_output_feedback(bench06)
        assert verify(bench06, ("output", design.F)).admissible
        assert not np.array_equal(design.K0, first_K0)
        assert design.attempts == [{"attempt": 0, "stage": 2,
                                    "status": status,
                                    "K0": first_K0.tolist()}]
        assert design.to_dict()["attempts"] == design.attempts

    def test_retries_exhausted(self, bench06, failing_stage2):
        with pytest.raises(OutputStageExhausted) as info:
            synth_output_feedback(bench06)
        assert [(a["attempt"], a["stage"]) for a in info.value.attempts] \
            == [(0, 2), (1, 2)]


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


class TestAnyOrder:
    """One synthesis entry per design, for plants of any order in (0, 2)."""

    @pytest.mark.parametrize("module", ["sfos.synthesis", "sfos.lifting",
                                        "sfos.simulator", "sfos.cli"])
    def test_module_imports_first(self, module):
        # synthesis and lifting import each other; whichever a program
        # imports first must load.
        import sfos
        root = os.path.dirname(os.path.dirname(os.path.abspath(sfos.__file__)))
        env = dict(os.environ, PYTHONPATH=root)
        proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_lifted_designs_equal_the_lifted_wrappers(self, bench12):
        obs = synth_observer(bench12)
        ref = lifting.synth_observer_lifted(bench12, k=2)
        assert np.array_equal(obs.K, ref.K) and np.array_equal(obs.L, ref.L)
        assert obs.K.shape == (1, 6) and obs.closed_loop_report.admissible
        out = synth_output_feedback(bench12, seed=0)
        ref = lifting.synth_output_feedback_lifted(bench12, k=2, seed=0)
        assert np.array_equal(out.K0, ref.K0) and np.array_equal(out.F, ref.F)
        assert out.F.shape == (1, 1) and out.closed_loop_report.admissible

    def test_no_lift_by_one_above_order_one(self, bench12):
        # synth_* take the factor from the plant, and no plant above order 1
        # carries k = 1: neither as_plant nor LiftedSystem builds one.
        with pytest.raises(InputError, match="^k must be at least 2"):
            lifting.as_plant(bench12, 1)
        with pytest.raises(InputError, match="^k must be at least 2"):
            lifting.LiftedSystem(base=bench12, k=1, lifted=bench12)


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
