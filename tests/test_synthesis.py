"""Admissibility-via-LMI and controller synthesis at orders in (0, 2)."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import GAINS_06, GAINS_12, benchmark, random_impulse_free_system
from sfos import fpdm, lifting, lmi, synthesis
from sfos.descriptor import DescriptorSystem, analyze, analyze_pair
from sfos.errors import (GainRecoverySingular, InputError, LmiNumericalError,
                         OutputStageExhausted, StateFeedbackInfeasible,
                         VerificationFailed)
from sfos.lifting import lift
from sfos.lmi import (AffineExpr, VariableRegistry, block_of,
                      solve_feasibility, sym_of)
from sfos.simulator import SimConfig, simulate
from sfos.synthesis import (admissible_via_lmi, closed_loop,
                            solve_output_injection, solve_state_feedback,
                            synth_observer, synth_output_feedback)


def verify(sysm, controller):
    return lifting.verify_loop(sysm, controller)


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

    def test_feasible_stops_at_first_certificate(self):
        # The verdict needs one certifying point, so a Feasible path ends at
        # the first step whose t clears the margin.  The gain solves run to
        # the end of their round (test_decay_shift_strengthens_gain).
        for alpha in (0.6, 1.5):
            for side in ("right", "left"):
                verdict, sol = admissible_via_lmi(stable_singular_system(alpha), side)
                ts = [row[1] for row in sol.iterates]
                assert verdict is True and ts[-1] <= -sol.feas_margin
                assert all(t > -sol.feas_margin for t in ts[:-1])
                assert max(sol.margins) <= -sol.feas_margin
                assert sol.lower_bound <= sol.t

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_infeasible_stops_at_first_certificate(self, alpha):
        # A plant whose slow modes are all unstable has a witness Z >= 0
        # with A*(Z) = 0 that the box does not hide: the projected dual
        # bound certifies it within the first centering round (eta = 1).
        rng = np.random.default_rng(int(alpha * 10))
        plants = []
        while len(plants) < 6:
            sysm, stable = random_impulse_free_system(rng, alpha)
            if not stable:
                plants.append(sysm)
        for sysm in plants:
            for side in ("right", "left"):
                verdict, sol = admissible_via_lmi(sysm, side)
                assert verdict is False and sol.status == "Infeasible"
                assert sol.iterates and all(row[0] == 1.0 for row in sol.iterates)
                assert sol.lower_bound > -sol.feas_margin

    @pytest.mark.parametrize("boundary_margin, seed", [(0.05, 2024), (1e-3, 2025)])
    def test_near_the_sector_boundary(self, boundary_margin, seed):
        # Slow spectra boundary_margin rad from the sector boundary, on
        # either side: no Feasible or Infeasible verdict may contradict the
        # construction.  A loud refusal (LmiNumericalError) is allowed.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            alpha = float(rng.uniform(0.2, 1.0))
            sysm, stable = random_impulse_free_system(rng, alpha, boundary_margin)
            for side in ("right", "left"):
                try:
                    verdict, sol = admissible_via_lmi(sysm, side)
                except LmiNumericalError:
                    continue
                assert verdict is stable, (alpha, side, sol.status)

    def test_bad_side_rejected(self, bench06):
        with pytest.raises(InputError):
            admissible_via_lmi(bench06, side="up")

    def test_order_above_one_decided_directly(self, bench12):
        # Above order 1 the plant itself is decided, by the conic sector
        # with its multiplier Q, not refused with advice to lift it.
        for side in ("right", "left"):
            verdict, sol = admissible_via_lmi(bench12, side)
            assert verdict is False and sol.status == "Infeasible"
            assert sol.block_labels == ("P_membership", f"admissibility_{side}")
            verdict, sol = admissible_via_lmi(stable_singular_system(1.5), side)
            assert verdict is True and max(sol.margins) <= -sol.feas_margin

    def test_lifted_plant_rejected(self, bench12):
        # The criterion is posed on a plain plant; a lifted one is refused
        # by its type, not with an AttributeError.
        with pytest.raises(InputError, match="LiftedSystem"):
            admissible_via_lmi(lift(bench12, 2))

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
    if n:
        blocks.append(block_of(
            AffineExpr.bmat([[-X, -Y], [Y, -X]]), label=f"{prefix}_membership"))
    half = alpha * np.pi / 2.0
    return np.sin(half) * X + np.cos(half) * Y


def _reference_lyapunov(prefix, n, alpha):
    """The expression algebra's route to :func:`synthesis._lyapunov`'s problem."""
    reg = VariableRegistry()
    blocks = []
    if alpha > 1.0:
        P = reg.expr(reg.add(prefix, "symmetric", n))
        if n:
            blocks.append(block_of(-P, label=f"{prefix}_membership"))
        return reg, blocks, P
    return reg, blocks, _reference_fpdm(reg, blocks, prefix, n, alpha)


def _same_bits(got, want):
    """Equal by np.array_equal, and in the sign of every zero too."""
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _reference_blocks(sys, kind):
    """The four inequalities posed by hand on E's row space, Q free.

    The reference for the gain builder (state feedback and output
    injection), and the multiplier form whose verdict the projected
    admissibility criterion must reproduce on the right and on the left.
    With E = U1 Sigma V1^T (r = rank E), P is r x r; the null-space bases
    are the remaining singular vectors.
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
              lift(benchmark(1.2), 2).lifted]
    for _ in range(2):
        sysm, _ = random_impulse_free_system(rng, float(rng.uniform(0.3, 1.0)))
        plants.append(sysm.with_matrices(B=rng.standard_normal((sysm.n, 2)),
                                         C=rng.standard_normal((2, sysm.n))))
    return plants


def _small_plant(E, A):
    n = len(E)
    return DescriptorSystem(E=E, A=A, B=np.ones((n, 1)), C=np.ones((1, n)),
                            alpha=0.6)


def _nonsingular_plant(rng, alpha, stable):
    """A 3-state plant with a random nonsingular E and a known spectrum.

    E^{-1} A is similar to a complex pair and a real eigenvalue, placed at
    least 0.05 rad inside or outside the sector |arg| > alpha*pi/2; B and
    C are random.
    """
    half = alpha * np.pi / 2.0
    theta = (rng.uniform(half + 0.05, np.pi) if stable
             else rng.uniform(0.0, half - 0.05))
    a, b = rng.uniform(0.3, 3.0) * np.array([np.cos(theta), np.sin(theta)])
    lam = rng.uniform(0.3, 3.0) * (-1.0 if stable else 1.0)
    D = sla.block_diag([[a, b], [-b, a]], [[lam]])
    T = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ np.diag(rng.uniform(0.7, 1.4, 3))
    E = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ np.diag(rng.uniform(0.5, 2.0, 3))
    return DescriptorSystem(E=E, A=E @ np.linalg.solve(T, D @ T),
                            B=rng.standard_normal((3, 1)),
                            C=rng.standard_normal((1, 3)), alpha=alpha)


#: E = I, A = diag(1, -1), B = e1, C = e1^T: an unstable plant with a
#: nonsingular E, whose criteria have no multiplier Q.
IDENTITY_E = DescriptorSystem(E=np.eye(2), A=np.diag([1.0, -1.0]),
                              B=np.array([[1.0], [0.0]]),
                              C=np.array([[1.0, 0.0]]), alpha=0.6)

#: Names of the plants on which the three admissibility verdicts must agree.
ORACLE_PLANTS = ([f"criterion-{i}" for i in range(5)]
                 + [f"random-{i}" for i in range(8)]
                 + ["impulsive", "rank-zero", "rank-zero-singular",
                    "identity", "identity-stable", "nonsingular"])


def _oracle_plants():
    """Each plant of :data:`ORACLE_PLANTS`, by name.

    The five criterion plants; eight seeded random impulse-free plants;
    a regular impulsive plant (E_left A E_right = 0); E = 0 with A
    nonsingular, which leaves the projected criterion no block; E = 0
    with A singular, a singular pencil whose N is wider than r = 0; and
    three with r = n: :data:`IDENTITY_E`, E = I with A = -I, and a seeded
    random nonsingular E with a stable spectrum.
    """
    rng = np.random.default_rng(17)
    plants = {f"criterion-{i}": p for i, p in enumerate(_criterion_plants())}
    for i in range(8):
        plants[f"random-{i}"] = random_impulse_free_system(
            rng, float(rng.uniform(0.3, 1.0)))[0]
    plants["impulsive"] = _small_plant(
        np.diag([1.0, 1.0, 0.0]),
        np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, 0.0]]))
    plants["rank-zero"] = _small_plant(np.zeros((2, 2)), -np.eye(2))
    plants["rank-zero-singular"] = _small_plant(np.zeros((2, 2)),
                                                np.diag([1.0, 0.0]))
    plants["identity"] = IDENTITY_E
    plants["identity-stable"] = _small_plant(np.eye(2), -np.eye(2))
    plants["nonsingular"] = _nonsingular_plant(rng, 0.7, stable=True)
    return plants


def _admissibility(sysm, side):
    """(blocks, registry) of the admissibility criterion on ``side``.

    Posed as :func:`sfos.synthesis.admissible_via_lmi` poses it: the left
    side is the right side of the dual plant.
    """
    A, _, ann = synthesis._right_side(sysm, dual=side == "left")
    return synthesis._projected(A, ann, sysm.alpha, f"admissibility_{side}")


def _dual_assignment(reg, ref_reg, x):
    """The slots of the dual's output-injection registry ``reg`` at ``x``.

    ``x`` assigns the left-side reference registry ``ref_reg``; its
    variables map to the dual's by (X, Y, Q, R) -> (X, -Y, Q^T, R^T).
    """
    y = np.zeros(reg.num_slots)
    for name, image in (("P2_X", lambda M: M), ("P2_Y", lambda M: -M),
                        ("Q2", np.transpose), ("R2", np.transpose)):
        entry = reg.entry(name)
        i, j = lmi._positions(entry)
        y[entry.start:entry.start + entry.count] = image(
            ref_reg.materialize(name, x))[i, j]
    return y


class TestCriterionBuilder:
    """One builder poses the gain criterion: on the plant, and on its dual."""

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("kind", ["state_feedback", "output_injection"])
    def test_matches_the_hand_built_inequalities(self, index, kind):
        # State feedback is the reference right side, bit for bit.  Output
        # injection is posed on the dual plant: at random assignments of the
        # left reference, mapped by (X, Y, Q, R) -> (X, -Y, Q^T, R^T), its
        # criterion block is the reference's, and its membership block is
        # the reference's conjugated by J = diag(I, -I).
        sysm = _criterion_plants()[index]
        dual = kind == "output_injection"
        suffix = "2" if dual else "1"
        A, B, ann = synthesis._right_side(sysm, dual)
        blocks, reg = synthesis._criterion(A, B, ann, sysm.alpha, suffix, kind)
        ref_blocks, ref_reg = _reference_blocks(sysm, kind)
        n, r = sysm.n, sysm.r
        extra = n * (sysm.p if dual else sysm.m)
        assert reg.num_slots == ref_reg.num_slots == r * r + n * (n - r) + extra
        assert ([b.label for b in blocks] == [b.label for b in ref_blocks]
                == [f"P{suffix}_membership", kind])
        assert blocks[0].dim == 2 * r and blocks[1].dim == n
        if not dual:
            for got, ref in zip(blocks, ref_blocks):
                for field in ("F0", "slots", "stack"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field))
            return
        J = np.diag(np.r_[np.ones(r), -np.ones(r)])
        rng = np.random.default_rng(index)
        for _ in range(3):
            x = rng.standard_normal(ref_reg.num_slots)
            y = _dual_assignment(reg, ref_reg, x)
            for got, want in ((blocks[0].evaluate(y), J @ ref_blocks[0].evaluate(x) @ J),
                              (blocks[1].evaluate(y), ref_blocks[1].evaluate(x))):
                assert np.allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())


class TestLyapunovMatchesReference:
    """The Lyapunov variable written on stacks is the algebra's, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.3, 0.77, 1.0, 1.3, 1.9])
    @pytest.mark.parametrize("n", range(7))
    def test_bitwise_equal_to_reference(self, n, alpha):
        reg, blocks, P = synthesis._lyapunov("P7", n, alpha)
        ref_reg, ref_blocks, ref_P = _reference_lyapunov("P7", n, alpha)
        assert reg.num_slots == ref_reg.num_slots
        x = np.arange(reg.num_slots, dtype=float)
        assert (reg.materialize_all(x).keys() == ref_reg.materialize_all(x).keys())
        assert len(blocks) == len(ref_blocks) == (1 if n else 0)
        for got, ref in zip(blocks, ref_blocks):
            assert got.label == ref.label == "P7_membership"
            for field in ("F0", "slots", "stack"):
                assert _same_bits(getattr(got, field), getattr(ref, field))
        assert _same_bits(P.slots, ref_P.slots)
        assert _same_bits(P.stack, ref_P.stack)


class TestProjectedCriterion:
    """Admissibility with Q projected out: N^T sym(...) N < 0 in P alone."""

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_poses_the_projected_inequality(self, index, side):
        # The block's spectrum at a random P equals that of the inequality
        # built here on scipy's null-space basis: two orthonormal bases of
        # one subspace give orthogonally similar matrices.  The left side is
        # posed on the dual, whose P is the transpose of the left form's.
        sysm = _criterion_plants()[index]
        blocks, reg = _admissibility(sysm, side)
        r, A = sysm.r, sysm.A
        U, sv, Vt = np.linalg.svd(sysm.E)
        U1, V1, Sig = U[:, :r], Vt[:r].T, np.diag(sv[:r])
        if side == "right":
            N = sla.null_space((A @ Vt[r:].T).T)
        else:
            N = sla.null_space(U[:, r:].T @ A)
        assert reg.num_slots == r * r
        assert [b.label for b in blocks] == ["P_membership",
                                             f"admissibility_{side}"]
        assert blocks[0].dim == 2 * r and blocks[1].dim == N.shape[1] == r
        x = np.random.default_rng(index).standard_normal(reg.num_slots)
        half = sysm.alpha * np.pi / 2.0
        P = (np.sin(half) * reg.materialize("P_X", x)
             + np.cos(half) * reg.materialize("P_Y", x))
        psi = A @ V1 @ P @ Sig @ U1.T if side == "right" else V1 @ Sig @ P.T @ U1.T @ A
        want = np.linalg.eigvalsh(N.T @ (psi + psi.T) @ N)
        got = np.linalg.eigvalsh(blocks[1].evaluate(x))
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("name", ORACLE_PLANTS)
    def test_verdicts_agree(self, name):
        # The multiplier form (Q free), the projected form and QZ agree.
        sysm = _oracle_plants()[name]
        truth = analyze(sysm).admissible
        for side in ("right", "left"):
            ref = solve_feasibility(*_reference_blocks(sysm, f"admissibility_{side}"))
            assert ref.status == ("Feasible" if truth else "Infeasible")
            verdict, sol = admissible_via_lmi(sysm, side)
            assert verdict is truth
            assert sol.status == ref.status

    def test_empty_complement_needs_no_solve(self):
        # E = 0 with A nonsingular: N is empty and no block is left.
        sysm = _oracle_plants()["rank-zero"]
        for side in ("right", "left"):
            assert _admissibility(sysm, side)[0] == []
            verdict, sol = admissible_via_lmi(sysm, side)
            assert verdict is True and sol.feasible
            assert sol.newton_steps == 0 and sol.block_labels == ()


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


class TestNonsingularE:
    """r = n: the criteria are the regular fractional-order LMIs, with no Q."""

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
    def test_identity_e_designs_verify(self, alpha):
        sysm = IDENTITY_E.with_matrices(alpha=alpha)
        assert not analyze(sysm).admissible
        for design in (synth_observer(sysm), synth_output_feedback(sysm)):
            assert design.closed_loop_report.admissible
            for cert in design.certificates.values():
                assert cert.status == "Feasible"

    def test_verdicts_and_gains(self):
        # Both sides' verdicts against QZ, and an observer design that
        # verifies, on seeded random nonsingular-E plants.
        rng = np.random.default_rng(41)
        for trial in range(8):
            stable = trial % 2 == 0
            sysm = _nonsingular_plant(rng, float(rng.uniform(0.3, 1.0)), stable)
            assert sysm.r == sysm.n and analyze(sysm).admissible is stable
            for side in ("right", "left"):
                assert admissible_via_lmi(sysm, side)[0] is stable
            assert synth_observer(sysm).closed_loop_report.admissible


def _regular_impulsive_system(rng, alpha):
    """A seeded plant whose pencil is regular but not impulse-free.

    Its fast block A4 is singular, so det(sE - A) has degree below rank E;
    draws that QZ finds singular or impulse-free are skipped.
    """
    def transform(k):
        return (np.linalg.qr(rng.standard_normal((k, k)))[0]
                @ np.diag(rng.uniform(0.7, 1.4, k)))
    while True:
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        At = rng.standard_normal((n, n))
        At[r:, r:] = transform(n - r) @ np.diag([1.0] * (n - r - 1) + [0.0]) \
            @ transform(n - r)
        M, N = transform(n), transform(n)
        sysm = DescriptorSystem(E=M @ np.diag([1.0] * r + [0.0] * (n - r)) @ N,
                                A=M @ At @ N, B=np.ones((n, 1)),
                                C=np.ones((1, n)), alpha=alpha)
        report = analyze(sysm)
        if report.regular and not report.impulse_free:
            return sysm


SECTOR_ORDERS = (1.2, 1.5, 1.8)


class TestSectorCriterion:
    """Above order 1: the conic-sector criterion on the plant itself."""

    def test_verdicts_agree_with_qz(self):
        # Oracle: QZ, both sides, on seeded impulse-free plants.
        rng = np.random.default_rng(2024)
        stable_count = 0
        for trial in range(60):
            sysm, _ = random_impulse_free_system(rng, SECTOR_ORDERS[trial % 3])
            truth = analyze(sysm).admissible
            stable_count += truth
            for side in ("right", "left"):
                assert admissible_via_lmi(sysm, side)[0] is truth
        assert 15 <= stable_count <= 45

    def test_impulsive_plants_never_admissible(self):
        # A refusal is allowed; a True verdict is not.
        rng = np.random.default_rng(5)
        infeasible = 0
        for trial in range(30):
            sysm = _regular_impulsive_system(rng, SECTOR_ORDERS[trial % 3])
            for side in ("right", "left"):
                try:
                    verdict, sol = admissible_via_lmi(sysm, side)
                except LmiNumericalError:
                    continue
                assert verdict is False and sol.status == "Infeasible"
                infeasible += 1
        assert infeasible >= 50

    def test_gains_verify(self):
        # K and L designed at the plant's own order give loops that QZ
        # finds admissible at that order.
        rng = np.random.default_rng(7)
        for trial in range(30):
            sysm, _ = random_impulse_free_system(rng, SECTOR_ORDERS[trial % 3])
            K, cert_k = solve_state_feedback(sysm)
            L, cert_l = solve_output_injection(sysm)
            assert cert_k.feasible and cert_l.feasible
            assert analyze_pair(sysm.E, sysm.A + sysm.B @ K, sysm.alpha).admissible
            assert analyze_pair(sysm.E, sysm.A + L @ sysm.C, sysm.alpha).admissible

    @pytest.mark.parametrize("dual", [False, True])
    def test_block_is_the_conic_sector(self, dual):
        # At random assignments: -P, and the real form of the sector,
        # [[s sym(M), c (M - M^T)], [c (M^T - M), s sym(M)]] with
        # M = A S + B R built here, s = sin(alpha pi/2), c = -cos(alpha pi/2).
        rng = np.random.default_rng(3)
        bench = benchmark(1.5)
        sysm = bench.with_matrices(B=rng.standard_normal((3, 2)))
        A, B, ann = synthesis._right_side(sysm, dual)
        blocks, reg = synthesis._criterion(A, B, ann, 1.5, "1", "state_feedback")
        n, r, m = 3, sysm.r, B.shape[1]
        assert reg.num_slots == r * (r + 1) // 2 + n * (n - r) + m * n
        assert [b.label for b in blocks] == ["P1_membership", "state_feedback"]
        s, c = np.sin(0.75 * np.pi), -np.cos(0.75 * np.pi)
        for _ in range(3):
            x = rng.standard_normal(reg.num_slots)
            P, Q, R = (reg.materialize(name, x) for name in ("P1", "Q1", "R1"))
            M = A @ (ann.V1 @ P @ np.diag(ann.sigma) @ ann.U1.T
                     + ann.E_right @ Q) + B @ R
            want = np.block([[s * (M + M.T), c * (M - M.T)],
                             [c * (M.T - M), s * (M + M.T)]])
            assert np.array_equal(blocks[0].evaluate(x), -P)
            assert np.allclose(blocks[1].evaluate(x), want, rtol=0.0,
                               atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("alpha", [0.6, 1.5])
    def test_stage2_congruence_leaves_the_closed_loop(self, alpha, monkeypatch):
        # With H = G F, the stage-2 block under congruence by
        # [I; I (x) (F C - K0)] is the sector block of S (A + B F C),
        # S = E^T P + Q E_left, built here.
        sysm = benchmark(alpha)
        solve, posed = synthesis.solve_feasibility, []

        def capture(blocks, reg, **kwargs):
            posed.append((blocks, reg))
            return solve(blocks, reg, **kwargs)
        monkeypatch.setattr(synthesis, "solve_feasibility", capture)
        rng = np.random.default_rng(11)
        K0 = rng.standard_normal((1, 3))
        synthesis._output_stage2(sysm, K0)
        (blocks, reg), = posed
        x = rng.standard_normal(reg.num_slots)
        F = rng.standard_normal((1, 1))
        H = reg.entry("H")
        x[H.start:H.start + H.count] = (reg.materialize("G", x) @ F).ravel()
        half = alpha * np.pi / 2.0
        if alpha > 1.0:
            P = reg.materialize("P", x)
            theta = np.array([[np.sin(half), -np.cos(half)],
                              [np.cos(half), np.sin(half)]])
        else:
            P = np.sin(half) * reg.materialize("P_X", x) \
                + np.cos(half) * reg.materialize("P_Y", x)
            theta = np.ones((1, 1))
        U = np.linalg.svd(sysm.E)[0]
        S = sysm.E.T @ P + reg.materialize("Q", x) @ U[:, sysm.r:].T
        copies = np.eye(len(theta))
        T = np.vstack([np.eye(3 * len(theta)),
                       np.kron(copies, F @ sysm.C - K0)])
        M = np.kron(theta, S @ (sysm.A + sysm.B @ F @ sysm.C))
        want = M + M.T
        got = T.T @ blocks[-1].evaluate(x) @ T
        assert np.allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())


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

    def test_certificate_is_not_judged_again(self):
        # SISO plant 3 of scripts/retry_sweep.py (plant seed 13), shifted by
        # 0.5 as its first retry shifts it.  Its stage 1 is Feasible, yet the
        # certified (X, Y) fails fpdm.is_member's relative margin: synthesis
        # used to refuse it there.  P is now formed from the certificate.
        plant = DescriptorSystem(
            E=[[0.7139749751619118, 0.5527387201162403, 0.1243338943816426,
                -0.2627968895643175],
               [-0.3010195084885372, 0.1843758519143392, -0.8727468210079191,
                -0.3911857430528455],
               [-0.26627151667880644, -0.047433934897623896,
                -0.11311072833072086, -0.054345608698517386],
               [-0.6760095177098319, 0.21064515188294106, 0.8345133468438124,
                -0.2577472191011422]],
            A=[[0.7031244155398564, 0.3329934630177279, -0.1815963943503418,
                -2.2119505867298352],
               [-0.23566850573443754, 0.6617655699520208, -1.137288593821031,
                0.7437893394662521],
               [-0.777469807559374, -0.44086142649338717, -0.525161920064212,
                -1.455382648101939],
               [-0.9418673465857081, 0.4038836164837692, 1.335269032307475,
                -0.11692330593208598]],
            B=np.ones((4, 1)), C=np.ones((1, 4)), alpha=0.8)
        shifted = synthesis._shifted(plant, 0.5)
        K, cert = solve_state_feedback(shifted)
        assert cert.status == "Feasible"
        A, B, ann = synthesis._right_side(shifted)
        _, reg = synthesis._criterion(A, B, ann, 0.8, "1", "state_feedback")
        vals = reg.materialize_all(cert.assignment)
        assert not fpdm.is_member(fpdm.FpdmParam(vals["P1_X"], vals["P1_Y"], 0.8))
        # Oracle: QZ on the shifted plant's loop.
        assert analyze_pair(shifted.E, shifted.A + shifted.B @ K, 0.8).admissible


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

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_is_named(self, bench06, monkeypatch, shift):
        # Refused as the shift, before any solve; not as a non-finite A.
        def no_solve(*args, **kwargs):
            raise AssertionError("an LMI was solved")
        monkeypatch.setattr(synthesis, "solve_feasibility", no_solve)
        for synth, name in ((synth_output_feedback, "decay_shift"),
                            (synth_observer, "decay_shift_state"),
                            (synth_observer, "decay_shift_injection")):
            with pytest.raises(InputError, match=f"^{name} must be finite"):
                synth(bench06, **{name: shift})

    def test_integer_too_large_for_a_float(self, bench06, monkeypatch):
        # A 401-digit shift is refused by name before any solve, not left to
        # raise a TypeError from np.isfinite.
        def no_solve(*args, **kwargs):
            raise AssertionError("an LMI was solved")
        monkeypatch.setattr(synthesis, "solve_feasibility", no_solve)
        for synth, name in ((synth_output_feedback, "decay_shift"),
                            (synth_observer, "decay_shift_state"),
                            (synth_observer, "decay_shift_injection")):
            with pytest.raises(InputError,
                               match=f"^{name} contains a number too large"):
                synth(bench06, **{name: 10 ** 400})

    def test_deterministic(self, bench06):
        d1 = synth_output_feedback(bench06)
        d2 = synth_output_feedback(bench06)
        assert np.array_equal(d1.F, d2.F)

    def test_uncontrollable_certified_infeasible(self, bench06):
        dead = bench06.with_matrices(B=np.zeros((3, 1)))
        with pytest.raises(StateFeedbackInfeasible):
            synth_output_feedback(dead)

    @pytest.mark.parametrize("status", ["Infeasible", "NumericalFailure"])
    def test_retry_after_stage2_failure(self, bench06, monkeypatch, status):
        # The first K0's stage 2 gives no certificate, certified infeasible
        # or unclassified alike: stage 1 is re-solved on the next shift of
        # the schedule, and the design keeps the failed K0 and its status.
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

    def test_stage2_loop_that_the_lift_rejected(self):
        # Plant 9 of scripts/retry_sweep.py's order-(1, 2) family at plant
        # seed 13.  Stage 2 on K0 = F0 C, F0 from the sweep's grid, certifies
        # F = -0.35936.  QZ returns the loop's infinite eigenvalue as about
        # 4e14; the lift by 2 counted its square root as finite and unstable,
        # and rejected a loop that the pencil at alpha calls admissible.
        sysm = DescriptorSystem(
            E=[[0.945386755222827, -0.37292135534981874, 0.1780880124796628],
               [0.32442987202401796, 0.062389041998337114,
                -0.021196183558878173],
               [-0.2159452388402787, -1.250198698524484, 0.5367195642397983]],
            A=[[-1.1809329380907998, -1.3130615970762731, 0.7599987270570076],
               [0.538474413309769, -0.6949347948450735, 0.7251092010667455],
               [-2.157771581311173, 1.5437373343054979, -0.7300687181956679]],
            B=np.ones((3, 1)), C=np.ones((1, 3)), alpha=1.4)
        F, sol = synthesis._output_stage2(sysm, -0.36116456752319553 * sysm.C)
        assert sol.status == "Feasible"
        assert F.item() == pytest.approx(-0.35936, abs=1e-5)
        report = verify(sysm, ("output", F))
        assert report.admissible and report.min_angle_margin > 0.1

    def test_shift_schedule_designs_a_plant_the_first_k0_misses(self):
        # SISO plant 49 of scripts/retry_sweep.py (plant seed 11): stage 2
        # has no certificate for the K0 of the plant itself, nor for that of
        # the plant shifted by 0.5; the K0 of the -0.5 shift gives one.
        rng = np.random.default_rng(11)
        unstable = []
        while len(unstable) < 50:
            plant, stable = random_impulse_free_system(
                rng, rng.choice((0.4, 0.6, 0.8)))
            if not stable:
                unstable.append(plant)
        plant = unstable[49]
        design = synth_output_feedback(plant)
        assert [(a["attempt"], a["stage"]) for a in design.attempts] \
            == [(0, 2), (1, 2)]
        assert design.certificates["stage2"].status == "Feasible"
        # Oracle: QZ on the plant's own pencil.
        assert analyze_pair(plant.E, plant.A + plant.B @ design.F @ plant.C,
                            plant.alpha).admissible

    @pytest.mark.parametrize("error", [
        StateFeedbackInfeasible("certified infeasible"),
        LmiNumericalError("could not be classified"),
        GainRecoverySingular("numerically singular")])
    def test_shifted_stage1_failure_disqualifies_its_k0(
            self, bench06, monkeypatch, failing_stage2, error):
        # A stage 1 on a shifted plant that fails, in any of the ways a
        # gain solve can, only ends its attempt; the schedule runs out into
        # OutputStageExhausted, not into the stage-1 error.
        solve, calls = synthesis.solve_state_feedback, []

        def failing_after_first(plant):
            calls.append(plant)
            if len(calls) > 1:
                raise error
            return solve(plant)
        monkeypatch.setattr(synthesis, "solve_state_feedback",
                            failing_after_first)
        with pytest.raises(OutputStageExhausted) as info:
            synth_output_feedback(bench06)
        attempts = info.value.attempts
        assert [(a["attempt"], a["stage"]) for a in attempts] == [(0, 2), (1, 1)]
        assert attempts[1]["status"] == str(error)
        assert np.array_equal(calls[1].A, bench06.A + 0.5 * bench06.E)

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

    def test_tuple_length_fits_its_kind(self, bench06, bench12):
        # A missing gain is refused by name, not left to raise IndexError;
        # an extra one is refused, not ignored.
        K, L, F = GAINS_06["K"], GAINS_06["L"], GAINS_06["F"]
        cfg = SimConfig(h=1e-2, T=0.1, x0=[1.0, 0.0, 1.0])
        for ctrl, form in ((("observer", K), "('observer', K, L)"),
                           (("state",), "('state', K)"),
                           (("output", F, L), "('output', F)"),
                           (("none", 1), "('none')")):
            message = (rf"^controller must be {re.escape(form)}, got a tuple "
                       f"of length {len(ctrl)}$")
            for plant in (bench06, bench12):
                for call in (closed_loop, lifting.verify_loop,
                             lambda p, c: simulate(p, c, cfg)):
                    with pytest.raises(InputError, match=message):
                        call(plant, ctrl)


class TestAnyOrder:
    """One synthesis entry per design, for plants of any order in (0, 2)."""

    @pytest.mark.parametrize("module", ["sfos.synthesis", "sfos.lifting",
                                        "sfos.simulator", "sfos.cli"])
    def test_module_imports_first(self, module):
        # Each module loads on its own, whichever a program imports first;
        # lifting imports synthesis, and synthesis nothing of lifting's.
        import sfos
        root = os.path.dirname(os.path.dirname(os.path.abspath(sfos.__file__)))
        env = dict(os.environ, PYTHONPATH=root)
        proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_lifted_designs_equal_the_lifted_wrappers(self, bench12):
        # The wrappers return the plant design, its K and L zero-padded.
        obs = synth_observer(bench12)
        ref = lifting.synth_observer_lifted(bench12, k=2)
        K, L = lifting.embed(lift(bench12, 2), obs.K, obs.L)
        assert np.array_equal(K, ref.K) and np.array_equal(L, ref.L)
        assert obs.K.shape == (1, 3) and obs.closed_loop_report.admissible
        for name, cert in obs.certificates.items():
            assert np.array_equal(ref.certificates[name].assignment,
                                  cert.assignment)
        out = synth_output_feedback(bench12)
        ref = lifting.synth_output_feedback_lifted(bench12, k=2)
        assert np.array_equal(out.K0, ref.K0) and np.array_equal(out.F, ref.F)
        assert out.F.shape == (1, 1) and out.closed_loop_report.admissible

    def test_no_lift_by_one_above_order_one(self, bench12):
        # Neither lift nor the lifted wrappers take k = 1, and synthesis
        # takes the plant itself, not a lift of it.
        for call in (lambda: lift(bench12, 1),
                     lambda: lifting.synth_observer_lifted(bench12, 1),
                     lambda: lifting.synth_output_feedback_lifted(bench12, 1)):
            with pytest.raises(InputError, match="^k must be at least 2"):
                call()
        for synth in (synth_observer, synth_output_feedback):
            with pytest.raises(InputError, match="not a LiftedSystem"):
                synth(lift(bench12, 2))
