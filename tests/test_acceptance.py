"""End-to-end acceptance criteria.

Each test covers one numbered criterion and prints a single summary line
(visible with ``pytest -s`` / on failure) so a reviewer can audit the run.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import erfc

from conftest import (BENCH_X0, GAINS_06, GAINS_12, benchmark,
                      random_impulse_free_system)
from sfos import cli, fpdm, lifting, synthesis
from sfos.descriptor import analyze, analyze_pair
from sfos.lmi import VariableRegistry, block_of, solve_feasibility
from sfos.simulator import SimConfig, simulate


def test_criterion_1_open_loop_verdict():
    """Benchmark plant: regular, impulse-free, unstable at both orders."""
    for alpha in (0.6, 1.2):
        start = time.perf_counter()
        rep = analyze(benchmark(alpha))
        elapsed = time.perf_counter() - start
        assert rep.regular is True
        assert rep.impulse_free is True
        assert rep.stable is False
        assert elapsed < 1.0
    print("criterion 1: PASS - open-loop verdicts match at orders 0.6 and 1.2")


def test_criterion_2_published_gain_verification():
    """The published benchmark gains all verify as admissible closed loops."""
    plant06 = benchmark(0.6)
    rep_obs = lifting.verify_loop(plant06,
                                  ("observer", GAINS_06["K"], GAINS_06["L"]))
    rep_out = lifting.verify_loop(plant06, ("output", GAINS_06["F"]))
    assert rep_obs.admissible and rep_obs.min_angle_margin > 1e-6
    assert rep_out.admissible and rep_out.min_angle_margin > 1e-6

    sys12 = benchmark(1.2)
    ls = lifting.lift(sys12, 2)
    Ebar, Abar, _ = synthesis.closed_loop(
        ls.lifted, ("observer", GAINS_12["K"], GAINS_12["L"]))
    rep_obs12 = lifting.analyze_lifted_pair(Ebar, Abar, 2 * sys12.r, 2, 0.6)
    Acl = ls.lifted.A + ls.lifted.B @ GAINS_12["F"] @ ls.lifted.C
    rep_out12 = lifting.analyze_lifted_pair(ls.lifted.E, Acl, sys12.r, 2, 0.6)
    assert rep_obs12.admissible and rep_obs12.strict.min_angle_margin > 1e-6
    assert rep_out12.admissible and rep_out12.strict.min_angle_margin > 1e-6
    print("criterion 2: PASS - published gains verify with margin > 1e-6 rad")


def test_criterion_3_synthesis_soundness():
    """Fresh designs at both orders verify independently, and every
    certificate is Feasible with each block re-evaluated below -1e-7."""
    def check_certs(design):
        for cert in design.certificates.values():
            assert cert.status == "Feasible"
            assert max(cert.margins) <= -1e-7

    timings = {}
    sys06 = benchmark(0.6)
    for name, job in (("observer@0.6",
                       lambda: synthesis.synth_observer(sys06)),
                      ("output@0.6",
                       lambda: synthesis.synth_output_feedback(sys06)),
                      ("observer@1.2",
                       lambda: synthesis.synth_observer(benchmark(1.2))),
                      ("output@1.2",
                       lambda: synthesis.synth_output_feedback(
                           benchmark(1.2)))):
        start = time.perf_counter()
        design = job()
        timings[name] = time.perf_counter() - start
        assert design.closed_loop_report.admissible
        check_certs(design)
        assert timings[name] < 30.0
    print("criterion 3: PASS - synthesis verified; timings "
          + ", ".join(f"{k}={v:.2f}s" for k, v in timings.items()))


def test_criterion_4_lmi_oracle_agreement():
    """LMI admissibility matches pencil analysis on 50/50 random systems."""
    rng = np.random.default_rng(12345)
    agree = 0
    for trial in range(50):
        alpha = float(rng.uniform(0.3, 1.0))
        sysm, _ = random_impulse_free_system(rng, alpha)
        side = "right" if trial % 2 == 0 else "left"
        verdict, _ = synthesis.admissible_via_lmi(sysm, side)
        agree += verdict == analyze(sysm).admissible
    assert agree == 50
    print("criterion 4: PASS - LMI vs pencil analysis agreement 50/50")


def test_criterion_5_congruence_closure():
    """100 random congruence transforms of members stay members."""
    rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        X = rng.standard_normal((n, n))
        X = X @ X.T + n * np.eye(n)
        Y = 0.3 * rng.standard_normal((n, n))
        Y = Y - Y.T
        p = fpdm.FpdmParam(X=X, Y=Y, alpha=float(rng.uniform(0.1, 1.0)))
        assert fpdm.is_member(p)
        m = int(rng.integers(1, n + 1))
        q = fpdm.congruence(p, rng.standard_normal((n, m)))
        assert fpdm.smallest_block_eigenvalue(q) > 0
    print("criterion 5: PASS - 100/100 congruence trials remain members")


def test_criterion_6_lifting_fidelity():
    """Transfer-function equivalence and k-th-root spectral correspondence."""
    sys12 = benchmark(1.2)
    ls = lifting.lift(sys12, 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
        g_base = lifting.transfer_function(sys12, s)
        g_lift = lifting.transfer_function(ls.lifted, s)
        assert abs(g_base - g_lift) <= 1e-8 * max(abs(g_base), 1e-12)

    for _ in range(8):
        sysm, _ = random_impulse_free_system(rng, 0.8)
        sysm = sysm.with_matrices(alpha=1.4)
        lsr = lifting.lift(sysm, 2)
        base_eigs = sla.eigvals(sysm.A, sysm.E)
        base_eigs = base_eigs[np.isfinite(base_eigs)]
        lifted_eigs = sla.eigvals(lsr.lifted.A, lsr.lifted.E)
        lifted_eigs = lifted_eigs[np.isfinite(lifted_eigs)]
        assert len(lifted_eigs) >= 2 * sysm.r
        for mu in lifted_eigs:
            if abs(mu) < 1e-9:
                continue
            assert np.min(np.abs(base_eigs - mu ** 2)) < 1e-6 * max(
                1.0, abs(mu) ** 2)
    print("criterion 6: PASS - transfer functions and spectra correspond")


def test_criterion_7_demo_decay(tmp_path):
    """Both demos: decay ratios, constraint residual, tail exponent, and the
    higher order converging faster at matched horizon."""
    summaries = {}
    for example in ("example1", "example2"):
        out = tmp_path / example
        assert cli.main(["demo", example, "--out", str(out)]) == cli.EXIT_OK
        summaries[example] = json.loads((out / "summary.json").read_text())

    s1 = summaries["example1"]
    ratios1 = []
    for case in ("observer", "output_feedback"):
        run = s1[case]
        ratios1.append(run["final_norm_ratio"])
        assert run["final_norm_ratio"] < 0.05
        assert run["max_algebraic_residual"] < 1e-6 * max(
            run["initial_norm"], 1.0)
        assert -0.9 < run["tail_decay_exponent"] < -0.3
    s2 = summaries["example2"]
    ratios2 = [s2[case]["final_norm_ratio"]
               for case in ("observer", "output_feedback")]
    for case in ("observer", "output_feedback"):
        assert s2[case]["max_algebraic_residual"] < 1e-6 * max(
            s2[case]["initial_norm"], 1.0)
    assert max(ratios2) < min(ratios1)
    print(f"criterion 7: PASS - ratios example1={ratios1}, "
          f"example2={ratios2}")


def test_criterion_8_certificate_soundness():
    """Every Feasible solver verdict re-verifies by eigenvalue computation."""
    checked = 0

    def recheck(blocks, sol):
        nonlocal checked
        if not sol.feasible:
            return
        for blk in blocks:
            lam = float(np.linalg.eigvalsh(blk.evaluate(sol.assignment))[-1])
            assert lam <= -sol.feas_margin
        checked += 1

    # random LP-shaped problems
    rng = np.random.default_rng(31)
    for _ in range(10):
        reg = VariableRegistry()
        reg.add("x", "rectangular", 3, 1)
        xe = reg.expr("x")
        A = rng.standard_normal((4, 3))
        b = rng.standard_normal(4) - 2.0
        blocks = [block_of(A[j:j + 1, :] @ xe + np.array([[b[j]]]))
                  for j in range(4)]
        recheck(blocks, solve_feasibility(blocks, reg, box_bound=50.0))

    # random PSD-shaped problems: sym(G0 + sum x_i G_i) < 0 with a known
    # feasible point mixed in
    for _ in range(5):
        reg = VariableRegistry()
        reg.add("S", "symmetric", 3)
        S = reg.expr("S")
        G = rng.standard_normal((3, 3))
        from sfos.lmi import sym_of
        blocks = [sym_of(G @ S + 0.5 * S), block_of(-S + 0.1 * np.eye(3))]
        recheck(blocks, solve_feasibility(blocks, reg, box_bound=100.0))

    # synthesis certificates on known-admissible closed loops: the margins
    # stored in a Feasible certificate are themselves independent
    # eigenvalue re-evaluations of each block at the assignment
    sys06 = benchmark(0.6)
    for design in (synthesis.synth_observer(sys06),
                   synthesis.synth_output_feedback(sys06)):
        for cert in design.certificates.values():
            assert cert.feasible
            assert max(cert.margins) <= -cert.feas_margin
            checked += 1
    assert checked >= 10
    print(f"criterion 8: PASS - {checked} Feasible results re-verified, "
          "zero counterexamples")


def test_criterion_9_fractional_integrator_accuracy():
    """Scalar order-1/2 relaxation against the closed-form solution."""
    from sfos.descriptor import DescriptorSystem
    plant = DescriptorSystem(E=np.eye(1), A=-np.eye(1), B=np.zeros((1, 1)),
                             C=np.eye(1), alpha=0.5)
    cfg = SimConfig(h=1e-3, T=5.0, x0=np.array([1.0]))
    traj = simulate(plant, None, cfg)
    errs = {}
    for t_probe in (1.0, 5.0):
        idx = int(round(t_probe / cfg.h))
        exact = float(np.exp(t_probe) * erfc(np.sqrt(t_probe)))
        rel = abs(traj.x[idx, 0] - exact) / abs(exact)
        errs[t_probe] = rel
        assert rel < 0.02
    print("criterion 9: PASS - relative errors "
          + ", ".join(f"t={t}: {e:.2e}" for t, e in errs.items()))
