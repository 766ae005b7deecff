"""LMI assembly, controller synthesis, and closed-loop verification.

All criteria here apply to orders in (0, 1]; callers handle higher orders by
rewriting the plant through the lifting module first.  Three families:

* admissibility tests -- one matrix inequality over a fractional-order
  positive-definite variable P and a free multiplier Q attached to a null
  space basis of E (a right-sided and a left-sided variant);
* observer-based synthesis -- two independent inequalities (state feedback
  and output injection), gains recovered by inverting the certificate;
* static output feedback -- a two-stage scheme: a state-feedback-like stage
  produces an intermediate gain K0, then a slack-variable inequality in
  (P, Q, G, H) yields F = G^{-1} H.  Stage 2 is not guaranteed solvable for
  every stage-1 K0, so infeasibility triggers re-sampling of K0 through a
  small random linear tilt on the stage-1 objective.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import descriptor, fpdm
from .descriptor import DescriptorSystem, AdmissibilityReport, annihilators
from .errors import (GainRecoverySingular, InputError, LmiNumericalError,
                     OutputInjectionInfeasible, OutputStageExhausted,
                     StateFeedbackInfeasible, VerificationFailed)
from .lmi import (AffineExpr, LmiSolution, VariableRegistry, block_of,
                  solve_feasibility, sym_of, DEFAULT_BOX_BOUND,
                  DEFAULT_FEAS_MARGIN)

__all__ = [
    "ObserverDesign",
    "OutputFeedbackDesign",
    "admissible_via_lmi",
    "closed_loop",
    "synth_observer",
    "synth_output_feedback",
    "verify_state_estimate_loop",
    "verify_static_output_loop",
]

#: Condition-number ceiling for the matrices inverted during gain recovery.
RECOVERY_COND_LIMIT = 1e12

#: Magnitude of the random stage-1 objective tilt used by output-feedback retries.
RETRY_TILT = 1e-3

DEFAULT_RETRIES = 8


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------

def _fpdm_expr(reg: VariableRegistry, blocks: list, prefix: str, n: int, alpha: float):
    """Register (X sym, Y skew) for one fractional-PD variable.

    Returns the affine expression P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y
    and appends the membership side-block -[[X, Y], [-Y, X]] < 0.
    """
    X = reg.expr(reg.add(f"{prefix}_X", "symmetric", n))
    Y = reg.expr(reg.add(f"{prefix}_Y", "skew", n))
    blocks.append(block_of(
        AffineExpr.bmat([[-X, -Y], [Y, -X]]), label=f"{prefix}_membership"))
    half = alpha * np.pi / 2.0
    return np.sin(half) * X + np.cos(half) * Y


def _require_fractional_range(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise InputError(
            f"criteria require order in (0, 1]; rewrite order {alpha} via lifting first")


def _solve(blocks, reg, feas_margin, box_bound, objective=None,
           max_newton=None, debug_trace=None) -> LmiSolution:
    kwargs = {}
    if max_newton is not None:
        kwargs["max_newton"] = max_newton
    return solve_feasibility(blocks, reg, feas_margin=feas_margin,
                             box_bound=box_bound, objective=objective,
                             debug_trace=debug_trace, **kwargs)


#: Largest positive main-block margin tolerated when a marginal (weakly
#: feasible) certificate is accepted for independent re-verification.
MARGINAL_SLACK = 1e-5


def _usable_assignment(sol: LmiSolution, accept_marginal: bool):
    """Pick the assignment to recover gains from; returns (assignment, sol).

    A strict certificate always wins.  With ``accept_marginal`` (used for
    lifted-coordinate synthesis, whose inequalities are only ever weakly
    feasible because the lift structurally excludes strict impulse-freeness)
    the final interior iterate is accepted instead, provided no block is
    violated by more than :data:`MARGINAL_SLACK`; a slightly indefinite
    fractional-PD membership block is repaired afterwards by
    :func:`_materialize_fpdm`, and the recovered design must then pass its
    own independent closed-loop verification.  Marginal acceptances are
    relabeled status "Marginal".
    """
    if sol.feasible:
        return sol.assignment, sol
    if accept_marginal and sol.witness is not None:
        if max(sol.margins) <= MARGINAL_SLACK:
            return sol.witness, dataclasses.replace(sol, status="Marginal")
    return None, sol


def _materialize_fpdm(vals: dict, prefix: str, alpha: float,
                      repair: bool) -> np.ndarray:
    """Build P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y from solved variables.

    With ``repair`` (marginal acceptances only), a membership block matrix
    that ended up slightly indefinite is fixed by shifting X along the
    identity -- the smallest perturbation that restores strict membership.
    The shift is bounded by the marginal slack, so it is a tiny relative
    change; the design it produces is still re-verified independently.
    P itself comes from :func:`sfos.fpdm.materialize`, which raises
    :class:`NotMemberError` for a parameter outside the set.
    """
    X, Y = vals[f"{prefix}_X"], vals[f"{prefix}_Y"]
    if repair:
        block = np.block([[X, Y], [-Y, X]])
        eigs = np.linalg.eigvalsh(block)
        lo, hi = eigs[0], eigs[-1]
        floor = 1e-6 * max(hi, 1.0)
        if lo < floor:
            X = X + (floor - lo) * np.eye(X.shape[0])
    return fpdm.materialize(fpdm.FpdmParam(X, Y, alpha))


def _recover_inverse(M: np.ndarray, what: str, certificate: LmiSolution) -> np.ndarray:
    sv = np.linalg.svd(M, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > RECOVERY_COND_LIMIT:
        raise GainRecoverySingular(
            f"{what} is numerically singular during gain recovery "
            f"(condition number {cond:.3e})",
            condition_number=cond, certificate=certificate)
    return np.linalg.inv(M)


# ---------------------------------------------------------------------------
# Admissibility via LMI
# ---------------------------------------------------------------------------

def admissible_via_lmi(sys: DescriptorSystem, side: str = "right",
                       feas_margin: float = DEFAULT_FEAS_MARGIN,
                       box_bound: float = DEFAULT_BOX_BOUND,
                       max_newton=None, debug_trace=None):
    """Zero-input admissibility as a feasibility question.

    ``side="right"`` tests sym(A P E^T + A E_right Q) < 0 with Q free;
    ``side="left"`` tests sym(E^T P A + Q E_left A).  Returns
    (verdict, LmiSolution); a solver NumericalFailure raises
    :class:`LmiNumericalError` rather than counting as infeasible.
    """
    _require_fractional_range(sys.alpha)
    ann = annihilators(sys.E, sys.r, sys.rank_tol)
    n = sys.n
    reg = VariableRegistry()
    blocks: list = []
    P = _fpdm_expr(reg, blocks, "P", n, sys.alpha)
    if side == "right":
        Q = reg.expr(reg.add("Q", "rectangular", n - sys.r, n))
        expr = sys.A @ P @ sys.E.T + sys.A @ ann.E_right @ Q
    elif side == "left":
        Q = reg.expr(reg.add("Q", "rectangular", n, n - sys.r))
        expr = sys.E.T @ P @ sys.A + Q @ (ann.E_left @ sys.A)
    else:
        raise InputError(f"side must be 'right' or 'left', got {side!r}")
    blocks.append(sym_of(expr, label=f"admissibility_{side}"))
    sol = _solve(blocks, reg, feas_margin, box_bound,
                 max_newton=max_newton, debug_trace=debug_trace)
    if sol.status == "NumericalFailure":
        raise LmiNumericalError(
            f"admissibility LMI ({side}) could not be classified "
            f"(t={sol.t:.3e}, lower bound {sol.lower_bound:.3e})")
    return sol.feasible, sol


# ---------------------------------------------------------------------------
# Observer-based synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObserverDesign:
    """State-feedback gain K, injection gain L, and their evidence."""

    K: np.ndarray
    L: np.ndarray
    certificates: dict
    closed_loop_report: object

    def to_dict(self) -> dict:
        return {
            "K": self.K.tolist(),
            "L": self.L.tolist(),
            "certificates": {k: v.to_dict() for k, v in self.certificates.items()},
            "closed_loop_report": _report_to_dict(self.closed_loop_report),
        }


def _report_to_dict(report):
    return report.to_dict() if hasattr(report, "to_dict") else report


def _gain(name: str, gain, shape: tuple) -> np.ndarray:
    gain = np.asarray(gain, dtype=float)
    if gain.shape != shape:
        raise InputError(f"gain {name} has shape {gain.shape}, expected {shape}")
    return gain


def closed_loop(sys: DescriptorSystem, controller):
    """Closed-loop pair (E, A) and input readout U of a controller on ``sys``.

    ``controller`` is ("none",), ("state", K), ("output", F) or
    ("observer", K, L), with K exactly m x n, F m x p and L n x p.  The loop
    state w is x, except for the observer, where it is (x, e) with
    e = x - xhat: E = diag(E, E), A = [[A+BK, -BK], [0, A+LC]], so the error
    dynamics decouple and the loop is admissible iff both diagonal blocks
    are.  The plant input is u = U w.
    """
    kind = controller[0]
    n, m = sys.n, sys.m
    if kind == "none":
        return sys.E, sys.A, np.zeros((m, n))
    if kind == "state":
        K = _gain("K", controller[1], (m, n))
        return sys.E, sys.A + sys.B @ K, K
    if kind == "output":
        F = _gain("F", controller[1], (m, sys.p))
        return sys.E, sys.A + sys.B @ F @ sys.C, F @ sys.C
    if kind == "observer":
        K = _gain("K", controller[1], (m, n))
        L = _gain("L", controller[2], (n, sys.p))
        Z = np.zeros((n, n))
        BK = sys.B @ K
        return (np.block([[sys.E, Z], [Z, sys.E]]),
                np.block([[sys.A + BK, -BK], [Z, sys.A + L @ sys.C]]),
                np.hstack([K, -K]))
    raise InputError(f"unknown controller kind {kind!r}")


def augmented_pair(sys: DescriptorSystem, K, L):
    """Closed-loop pair for estimated-state feedback in (state, error) coordinates."""
    return closed_loop(sys, ("observer", K, L))[:2]


def solve_state_feedback(sys: DescriptorSystem,
                         feas_margin: float = DEFAULT_FEAS_MARGIN,
                         box_bound: float = DEFAULT_BOX_BOUND,
                         A_override=None, objective_seed=None,
                         accept_marginal: bool = False,
                         max_newton=None, debug_trace=None):
    """Feasibility of sym(A P E^T + A E_right Q + B R) < 0; returns (K, certificate).

    ``A_override`` substitutes a different drift matrix (used for decay
    shaping by synthesizing against A + gamma*E).  ``objective_seed``
    activates the random tilt used by output-feedback retries.
    """
    _require_fractional_range(sys.alpha)
    A = sys.A if A_override is None else np.asarray(A_override, dtype=float)
    ann = annihilators(sys.E, sys.r, sys.rank_tol)
    reg = VariableRegistry()
    blocks: list = []
    P = _fpdm_expr(reg, blocks, "P1", sys.n, sys.alpha)
    Q = reg.expr(reg.add("Q1", "rectangular", sys.n - sys.r, sys.n))
    Rname = reg.add("R1", "rectangular", sys.m, sys.n)
    R = reg.expr(Rname)
    blocks.append(sym_of(A @ P @ sys.E.T + A @ ann.E_right @ Q + sys.B @ R,
                         label="state_feedback"))

    objective = None
    if objective_seed is not None:
        rng = np.random.default_rng(objective_seed)
        W = rng.standard_normal((sys.m, sys.n))
        entry = reg.entry(Rname)
        objective = {entry.start + i: RETRY_TILT * w
                     for i, w in enumerate(W.ravel())}

    sol = _solve(blocks, reg, feas_margin, box_bound, objective=objective,
                 max_newton=max_newton, debug_trace=debug_trace)
    assignment, sol = _usable_assignment(sol, accept_marginal)
    if assignment is None:
        if sol.status == "Infeasible":
            raise StateFeedbackInfeasible(
                "state-feedback LMI certified infeasible: no stabilizing gain exists")
        raise LmiNumericalError("state-feedback LMI could not be classified")
    vals = reg.materialize_all(assignment)
    Pm = _materialize_fpdm(vals, "P1", sys.alpha, repair=sol.status == "Marginal")
    S = Pm @ sys.E.T + ann.E_right @ vals["Q1"]
    K = vals["R1"] @ _recover_inverse(S, "P E^T + E_right Q", sol)
    return K, sol


def solve_output_injection(sys: DescriptorSystem,
                           feas_margin: float = DEFAULT_FEAS_MARGIN,
                           box_bound: float = DEFAULT_BOX_BOUND,
                           A_override=None, accept_marginal: bool = False,
                           max_newton=None, debug_trace=None):
    """Feasibility of sym(E^T P A + Q E_left A + R C) < 0; returns (L, certificate)."""
    _require_fractional_range(sys.alpha)
    A = sys.A if A_override is None else np.asarray(A_override, dtype=float)
    ann = annihilators(sys.E, sys.r, sys.rank_tol)
    reg = VariableRegistry()
    blocks: list = []
    P = _fpdm_expr(reg, blocks, "P2", sys.n, sys.alpha)
    Q = reg.expr(reg.add("Q2", "rectangular", sys.n, sys.n - sys.r))
    R = reg.expr(reg.add("R2", "rectangular", sys.n, sys.p))
    blocks.append(sym_of(sys.E.T @ P @ A + Q @ (ann.E_left @ A) + R @ sys.C,
                         label="output_injection"))
    sol = _solve(blocks, reg, feas_margin, box_bound,
                 max_newton=max_newton, debug_trace=debug_trace)
    assignment, sol = _usable_assignment(sol, accept_marginal)
    if assignment is None:
        if sol.status == "Infeasible":
            raise OutputInjectionInfeasible(
                "output-injection LMI certified infeasible: "
                "no stabilizing injection exists")
        raise LmiNumericalError("output-injection LMI could not be classified")
    vals = reg.materialize_all(assignment)
    Pm = _materialize_fpdm(vals, "P2", sys.alpha, repair=sol.status == "Marginal")
    S = sys.E.T @ Pm + vals["Q2"] @ ann.E_left
    L = _recover_inverse(S, "E^T P + Q E_left", sol) @ vals["R2"]
    return L, sol


def verify_state_estimate_loop(sys: DescriptorSystem, K, L) -> AdmissibilityReport:
    """Pencil analysis of the augmented (state, error) closed loop."""
    E, A, _ = closed_loop(sys, ("observer", K, L))
    return descriptor.analyze_pair(E, A, sys.alpha, sys.rank_tol)


def synth_observer(sys: DescriptorSystem,
                   feas_margin: float = DEFAULT_FEAS_MARGIN,
                   box_bound: float = DEFAULT_BOX_BOUND,
                   decay_shift_state: float = 0.0,
                   decay_shift_injection: float = 0.0,
                   accept_marginal: bool = False,
                   max_newton=None, debug_trace=None,
                   verifier=None) -> ObserverDesign:
    """Estimated-state-feedback design: solve the two criteria, verify the loop.

    The two problems are fully decoupled (the first never sees C, the second
    never sees B).  ``decay_shift_*`` > 0 synthesize against A + gamma*E,
    pushing every closed-loop eigenvalue left by gamma for faster transients;
    admissibility of the result is still verified against the true plant.
    A verification miss triggers one automatic retry at 10x the margin.
    ``verifier`` overrides the closed-loop check (callable (sys, K, L) ->
    report with an ``admissible`` attribute); lifted designs use this to
    apply the structural degree threshold.
    """
    if verifier is None:
        verifier = verify_state_estimate_loop
    for attempt_margin in (feas_margin, 10.0 * feas_margin):
        A_k = sys.A + decay_shift_state * sys.E if decay_shift_state else None
        A_l = sys.A + decay_shift_injection * sys.E if decay_shift_injection else None
        K, cert_k = solve_state_feedback(sys, attempt_margin, box_bound,
                                         A_override=A_k,
                                         accept_marginal=accept_marginal,
                                         max_newton=max_newton,
                                         debug_trace=debug_trace)
        L, cert_l = solve_output_injection(sys, attempt_margin, box_bound,
                                           A_override=A_l,
                                           accept_marginal=accept_marginal,
                                           max_newton=max_newton)
        report = verifier(sys, K, L)
        if report.admissible:
            return ObserverDesign(K=K, L=L,
                                  certificates={"state_feedback": cert_k,
                                                "output_injection": cert_l},
                                  closed_loop_report=report)
    raise VerificationFailed(
        "LMI certificates found but the augmented closed loop failed the "
        "independent pencil check, even after enlarging the margin 10x")


# ---------------------------------------------------------------------------
# Static output feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputFeedbackDesign:
    """Intermediate gain K0, output gain F, and their evidence."""

    K0: np.ndarray
    F: np.ndarray
    certificates: dict
    closed_loop_report: object

    def to_dict(self) -> dict:
        return {
            "K0": self.K0.tolist(),
            "F": self.F.tolist(),
            "certificates": {k: v.to_dict() for k, v in self.certificates.items()},
            "closed_loop_report": _report_to_dict(self.closed_loop_report),
        }


def verify_static_output_loop(sys: DescriptorSystem, F) -> AdmissibilityReport:
    """Pencil analysis of {E, A + B F C}."""
    E, A, _ = closed_loop(sys, ("output", F))
    return descriptor.analyze_pair(E, A, sys.alpha, sys.rank_tol)


def _output_stage2(sys: DescriptorSystem, K0, feas_margin, box_bound,
                   A_override=None, accept_marginal=False,
                   max_newton=None, debug_trace=None):
    """Slack-variable stage: find (P, Q, G, H) certifying F = G^{-1}H."""
    A = sys.A if A_override is None else np.asarray(A_override, dtype=float)
    ann = annihilators(sys.E, sys.r, sys.rank_tol)
    n, m, p = sys.n, sys.m, sys.p
    Ac = A + sys.B @ K0
    reg = VariableRegistry()
    blocks: list = []
    P = _fpdm_expr(reg, blocks, "P", n, sys.alpha)
    Q = reg.expr(reg.add("Q", "rectangular", n, n - sys.r))
    G = reg.expr(reg.add("G", "rectangular", m, m))
    H = reg.expr(reg.add("H", "rectangular", m, p))
    phi = sys.E.T @ P @ Ac + Q @ (ann.E_left @ Ac)
    off = (sys.E.T @ P + Q @ ann.E_left) @ sys.B + sys.C.T @ H.T - K0.T @ G.T
    expr = AffineExpr.bmat([[phi + phi.T, off],
                            [off.T, -G - G.T]])
    blocks.append(block_of(expr, label="output_feedback"))
    sol = _solve(blocks, reg, feas_margin, box_bound,
                 max_newton=max_newton, debug_trace=debug_trace)
    assignment, sol = _usable_assignment(sol, accept_marginal)
    if assignment is None:
        if sol.status == "NumericalFailure" and not accept_marginal:
            raise LmiNumericalError(
                "output-feedback stage-2 LMI could not be classified")
        return None, sol
    vals = reg.materialize_all(assignment)
    F = _recover_inverse(vals["G"], "slack variable G", sol) @ vals["H"]
    return F, sol


def synth_output_feedback(sys: DescriptorSystem,
                          retries: int = DEFAULT_RETRIES,
                          seed: int = 0,
                          feas_margin: float = DEFAULT_FEAS_MARGIN,
                          box_bound: float = DEFAULT_BOX_BOUND,
                          decay_shift: float = 0.0,
                          accept_marginal: bool = False,
                          max_newton=None, debug_trace=None,
                          verifier=None) -> OutputFeedbackDesign:
    """Two-stage static output-feedback design.

    Stage 1 solves the state-feedback relaxation for an intermediate gain
    K0; stage 2 searches for a slack pair (G, H) certifying F = G^{-1}H
    against that K0.  Because not every stabilizing K0 admits a stage-2
    certificate, stage-2 infeasibility (or a verification miss) re-runs
    stage 1 with a small seeded random objective tilt to land on a
    different K0, up to ``retries`` extra attempts.
    """
    _require_fractional_range(sys.alpha)
    if verifier is None:
        verifier = verify_static_output_loop
    A_shift = sys.A + decay_shift * sys.E if decay_shift else None
    attempts = []
    for attempt in range(retries + 1):
        objective_seed = None if attempt == 0 else (seed, attempt)
        try:
            K0, cert1 = solve_state_feedback(
                sys, feas_margin, box_bound, A_override=A_shift,
                objective_seed=objective_seed, accept_marginal=accept_marginal,
                max_newton=max_newton)
        except StateFeedbackInfeasible:
            if attempt == 0:
                raise
            attempts.append({"attempt": attempt, "stage": 1, "status": "no witness"})
            continue
        except (LmiNumericalError, GainRecoverySingular) as exc:
            # A tilted solve may fail numerically where the untilted one
            # succeeded; that only disqualifies this attempt's K0 sample.
            if attempt == 0:
                raise
            attempts.append({"attempt": attempt, "stage": 1, "status": str(exc)})
            continue
        try:
            F, cert2 = _output_stage2(sys, K0, feas_margin, box_bound,
                                      A_override=A_shift,
                                      accept_marginal=accept_marginal,
                                      max_newton=max_newton,
                                      debug_trace=debug_trace)
        except GainRecoverySingular as exc:
            attempts.append({"attempt": attempt, "stage": 2, "status": str(exc),
                             "K0": K0.tolist()})
            continue
        if F is None:
            attempts.append({"attempt": attempt, "stage": 2,
                             "status": "infeasible", "K0": K0.tolist()})
            continue
        report = verifier(sys, F)
        if not report.admissible:
            attempts.append({"attempt": attempt, "stage": "verify",
                             "status": "closed loop not admissible",
                             "K0": K0.tolist(), "F": F.tolist()})
            continue
        return OutputFeedbackDesign(K0=K0, F=F,
                                    certificates={"stage1": cert1, "stage2": cert2},
                                    closed_loop_report=report)
    raise OutputStageExhausted(
        f"output-feedback stage 2 failed for all {retries + 1} intermediate gains",
        attempts=attempts)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def design_to_json(design, path=None) -> str:
    text = json.dumps(design.to_dict(), indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
