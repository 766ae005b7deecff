"""LMI assembly, controller synthesis, and closed-loop verification.

Every criterion is posed on the plant at its own order alpha in (0, 2),
every gain acts on the plant's own state, and every closed loop is
verified by the pencil analysis of that plant at alpha
(:func:`sfos.descriptor.analyze_pair`).

One criterion, posed once, as a right side.  The paper's inequalities hold
the Lyapunov variable P only in P E^T, so with E = U1 Sigma V1^T
(r = rank E) an r x r P on E's row space suffices, and a free multiplier Q
on E's null space absorbs the rest:

    sym(Theta (x) A S) < 0,    S = V1 P Sigma U1^T + E_right Q.

Up to order 1, Theta = [1] and P is fractional-order positive definite;
above it, P is symmetric positive definite and :func:`_sector` makes the
block the conic sector |arg| > alpha*pi/2.  At r = n there is no Q: this is
the criterion of regular fractional-order systems (Lu & Chen, IEEE TAC
55(1), 2010).  The paper's left-side form, sym(Theta (x) S A) < 0 with
S = V1 Sigma P U1^T + Q E_left, is this criterion on the dual plant
(E^T, A^T, C^T), with its slots (X, Y, Q, R) read as (X, -Y, Q^T, R^T)
and E's one SVD read transposed (:attr:`sfos.descriptor.AnnihilatorPair.T`).

Up to order 1 the admissibility test needs no Q: by the projection lemma
(Gahinet & Apkarian, Int. J. Robust Nonlinear Control 4(4), 1994),
:func:`_projected` poses N^T sym(A V1 P Sigma U1^T) N < 0, N spanning the
complement of range(A E_right), in the r^2 slots of P alone.  Above order
1 it is :func:`_criterion` with no gain.  :func:`_criterion` keeps Q and
adds a gain variable R: plus B R it is the state-feedback LMI, with
K = R S^{-1}; on the dual, plus C^T R, the output-injection LMI, L = K^T.

Static output feedback is a two-stage scheme: the state-feedback LMI
produces an intermediate gain K0, then a slack-variable inequality in a
full n x n P and (Q, G, H) yields F = G^{-1} H.
Stage 2 is not guaranteed solvable for every stage-1 K0, so a stage 2 with
no certificate, or a loop that fails verification, re-solves stage 1 on
the plant shifted by the next decay shift of :data:`RETRY_SHIFTS` for
another K0; stage 2 and verification do not see that shift, and the
design records the K0 that failed.  The observer design makes one
attempt.  Every solve runs :func:`sfos.lmi.solve_feasibility` at its
default box and margin, and only a strict certificate yields a gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import DescriptorSystem, _rank, analyze_pair, annihilators
from .errors import (GainRecoverySingular, InputError, LmiNumericalError,
                     OutputInjectionInfeasible, OutputStageExhausted,
                     StateFeedbackInfeasible, VerificationFailed)
from .lmi import (DEFAULT_BOX_BOUND, DEFAULT_FEAS_MARGIN, AffineExpr,
                  LmiSolution, VariableRegistry, block_of, solve_feasibility,
                  sym_of)

__all__ = [
    "ObserverDesign",
    "OutputFeedbackDesign",
    "admissible_via_lmi",
    "closed_loop",
    "synth_observer",
    "synth_output_feedback",
]

#: Condition-number ceiling for the matrices inverted during gain recovery.
RECOVERY_COND_LIMIT = 1e12

#: Decay shifts of the stage-1 plant that output feedback tries for K0, in
#: order; the first is the plant itself.
RETRY_SHIFTS = (0.0, 0.5, -0.5, 2.0, -2.0, 8.0, -8.0, 32.0, -32.0)


# ---------------------------------------------------------------------------
# The criterion and its solve
# ---------------------------------------------------------------------------

def _lyapunov(prefix: str, n: int, alpha: float):
    """Start a problem with one n x n Lyapunov variable; returns (reg, blocks, P).

    Up to order 1, P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y is fractional-PD,
    with (X sym, Y skew) registered and the side-block -[[X, Y], [-Y, X]] < 0.
    Above, P is symmetric, with -P < 0.  n = 0 has no slots and no side-block.
    """
    reg = VariableRegistry()
    blocks: list = []
    if alpha > 1.0:
        P = reg.expr(reg.add(prefix, "symmetric", n))
        if n:
            blocks.append(block_of(-P, label=f"{prefix}_membership"))
        return reg, blocks, P
    X = reg.expr(reg.add(f"{prefix}_X", "symmetric", n))
    Y = reg.expr(reg.add(f"{prefix}_Y", "skew", n))
    if n:
        blocks.append(block_of(
            AffineExpr.bmat([[-X, -Y], [Y, -X]]), label=f"{prefix}_membership"))
    half = alpha * np.pi / 2.0
    return reg, blocks, np.sin(half) * X + np.cos(half) * Y


def _lyapunov_value(vals: dict, prefix: str, alpha: float) -> np.ndarray:
    """P from solved values: sin(alpha*pi/2) X + cos(alpha*pi/2) Y up to order 1.

    The solver has certified the membership block of :func:`_lyapunov` at
    its own margin; P is not judged again.
    """
    if alpha > 1.0:
        return vals[prefix]
    half = alpha * np.pi / 2.0
    return np.sin(half) * vals[f"{prefix}_X"] + np.cos(half) * vals[f"{prefix}_Y"]


def _sector(alpha: float, M, copies: bool = False):
    """Theta (x) M, the expression whose sym(.) < 0 is the stability block.

    M itself up to order 1, where the fractional-PD P carries the order.
    Above, Theta = [[s, c], [-c, s]] with s = sin(alpha*pi/2) and
    c = -cos(alpha*pi/2), and sym(Theta (x) M) is
    [[s sym(M), c (M - M^T)], [c (M^T - M), s sym(M)]], the conic sector
    |arg| > alpha*pi/2 (Chilali & Gahinet, IEEE TAC 41(3), 1996).  M^T for M
    conjugates it by diag(I, -I), so the dual keeps the criterion.  With
    ``copies``, I2 (x) M in place of Theta (x) M.
    """
    if alpha <= 1.0:
        return M
    half = alpha * np.pi / 2.0
    s, c = (1.0, 0.0) if copies else (np.sin(half), -np.cos(half))
    return AffineExpr.bmat([[s * M, c * M], [-c * M, s * M]])


def _right_side(sys: DescriptorSystem, dual: bool = False):
    """(A, B, E's factors) of the plant, or of its dual: A^T, C^T, E's SVD transposed."""
    ann = annihilators(sys.E, sys.r)
    if dual:
        return sys.A.T, sys.C.T, ann.T
    return sys.A, sys.B, ann


def _multiplier(ann, P, Q):
    """S = V1 P Sigma U1^T + E_right Q, posed on expressions or recovered from values."""
    return ann.V1 @ P @ (ann.sigma[:, None] * ann.U1.T) + ann.E_right @ Q


def _criterion(A, B, ann, alpha: float, suffix: str, label: str):
    """Pose sym(Theta (x) (A S + B R)) < 0; returns (blocks, registry).

    S is :func:`_multiplier`'s, E = U1 Sigma V1^T is read from ``ann``, P
    (:func:`_lyapunov`) is r x r and Theta is :func:`_sector`'s.
    The variables are P<suffix>, Q<suffix> and R<suffix>, registered in that
    order; the criterion's block is labelled ``label``.  With a B of no
    columns it is the admissibility test.
    """
    n, r = A.shape[0], ann.sigma.size
    reg, blocks, P = _lyapunov(f"P{suffix}", r, alpha)
    Q = reg.expr(reg.add(f"Q{suffix}", "rectangular", n - r, n))
    R = reg.expr(reg.add(f"R{suffix}", "rectangular", B.shape[1], n))
    blocks.append(sym_of(_sector(alpha, A @ _multiplier(ann, P, Q) + B @ R),
                         label=label))
    return blocks, reg


def _projected(A, ann, alpha: float, label: str):
    """Pose N^T sym(A V1 P Sigma U1^T) N < 0 in P alone; returns (blocks, registry).

    N is an orthonormal basis of the complement of range(A E_right): the
    left singular vectors of one SVD past the rank that the shared rule of
    :func:`sfos.descriptor.numerical_rank` reads off its singular values;
    P (P_X, P_Y) is r x r fractional-PD.  An empty N (E = 0, A
    nonsingular) leaves no criterion block.
    """
    reg, blocks, P = _lyapunov("P", ann.sigma.size, alpha)
    U, sv, _ = np.linalg.svd(A @ ann.E_right)
    N = U[:, _rank(sv):]
    if N.shape[1]:
        front, back = N.T @ A @ ann.V1, (ann.sigma[:, None] * ann.U1.T) @ N
        blocks.append(sym_of(front @ P @ back, label=label))
    return blocks, reg


def _shifted(sys: DescriptorSystem, gamma: float,
             name: str = "decay shift") -> DescriptorSystem:
    """The plant with drift A + gamma*E; unchanged for gamma = 0.

    Synthesizing against it pushes every closed-loop eigenvalue left by
    about gamma, while verification still runs against the unshifted plant.
    A gamma that is not finite is refused as ``name``.
    """
    if not np.isfinite(gamma):
        raise InputError(f"{name} must be finite, got {gamma}")
    if not gamma:
        return sys
    return sys.with_matrices(A=sys.A + gamma * sys.E)


def _require_plant(sys, name: str) -> None:
    if not isinstance(sys, DescriptorSystem):
        raise InputError(f"{name} takes a DescriptorSystem, "
                         f"not a {type(sys).__name__}")


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

def admissible_via_lmi(sys: DescriptorSystem, side: str = "right"):
    """Zero-input admissibility as a feasibility question.

    Up to order 1, :func:`_projected` on the plant (``side="right"``) or on
    its dual (``"left"``: N^T sym(V1 Sigma P U1^T A) N < 0, N spanning
    ker(E_left A)), whose verdict is the Q-multiplier criterion's.  An
    empty N leaves nothing to solve (r = 0, A nonsingular): the verdict is
    True, as a Feasible solution with no blocks, no Newton steps and
    t = -inf.  Above, :func:`_criterion` with no gain keeps Q: the
    projection lemma is not shown exact for the sector's I2 (x) Q.  The
    criterion is necessary and sufficient, so one certificate decides:
    the solve stops at the first (``first_certificate``) of either verdict,
    a point with t <= -margin or a dual witness whose bound clears -margin,
    and its t and margins are that point's, not an optimum's.  Returns (verdict,
    LmiSolution); a solver NumericalFailure raises
    :class:`LmiNumericalError` rather than counting as infeasible.
    """
    _require_plant(sys, "admissible_via_lmi")
    if side not in ("right", "left"):
        raise InputError(f"side must be 'right' or 'left', got {side!r}")
    A, _, ann = _right_side(sys, dual=side == "left")
    label = f"admissibility_{side}"
    if sys.alpha > 1.0:
        blocks, reg = _criterion(A, np.zeros((sys.n, 0)), ann, sys.alpha, "",
                                 label)
    else:
        blocks, reg = _projected(A, ann, sys.alpha, label)
    if not blocks:
        empty = np.zeros(0)
        return True, LmiSolution(
            status="Feasible", assignment=empty, margins=(),
            t=-np.inf, lower_bound=-np.inf, newton_steps=0,
            feas_margin=DEFAULT_FEAS_MARGIN, box_bound=DEFAULT_BOX_BOUND)
    sol = solve_feasibility(blocks, reg, first_certificate=True)
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
            "closed_loop_report": self.closed_loop_report.to_dict(),
        }


def _gain(name: str, gain, shape: tuple) -> np.ndarray:
    try:
        gain = np.asarray(gain, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"gain {name} must be a rectangular matrix "
                         "of numbers") from None
    if gain.shape != shape:
        raise InputError(f"gain {name} has shape {gain.shape}, expected {shape}")
    if not np.isfinite(gain).all():
        raise InputError(f"gain {name} contains non-finite entries")
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


def _solve_gain(sys: DescriptorSystem, dual: bool, suffix: str,
                label: str, infeasible):
    """:func:`_criterion` on the plant or its dual; returns (K = R S^{-1}, sol).

    A certified infeasible solve raises ``infeasible``, an unclassified one
    :class:`LmiNumericalError`.
    """
    A, B, ann = _right_side(sys, dual)
    blocks, reg = _criterion(A, B, ann, sys.alpha, suffix, label)
    sol = solve_feasibility(blocks, reg)
    if not sol.feasible:
        what = label.replace("_", "-")
        if sol.status == "Infeasible":
            raise infeasible(
                f"{what} LMI certified infeasible: no stabilizing gain exists")
        raise LmiNumericalError(f"{what} LMI could not be classified")
    vals = reg.materialize_all(sol.assignment)
    Pm = _lyapunov_value(vals, f"P{suffix}", sys.alpha)
    S = _multiplier(ann, Pm, vals[f"Q{suffix}"])
    K = vals[f"R{suffix}"] @ _recover_inverse(S, "V1 P Sigma U1^T + E_right Q", sol)
    return K, sol


def solve_state_feedback(plant):
    """Feasibility of sym(Theta (x) (A S + B R)) < 0; returns (K, certificate).

    K = R S^{-1} (see :func:`_criterion`).  ``plant`` is a plain plant, at
    its own order.
    """
    return _solve_gain(plant, False, "1", "state_feedback",
                       StateFeedbackInfeasible)


def solve_output_injection(plant):
    """Feasibility of sym(Theta (x) (S A + R C)) < 0; returns (L, certificate).

    S = V1 Sigma P U1^T + Q E_left, and L = S^{-1} R: the state-feedback
    criterion of the dual plant (E^T, A^T, C^T), whose gain is L^T.
    ``plant`` is taken as by :func:`solve_state_feedback`.
    """
    K, sol = _solve_gain(plant, True, "2", "output_injection",
                         OutputInjectionInfeasible)
    return K.T, sol


def _verify(sys: DescriptorSystem, controller):
    """The pencil analysis of ``controller``'s closed loop on ``sys``, at its order."""
    E, A, _ = closed_loop(sys, controller)
    return analyze_pair(E, A, sys.alpha)


def synth_observer(sys: DescriptorSystem, decay_shift_state: float = 0.0,
                   decay_shift_injection: float = 0.0) -> ObserverDesign:
    """Estimated-state-feedback design: solve the two criteria, verify the loop.

    ``sys`` is a plant of any order in (0, 2); K and L act on its state.
    The two problems are decoupled (the first never sees C, the second B).
    ``decay_shift_*`` > 0 synthesize against A + gamma*E, pushing every
    closed-loop eigenvalue left by gamma for faster transients;
    admissibility of the result is still verified against the true plant,
    by :func:`_verify`; a loop that fails it raises
    :class:`VerificationFailed`.
    """
    _require_plant(sys, "synth_observer")
    state = _shifted(sys, decay_shift_state, "decay_shift_state")
    injection = _shifted(sys, decay_shift_injection, "decay_shift_injection")
    K, cert_k = solve_state_feedback(state)
    L, cert_l = solve_output_injection(injection)
    report = _verify(sys, ("observer", K, L))
    if not report.admissible:
        raise VerificationFailed(
            "LMI certificates found but the augmented closed loop failed the "
            "independent pencil check")
    return ObserverDesign(K=K, L=L,
                          certificates={"state_feedback": cert_k,
                                        "output_injection": cert_l},
                          closed_loop_report=report)


# ---------------------------------------------------------------------------
# Static output feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputFeedbackDesign:
    """Intermediate gain K0, output gain F, and their evidence.

    K0 acts on the plant's own state, F on its output.  ``attempts`` lists
    the K0 that failed before the one that won.
    """

    K0: np.ndarray
    F: np.ndarray
    certificates: dict
    closed_loop_report: object
    attempts: list

    def to_dict(self) -> dict:
        return {
            "K0": self.K0.tolist(),
            "F": self.F.tolist(),
            "certificates": {k: v.to_dict() for k, v in self.certificates.items()},
            "closed_loop_report": self.closed_loop_report.to_dict(),
            "attempts": self.attempts,
        }


def _output_stage2(sys: DescriptorSystem, K0):
    """Slack-variable stage: find (P, Q, G, H) certifying F = G^{-1}H.

    Returns (F, certificate), with F None when the solve gave no values.

    The slack stage on (Theta (x) Ac, Theta (x) B) with I2 (x) S, G and H
    (:func:`_sector`), Ac = A + B K0 and S = E^T P + Q E_left: congruence by
    [I; I2 (x) (F C - K0)] leaves sym(Theta (x) S (A + B F C)).
    P is the full n x n P of :func:`_lyapunov`; posed with an r x r P, this
    stage took 85 Newton steps against 23 in the order-0.6 demo design.
    """
    ann = annihilators(sys.E, sys.r)
    n, m, p, a = sys.n, sys.m, sys.p, sys.alpha
    Ac = sys.A + sys.B @ K0
    reg, blocks, P = _lyapunov("P", n, a)
    Q = reg.expr(reg.add("Q", "rectangular", n, n - sys.r))
    G = reg.expr(reg.add("G", "rectangular", m, m))
    H = reg.expr(reg.add("H", "rectangular", m, p))
    phi = _sector(a, sys.E.T @ P @ Ac + Q @ (ann.E_left @ Ac))
    off = (_sector(a, (sys.E.T @ P + Q @ ann.E_left) @ sys.B)
           + _sector(a, sys.C.T @ H.T, copies=True)
           - _sector(a, K0.T @ G.T, copies=True))
    expr = AffineExpr.bmat([[phi + phi.T, off],
                            [off.T, _sector(a, -G - G.T, copies=True)]])
    blocks.append(block_of(expr, label="output_feedback"))
    sol = solve_feasibility(blocks, reg)
    if not sol.feasible:
        return None, sol
    vals = reg.materialize_all(sol.assignment)
    F = _recover_inverse(vals["G"], "slack variable G", sol) @ vals["H"]
    return F, sol


def synth_output_feedback(sys: DescriptorSystem, seed: int = 0,
                          decay_shift: float = 0.0) -> OutputFeedbackDesign:
    """Two-stage static output-feedback design.

    ``sys`` is taken as by :func:`synth_observer`; both stages run on the
    plant at its own order, and K0 acts on its state, F on its output.
    Stage 1 solves the state-feedback relaxation for an intermediate gain
    K0; stage 2 searches for a slack pair (G, H) certifying F = G^{-1}H
    against that K0.  ``decay_shift`` > 0 designs against A + gamma*E, as
    in :func:`synth_observer`.  Because not every stabilizing K0 admits a
    stage-2 certificate, a stage 2 without one (Infeasible or
    NumericalFailure) or a verification miss re-solves stage 1 on that
    plant shifted further by the next entry of :data:`RETRY_SHIFTS`, for
    another K0; stage 2 keeps that plant, and verification the plant
    itself.  The failed attempts, each with its stage and status, are kept
    on the design, or on :class:`OutputStageExhausted`.  ``seed`` is
    ignored: nothing in the design is random, and the keyword stays only
    for existing callers.
    """
    _require_plant(sys, "synth_output_feedback")
    work = _shifted(sys, decay_shift, "decay_shift")
    attempts = []
    for attempt, gamma in enumerate(RETRY_SHIFTS):
        try:
            K0, cert1 = solve_state_feedback(_shifted(work, gamma))
        except (StateFeedbackInfeasible, LmiNumericalError,
                GainRecoverySingular) as exc:
            # Only the plant itself decides that no design exists; a shifted
            # stage 1 that fails only disqualifies its K0.
            if attempt == 0:
                raise
            attempts.append({"attempt": attempt, "stage": 1, "status": str(exc)})
            continue
        try:
            F, cert2 = _output_stage2(work, K0)
        except GainRecoverySingular as exc:
            attempts.append({"attempt": attempt, "stage": 2, "status": str(exc),
                             "K0": K0.tolist()})
            continue
        if F is None:
            attempts.append({"attempt": attempt, "stage": 2,
                             "status": cert2.status, "K0": K0.tolist()})
            continue
        report = _verify(sys, ("output", F))
        if not report.admissible:
            attempts.append({"attempt": attempt, "stage": "verify",
                             "status": "closed loop not admissible",
                             "K0": K0.tolist(), "F": F.tolist()})
            continue
        return OutputFeedbackDesign(K0=K0, F=F,
                                    certificates={"stage1": cert1, "stage2": cert2},
                                    closed_loop_report=report, attempts=attempts)
    raise OutputStageExhausted(
        f"output-feedback stage 2 failed for all {len(RETRY_SHIFTS)} "
        "intermediate gains",
        attempts=attempts)
