"""LMI assembly, controller synthesis, and closed-loop verification.

The criteria hold at orders in (0, 1].  Synthesis takes a plant of any order
in (0, 2): :func:`sfos.lifting.as_plant` puts it into working coordinates
(lifted by k above order 1), the inequalities are solved there, and
:func:`sfos.lifting.verify_loop` judges the closed loop in the same
coordinates.

One criterion, posed on two sides by :func:`_criterion`, over a
fractional-order positive-definite variable P and a free multiplier Q
attached to a null-space basis of E.  The paper's inequalities hold P only
in P E^T (right) or E^T P (left).  With E = U1 Sigma V1^T (r = rank E),
only P's r x r compression onto E's row space (V1, right) or column space
(U1, left) enters; the rest is absorbed by Q.  So an r x r variable P_r
gives

* right: sym(A S) < 0, S = V1 P_r Sigma U1^T + E_right Q;
* left:  sym(S A) < 0, S = V1 Sigma P_r U1^T + Q E_left,

r^2 + n(n - r) slots in place of n^2 + n(n - r) for the full n x n P.

Alone it is the admissibility test.  With a gain variable R it gives the
two observer-based problems: the right side plus B R is the state-feedback
LMI, the left side plus R C the output-injection LMI; their gains are
recovered by inverting S.  Static output feedback is a two-stage scheme:
the state-feedback LMI produces an intermediate gain K0, then a
slack-variable inequality in a full n x n P and (Q, G, H) yields
F = G^{-1} H.
Stage 2 is not guaranteed solvable for every stage-1 K0, so a stage 2 with
no certificate, at any k, triggers re-sampling of K0 through a small seeded
random linear tilt on the stage-1 objective; the design records the samples
that failed.  The observer design makes one attempt.  Every solve
runs :func:`sfos.lmi.solve_feasibility` at its default box and margin; the
gain solves and stage 2 accept a certificate by one rule, in :func:`_solve`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fpdm, lifting
from .descriptor import DescriptorSystem, annihilators
from .errors import (GainRecoverySingular, InputError, LmiNumericalError,
                     OutputInjectionInfeasible, OutputStageExhausted,
                     StateFeedbackInfeasible, VerificationFailed)
from .lmi import (AffineExpr, LmiSolution, VariableRegistry, block_of,
                  solve_feasibility, sym_of)

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

#: Magnitude of the random stage-1 objective tilt used by output-feedback retries.
RETRY_TILT = 1e-3

#: Extra stage-1 samples of K0 that output feedback tries after the first.
RETRIES = 8


# ---------------------------------------------------------------------------
# The criterion and its solve
# ---------------------------------------------------------------------------

def _fpdm_expr(reg: VariableRegistry, blocks: list, prefix: str, n: int, alpha: float):
    """Register (X sym, Y skew) for one n x n fractional-PD variable.

    Returns the affine expression P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y
    and appends the membership side-block -[[X, Y], [-Y, X]] < 0 (none for
    n = 0, which has no slots).
    """
    X = reg.expr(reg.add(f"{prefix}_X", "symmetric", n))
    Y = reg.expr(reg.add(f"{prefix}_Y", "skew", n))
    if n:
        blocks.append(block_of(
            AffineExpr.bmat([[-X, -Y], [Y, -X]]), label=f"{prefix}_membership"))
    half = alpha * np.pi / 2.0
    return np.sin(half) * X + np.cos(half) * Y


#: Block label of each side's criterion with its gain term.
_GAIN_LABELS = {"right": "state_feedback", "left": "output_injection"}


def _multiplier(ann, side: str, P, Q):
    """S = V1 P Sigma U1^T + E_right Q (right) or V1 Sigma P U1^T + Q E_left (left).

    The criterion's multiplier of A, from the r x r P and the free Q; the
    same formula poses it on expressions and recovers it from values.
    """
    if side == "right":
        return ann.V1 @ P @ (ann.sigma[:, None] * ann.U1.T) + ann.E_right @ Q
    return (ann.V1 * ann.sigma) @ P @ ann.U1.T + Q @ ann.E_left


def _criterion(sys: DescriptorSystem, side: str, suffix: str = "",
               gain: bool = False):
    """Pose the criterion on ``side``; returns (blocks, registry, annihilators).

    right: sym(A V1 P Sigma U1^T + A E_right Q [+ B R]) < 0;
    left:  sym(V1 Sigma P U1^T A + Q E_left A [+ R C]) < 0,
    with E = U1 Sigma V1^T from one SVD, P r x r fractional-PD and the gain
    term R only when ``gain`` is set.  The variables are P<suffix> (as X
    then Y), Q<suffix> and R<suffix>, registered in that order.
    """
    if side not in _GAIN_LABELS:
        raise InputError(f"side must be 'right' or 'left', got {side!r}")
    ann = annihilators(sys.E, sys.r)
    n, r = sys.n, sys.r
    reg = VariableRegistry()
    blocks: list = []
    P = _fpdm_expr(reg, blocks, f"P{suffix}", r, sys.alpha)
    if side == "right":
        Q = reg.expr(reg.add(f"Q{suffix}", "rectangular", n - r, n))
        expr = sys.A @ _multiplier(ann, side, P, Q)
        if gain:
            R = reg.expr(reg.add(f"R{suffix}", "rectangular", sys.m, n))
            expr = expr + sys.B @ R
    else:
        Q = reg.expr(reg.add(f"Q{suffix}", "rectangular", n, n - r))
        expr = _multiplier(ann, side, P, Q) @ sys.A
        if gain:
            R = reg.expr(reg.add(f"R{suffix}", "rectangular", n, sys.p))
            expr = expr + R @ sys.C
    label = _GAIN_LABELS[side] if gain else f"admissibility_{side}"
    blocks.append(sym_of(expr, label=label))
    return blocks, reg, ann


def _require_fractional_range(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise InputError(
            f"criteria require order in (0, 1]; rewrite order {alpha} via lifting first")


#: Largest positive main-block margin tolerated when a marginal (weakly
#: feasible) certificate is accepted for independent re-verification.
MARGINAL_SLACK = 1e-5


def _solve(blocks, reg: VariableRegistry, plant: lifting.LiftedSystem,
           objective=None):
    """Solve, then pick the values to recover gains from; returns (values, sol).

    A strict certificate always wins.  In lifted coordinates
    (``plant.k > 1``), whose inequalities are only ever weakly feasible
    because the lift structurally excludes strict impulse-freeness, the
    final interior iterate is accepted instead, provided no block is
    violated by more than :data:`MARGINAL_SLACK`; a slightly indefinite
    fractional-PD membership block is repaired afterwards by
    :func:`_materialize_fpdm`, and the recovered design must then pass its
    own independent closed-loop verification.  Marginal acceptances are
    relabeled status "Marginal".  ``values`` is None when neither holds.
    """
    sol = solve_feasibility(blocks, reg, objective=objective)
    if sol.feasible:
        return reg.materialize_all(sol.assignment), sol
    if (plant.k > 1 and sol.witness is not None
            and max(sol.margins) <= MARGINAL_SLACK):
        return (reg.materialize_all(sol.witness),
                dataclasses.replace(sol, status="Marginal"))
    return None, sol


def _shifted(plant: lifting.LiftedSystem, gamma: float) -> lifting.LiftedSystem:
    """The working plant with drift A + gamma*E; unchanged for gamma = 0.

    Only the working-coordinate system is shifted: synthesizing against it
    pushes every closed-loop eigenvalue left by about gamma, while
    verification still runs against the unshifted plant.
    """
    if not gamma:
        return plant
    work = plant.lifted
    return dataclasses.replace(
        plant, lifted=work.with_matrices(A=work.A + gamma * work.E))


def _materialize_fpdm(vals: dict, prefix: str, alpha: float,
                      repair: bool) -> np.ndarray:
    """Build P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y from solved variables.

    With ``repair`` (marginal acceptances only), a membership block matrix
    that ended up slightly indefinite is fixed by shifting X along the
    identity -- the smallest perturbation that restores strict membership.
    The shift is bounded by the marginal slack, so it is a tiny relative
    change; the design it produces is still re-verified independently.
    P itself comes from :func:`sfos.fpdm.materialize`, which raises
    :class:`NotMemberError` for a parameter outside the set.  A 0 x 0 P
    (rank E = 0) is returned as it is.
    """
    X, Y = vals[f"{prefix}_X"], vals[f"{prefix}_Y"]
    if not X.size:
        return X
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

def admissible_via_lmi(sys: DescriptorSystem, side: str = "right"):
    """Zero-input admissibility as a feasibility question.

    ``side="right"`` tests sym(A V1 P Sigma U1^T + A E_right Q) < 0 with
    Q free; ``side="left"`` tests sym(V1 Sigma P U1^T A + Q E_left A), with
    P r x r fractional-PD (see :func:`_criterion`).  Returns
    (verdict, LmiSolution); a solver NumericalFailure raises
    :class:`LmiNumericalError` rather than counting as infeasible.
    """
    _require_fractional_range(sys.alpha)
    blocks, reg, _ = _criterion(sys, side)
    sol = solve_feasibility(blocks, reg)
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


def solve_state_feedback(plant, objective_seed=None):
    """Feasibility of sym(A S + B R) < 0; returns (K, certificate).

    S = V1 P Sigma U1^T + E_right Q with P r x r (see :func:`_criterion`),
    and K = R S^{-1}.  ``plant`` is a plant or a
    :class:`sfos.lifting.LiftedSystem`; the inequality is posed in its
    working coordinates.  ``objective_seed`` activates the random tilt used
    by output-feedback retries.
    """
    plant = lifting.as_plant(plant)
    sys = plant.lifted
    blocks, reg, ann = _criterion(sys, "right", "1", gain=True)
    objective = None
    if objective_seed is not None:
        rng = np.random.default_rng(objective_seed)
        W = rng.standard_normal((sys.m, sys.n))
        entry = reg.entry("R1")
        objective = {entry.start + i: RETRY_TILT * w
                     for i, w in enumerate(W.ravel())}
    vals, sol = _solve(blocks, reg, plant, objective)
    if vals is None:
        if sol.status == "Infeasible":
            raise StateFeedbackInfeasible(
                "state-feedback LMI certified infeasible: no stabilizing gain exists")
        raise LmiNumericalError("state-feedback LMI could not be classified")
    Pm = _materialize_fpdm(vals, "P1", sys.alpha, repair=sol.status == "Marginal")
    S = _multiplier(ann, "right", Pm, vals["Q1"])
    K = vals["R1"] @ _recover_inverse(S, "V1 P Sigma U1^T + E_right Q", sol)
    return K, sol


def solve_output_injection(plant):
    """Feasibility of sym(S A + R C) < 0; returns (L, certificate).

    S = V1 Sigma P U1^T + Q E_left with P r x r (see :func:`_criterion`),
    and L = S^{-1} R.  ``plant`` is taken as by :func:`solve_state_feedback`.
    """
    plant = lifting.as_plant(plant)
    sys = plant.lifted
    blocks, reg, ann = _criterion(sys, "left", "2", gain=True)
    vals, sol = _solve(blocks, reg, plant)
    if vals is None:
        if sol.status == "Infeasible":
            raise OutputInjectionInfeasible(
                "output-injection LMI certified infeasible: "
                "no stabilizing injection exists")
        raise LmiNumericalError("output-injection LMI could not be classified")
    Pm = _materialize_fpdm(vals, "P2", sys.alpha, repair=sol.status == "Marginal")
    S = _multiplier(ann, "left", Pm, vals["Q2"])
    L = _recover_inverse(S, "V1 Sigma P U1^T + Q E_left", sol) @ vals["R2"]
    return L, sol


def synth_observer(sys, decay_shift_state: float = 0.0,
                   decay_shift_injection: float = 0.0) -> ObserverDesign:
    """Estimated-state-feedback design: solve the two criteria, verify the loop.

    ``sys`` is a plant of any order in (0, 2) or a
    :class:`sfos.lifting.LiftedSystem`.  A plain plant above order 1 is
    lifted by :data:`sfos.lifting.DEFAULT_K`; for another factor k, pass
    ``lifting.as_plant(sys, k)``.  Gains act on the lifted state (K is
    m x kn, L is kn x p).  The two problems are fully decoupled (the first
    never sees C, the second never sees B).  ``decay_shift_*`` > 0
    synthesize against A + gamma*E, pushing every closed-loop eigenvalue
    left by gamma for faster transients; admissibility of the result is
    still verified against the true plant, by
    :func:`sfos.lifting.verify_loop`; a loop that fails it raises
    :class:`VerificationFailed`.
    """
    plant = lifting.as_plant(sys)
    K, cert_k = solve_state_feedback(_shifted(plant, decay_shift_state))
    L, cert_l = solve_output_injection(_shifted(plant, decay_shift_injection))
    report = lifting.verify_loop(plant, ("observer", K, L))
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

    ``attempts`` lists the K0 samples that failed before the one that won.
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


def _output_stage2(plant: lifting.LiftedSystem, K0):
    """Slack-variable stage: find (P, Q, G, H) certifying F = G^{-1}H.

    Returns (F, certificate), with F None when the solve gave no values.

    P is the full n x n fractional-PD variable, not the r x r one of
    :func:`_criterion`.  Posed with an r x r P, this stage took 85 Newton
    steps against 23 in the order-0.6 demo design, and the k = 3 lifted
    design at order 1.2 and decay shift 1 found a certificate for none of
    its intermediate gains.
    """
    sys = plant.lifted
    ann = annihilators(sys.E, sys.r)
    n, m, p = sys.n, sys.m, sys.p
    Ac = sys.A + sys.B @ K0
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
    vals, sol = _solve(blocks, reg, plant)
    if vals is None:
        return None, sol
    F = _recover_inverse(vals["G"], "slack variable G", sol) @ vals["H"]
    return F, sol


def synth_output_feedback(sys, seed: int = 0,
                          decay_shift: float = 0.0) -> OutputFeedbackDesign:
    """Two-stage static output-feedback design.

    ``sys`` is taken as by :func:`synth_observer`.  A static F in lifted
    coordinates is static in the original ones too (the lifted C reads
    z1 = x only), so the returned F always acts on the plant output.
    Stage 1 solves the state-feedback relaxation for an intermediate gain
    K0; stage 2 searches for a slack pair (G, H) certifying F = G^{-1}H
    against that K0.  Because not every stabilizing K0 admits a stage-2
    certificate, a stage 2 without one (Infeasible or NumericalFailure, at
    any k) or a verification miss re-runs stage 1 with a small seeded
    random objective tilt to land on a different K0, up to :data:`RETRIES`
    extra attempts.  The failed attempts, each stage 2 with its LMI status,
    are kept on the design, or on :class:`OutputStageExhausted`.
    """
    plant = lifting.as_plant(sys)
    work = _shifted(plant, decay_shift)
    attempts = []
    for attempt in range(RETRIES + 1):
        objective_seed = None if attempt == 0 else (seed, attempt)
        try:
            K0, cert1 = solve_state_feedback(work, objective_seed=objective_seed)
        except (StateFeedbackInfeasible, LmiNumericalError,
                GainRecoverySingular) as exc:
            # A tilted solve cannot certify infeasibility, and may fail where
            # the untilted one succeeded: that only disqualifies this K0.
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
        report = lifting.verify_loop(plant, ("output", F))
        if not report.admissible:
            attempts.append({"attempt": attempt, "stage": "verify",
                             "status": "closed loop not admissible",
                             "K0": K0.tolist(), "F": F.tolist()})
            continue
        return OutputFeedbackDesign(K0=K0, F=F,
                                    certificates={"stage1": cert1, "stage2": cert2},
                                    closed_loop_report=report, attempts=attempts)
    raise OutputStageExhausted(
        f"output-feedback stage 2 failed for all {RETRIES + 1} intermediate gains",
        attempts=attempts)
