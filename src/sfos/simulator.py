"""Time-domain simulation by an implicit Grünwald-Letnikov scheme.

The Caputo derivative of order 0 < alpha < 1 is realized discretely as

    D^alpha x(t_s)  ~  h^-alpha * sum_{j=0}^{s} w_j (x_{s-j} - x_0),

with the binomial weights w.  Subtracting the initial value makes the
operator vanish on constants, matching the Caputo (not Riemann-Liouville)
initialization.  Each step solves the implicit linear system

    (h^-alpha E - A) x_s = h^-alpha E (x_0 - sum_{j=1}^{s} w_j (x_{s-j} - x_0)),

which marches singular descriptor pairs directly: rows in the left null
space of E reduce to the algebraic constraint 0 = (A x_s)_row enforced
exactly by the solve, so no slow/fast splitting is needed (and pairs that
are not strictly impulse-free, such as lifted representations, integrate
without special-casing).  Orders in (1, 2) are simulated on their lifted
chain at order alpha/k (:func:`sfos.lifting.as_plant`).

All closed loops handled here are autonomous: the controller is folded in
through :func:`sfos.synthesis.closed_loop`, which builds the same pair that
verification analyzes, and the physical input u(t) is read off the whole
trajectory afterwards through that function's input readout.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import descriptor, lifting, synthesis
from .errors import InputError
from .synthesis import ObserverDesign, OutputFeedbackDesign

__all__ = [
    "SimConfig",
    "Trajectory",
    "gl_weights",
    "simulate",
    "tail_decay_exponent",
]


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grünwald-Letnikov binomial weights for order ``alpha``.

    w_0 = 1 and w_j = (1 - (alpha+1)/j) w_{j-1}; these are the coefficients
    of (1 - z)^alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"weights are defined for orders in (0, 1), got {alpha}")
    if count < 1:
        raise InputError("count must be at least 1")
    w = np.empty(count)
    w[0] = 1.0
    for j in range(1, count):
        w[j] = (1.0 - (alpha + 1.0) / j) * w[j - 1]
    return w


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, history policy, and initial data.

    ``memory_length`` is "full" (keep the whole history; exact at the cost
    of O(N^2) work) or an integer short-memory truncation.
    ``consistency`` controls inconsistent initial conditions: "project"
    (default; warn and repair the fast components), "warn", or "strict"
    (raise).  ``gate_first_input`` zeroes the reported input at t=0, which
    some benchmark scenarios require for a consistent start.
    """

    h: float
    T: float
    x0: np.ndarray
    xhat0: np.ndarray | None = None
    memory_length: object = "full"
    k: int = lifting.DEFAULT_K
    consistency: str = "project"
    gate_first_input: bool = False

    def __post_init__(self):
        if self.h <= 0 or self.T < self.h:
            raise InputError("need h > 0 and T >= h")
        if self.memory_length != "full" and int(self.memory_length) < 1:
            raise InputError("memory_length must be 'full' or a positive integer")
        if self.consistency not in ("project", "warn", "strict"):
            raise InputError("consistency must be 'project', 'warn' or 'strict'")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        if self.xhat0 is not None:
            object.__setattr__(
                self, "xhat0", np.asarray(self.xhat0, dtype=float).ravel())

    def to_dict(self) -> dict:
        return {"h": self.h, "T": self.T, "x0": self.x0.tolist(),
                "xhat0": None if self.xhat0 is None else self.xhat0.tolist(),
                "memory_length": self.memory_length, "k": self.k,
                "consistency": self.consistency,
                "gate_first_input": self.gate_first_input}


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run.

    ``x`` is N x n (original pseudo-state), ``u`` N x m, ``e`` N x n
    observation error (None without an observer), ``algebraic_residual`` the
    per-step norm of the plant's algebraic rows evaluated at (x, u).
    """

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    e: np.ndarray | None
    algebraic_residual: np.ndarray
    config: SimConfig
    controller: str

    @property
    def final_norm_ratio(self) -> float:
        n0 = float(np.linalg.norm(self.x[0]))
        return float(np.linalg.norm(self.x[-1])) / n0 if n0 > 0 else 0.0

    def to_csv(self, path):
        cols = [self.times[:, None], self.x, self.u]
        header = ["t"]
        header += [f"x{i+1}" for i in range(self.x.shape[1])]
        header += [f"u{i+1}" for i in range(self.u.shape[1])]
        if self.e is not None:
            cols.append(self.e)
            header += [f"e{i+1}" for i in range(self.e.shape[1])]
        data = np.hstack(cols)
        np.savetxt(path, data, delimiter=",", header=",".join(header),
                   comments="", fmt="%.12g")

    def summary(self) -> dict:
        out = {
            "controller": self.controller,
            "config": self.config.to_dict(),
            "final_norm": float(np.linalg.norm(self.x[-1])),
            "initial_norm": float(np.linalg.norm(self.x[0])),
            "final_norm_ratio": self.final_norm_ratio,
            "max_algebraic_residual": float(np.max(self.algebraic_residual)),
        }
        try:
            out["tail_decay_exponent"] = tail_decay_exponent(self)
        except InputError:
            out["tail_decay_exponent"] = None
        return out

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2)


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

def _march(E, A, x0, alpha, h, steps, memory):
    """March the autonomous pair E D^alpha x = A x from x0; returns N+1 x n."""
    n = E.shape[0]
    ha = h ** (-alpha)
    step_matrix = ha * E - A
    sv = np.linalg.svd(step_matrix, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise InputError(
            "implicit step matrix h^-alpha E - A is numerically singular; "
            "try a smaller step size h")
    lu = sla.lu_factor(step_matrix)
    w = gl_weights(alpha, steps + 1)
    X = np.empty((steps + 1, n))
    X[0] = x0
    D = np.zeros((steps + 1, n))      # history of x_j - x0
    for s in range(1, steps + 1):
        # conv = sum_{j=1}^{hi} w_j (x_{s-j} - x0), vectorized over history;
        # short memory truncates to the most recent ``memory`` lags.
        hi = s if memory is None else min(s, memory)
        conv = w[1:hi + 1] @ D[s - hi:s][::-1]
        rhs = ha * (E @ (x0 - conv))
        X[s] = sla.lu_solve(lu, rhs)
        D[s] = X[s] - x0
    return X


def _project_consistent(E, A, x0, rank_tol, mode):
    """Repair the fast components of x0 so the algebraic rows hold at t=0."""
    r = descriptor.numerical_rank(E, rank_tol)
    n = E.shape[0]
    if r == n:
        return x0
    ann = descriptor.annihilators(E, r, rank_tol)
    residual = float(np.linalg.norm(ann.E_left @ (A @ x0)))
    scale = max(float(np.linalg.norm(A @ x0)), 1.0)
    if residual <= 1e-9 * scale:
        return x0
    if mode == "strict":
        raise InputError(
            f"initial pseudo-state violates the algebraic constraint "
            f"(residual {residual:.3e}); provide a consistent x0")
    if mode == "warn":
        warnings.warn(
            f"initial pseudo-state violates the algebraic constraint "
            f"(residual {residual:.3e}); continuing unmodified")
        return x0
    try:
        dec = descriptor._decompose_pair(E, A, np.zeros((n, 0)), r, rank_tol)
    except Exception:
        warnings.warn("initial state inconsistent but the pair is not "
                      "impulse-free; projection skipped")
        return x0
    xt = dec.N @ x0
    xt[r:] = dec.Ab @ xt[:r]
    x0p = np.linalg.solve(dec.N, xt)
    warnings.warn(
        f"initial pseudo-state projected onto the constraint manifold "
        f"(moved by {np.linalg.norm(x0p - x0):.3e})")
    return x0p


# ---------------------------------------------------------------------------
# Controller plumbing
# ---------------------------------------------------------------------------

def _normalize_controller(design):
    if design is None:
        return ("none",)
    if isinstance(design, ObserverDesign):
        return ("observer", design.K, design.L)
    if isinstance(design, OutputFeedbackDesign):
        return ("output", design.F)
    if isinstance(design, tuple) and design:
        return design
    raise InputError(f"unrecognized controller specification: {design!r}")


def simulate(sys, design, config: SimConfig) -> Trajectory:
    """Closed- or open-loop simulation of a descriptor plant.

    ``sys`` is a DescriptorSystem (any order in (0,2)) or a LiftedSystem;
    ``design`` is None, an ObserverDesign / OutputFeedbackDesign, or a tuple
    ("state", K) / ("observer", K, L) / ("output", F).  For orders above 1
    the plant is lifted and the gains must be sized for the lifted state;
    the returned trajectory reports the original-state block.
    """
    plant = lifting.as_plant(sys, config.k)
    base, work = plant.base, plant.lifted
    n, N = base.n, work.n

    x0 = config.x0
    if x0.size != n:
        raise InputError(f"x0 must have length {n}")
    ctrl = _normalize_controller(design)
    kind = ctrl[0]
    E_sim, A_sim, U = synthesis.closed_loop(work, ctrl)
    # x0 fills the plant block; a lift's auxiliary blocks start at zero.
    full0 = np.zeros(E_sim.shape[0])
    full0[:n] = x0
    if kind == "observer":
        xhat0 = np.zeros(n) if config.xhat0 is None else config.xhat0
        if xhat0.size != n:
            raise InputError(f"xhat0 must have length {n}")
        full0[N:N + n] = x0 - xhat0

    full0 = _project_consistent(E_sim, A_sim, full0, base.rank_tol,
                                config.consistency)

    steps = int(round(config.T / config.h))
    memory = None if config.memory_length == "full" else int(config.memory_length)
    if memory is not None:
        warnings.warn(
            "short-memory truncation is in effect; the neglected tail decays "
            "only like t^-alpha, so long-horizon accuracy degrades accordingly")
    Z = _march(E_sim, A_sim, full0, work.alpha, config.h, steps, memory)

    times = np.arange(steps + 1) * config.h
    # Copies, so that the trajectory does not pin the whole marched state.
    xs = Z[:, :n].copy()
    us = Z @ U.T
    es = Z[:, N:N + n].copy() if kind == "observer" else None
    if config.gate_first_input:
        us[0] = 0.0

    # Plant algebraic rows evaluated on the recorded (x, u); exact zero rows
    # of E reduce to 0 = (A x + B u)_row, resolved by the implicit solve.
    if base.r < n:
        ann = descriptor.annihilators(base.E, base.r, base.rank_tol)
        resid = np.linalg.norm(
            (base.A @ xs.T + base.B @ us.T).T @ ann.E_left.T, axis=1)
    else:
        resid = np.zeros(steps + 1)

    return Trajectory(times=times, x=xs, u=us, e=es,
                      algebraic_residual=resid, config=config,
                      controller=kind)


def tail_decay_exponent(traj: Trajectory, window: float = 0.25) -> float:
    """Least-squares slope of log||x|| versus log t over the trailing window.

    Power-law tails ||x|| ~ t^-alpha give a slope near -alpha; raises for
    trajectories that do not decay overall.
    """
    if not 0.0 < window < 1.0:
        raise InputError("window must be a fraction in (0, 1)")
    norms = np.linalg.norm(traj.x, axis=1)
    if norms[-1] >= norms[0] or norms[0] == 0.0:
        raise InputError("trajectory does not decay; no tail exponent")
    start = int(len(norms) * (1.0 - window))
    start = max(start, 1)  # avoid log(0) at t=0
    t = traj.times[start:]
    y = norms[start:]
    mask = y > 0
    if mask.sum() < 2:
        raise InputError("not enough positive samples in the tail window")
    slope = np.polyfit(np.log(t[mask]), np.log(y[mask]), 1)[0]
    return float(slope)
