"""Time-domain simulation by an implicit Grünwald-Letnikov scheme.

The Caputo derivative of order 0 < alpha < 2 is realized discretely as

    D^alpha x(t_s)  ~  h^-alpha * sum_{j=0}^{s} w_j (x_{s-j} - x_0),

with the binomial weights w; at alpha = 1 they are (1, -1, 0, 0, ...), and
the march is backward Euler.  Subtracting the initial value makes the
operator vanish on constants, matching the Caputo (not Riemann-Liouville)
initialization; above order 1 its data are x(0) = x0 and x'(0) = 0
(Diethelm, *The Analysis of Fractional Differential Equations*, LNM 2004,
Springer 2010).  Each step solves the implicit linear system

    (h^-alpha E - A) x_s = h^-alpha E (x_0 - sum_{j=1}^{s} w_j (x_{s-j} - x_0)),

which marches singular descriptor pairs directly: rows in the left null
space of E reduce to the algebraic constraint 0 = (A x_s)_row enforced
exactly by the solve, so no slow/fast splitting is needed (and pairs that
are not strictly impulse-free, such as lifted representations, integrate
without special-casing).  A loop is marched on the plant at alpha, or on
the lift by k that its gains are sized for (:func:`sfos.lifting.coordinates`),
at order alpha/k: k products of those weights are the weights at alpha.

The history sum is exact (no truncation or kernel approximation) and costs
O(N log^2 N) over N steps, by the online convolution of Hairer, Lubich &
Schlichte (SIAM J. Sci. Stat. Comput. 6(3), 1985): the steps are split in
two recursively, after a whole number of leaves, and once the first part of
a range is marched its contribution to every step of the second (its far
field) is added at once, by one FFT convolution or, for ranges of at most
``DIRECT_STEPS`` (512) steps, by one product with a block of the weights.
Below that size the FFT's fixed cost of about 20-40 us a call outweighs the
direct product's flops at every state count measured, 1 to 400.  The lags
inside a leaf of at most m steps (64 up to 6 states, 32 at 12, 8 at 48, 2
at 192, 1 from 385 on) form a block lower-triangular Toeplitz system with
identity diagonal blocks.  Its inverse times the step matrix is built once
per march as one (m*n) x (m*n) kernel of at most ``KERNEL_ROWS`` rows (n
rows from 385 states on), block lower-triangular Toeplitz as well, so a
whole leaf is taken from its far fields by one product with the kernel's
first ceil(m/2) block columns: its diagonal block times both halves of the
far fields, and the block below it times the upper half.  That reads half
the kernel, at about m*n^2/2 flops a step.  On one core of a 2-CPU x86-64
host a 20 000-step march costs about 0.4 us a step at 1 state, 1.0 us at 6,
2 us at 12, 4.5 us at 24 and 9 us at 48; from 96 states on, where a leaf
holds 4 steps or fewer, about 20 us at 96, 40 us at 192 and 90 us at 400,
where the FFT far fields take over half of each step
(``scripts/march_sweep.py``).  A loop that overflows is checked once, after
the march: rows are final once taken, so the first row that is not finite
names the step where it went wrong.

All closed loops handled here are autonomous: the controller is folded in
through :func:`sfos.synthesis.closed_loop`, which builds the same pair that
verification analyzes, and the physical input u(t) is read off the whole
trajectory afterwards through that function's input readout.

An initial state that violates the algebraic rows is either projected onto
them, keeping its row-space coordinates (``consistency="project"``, the
default, with a warning), or refused (``"strict"``).  The projection takes
the rank of E from :func:`sfos.descriptor.numerical_rank` and judges its
fast block invertible at the same threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import descriptor, lifting, synthesis
from .errors import InputError
from .synthesis import ObserverDesign, OutputFeedbackDesign

__all__ = [
    "SimConfig",
    "Trajectory",
    "gl_weights",
    "simulate",
    "tail_decay_exponent",
    "write_csv",
]


def write_csv(path, names, *columns):
    """Write the columns (1-D arrays or 2-D blocks of them) side by side as CSV.

    One header line of ``names``, then every value at ``%.12g``: the bytes
    of ``np.savetxt(..., delimiter=",", comments="", fmt="%.12g")``.  The
    row format is repeated for the whole block and applied by one ``%``,
    not one a row, which halves the time for a 20001 x 4 block.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.12g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(row * len(data) % tuple(data.ravel().tolist()))


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grünwald-Letnikov binomial weights for order ``alpha``.

    w_0 = 1 and w_j = (1 - (alpha+1)/j) w_{j-1}; these are the coefficients
    of (1 - z)^alpha, so order 1 gives (1, -1, 0, 0, ...).
    """
    if not 0.0 < alpha < 2.0:
        raise InputError(f"weights are defined for orders in (0, 2), got {alpha}")
    if count < 1:
        raise InputError("count must be at least 1")
    w = np.empty(count)
    w[0] = 1.0
    w[1:] = np.cumprod(1.0 - (alpha + 1.0) / np.arange(1, count))
    return w


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon, and initial data.

    ``consistency`` controls inconsistent initial conditions: "project"
    (default; warn and repair the fast components) or "strict" (raise).
    ``gate_first_input`` zeroes the reported input at t=0, which some
    benchmark scenarios require for a consistent start.
    """

    h: float
    T: float
    x0: np.ndarray
    xhat0: np.ndarray | None = None
    consistency: str = "project"
    gate_first_input: bool = False

    def __post_init__(self):
        descriptor._as_floats(self.h, "h")
        descriptor._as_floats(self.T, "T")
        if self.h <= 0 or self.T < self.h:
            raise InputError("need h > 0 and T >= h")
        if self.consistency not in ("project", "strict"):
            raise InputError("consistency must be 'project' or 'strict'")
        if self.x0 is None:
            raise InputError("x0 is required: the initial pseudo-state")
        for name in ("x0", "xhat0"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, descriptor._as_floats(value, name).ravel())

    def to_dict(self) -> dict:
        return {"h": self.h, "T": self.T, "x0": self.x0.tolist(),
                "xhat0": None if self.xhat0 is None else self.xhat0.tolist(),
                "consistency": self.consistency,
                "gate_first_input": self.gate_first_input}


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run.

    ``x`` is N x n (original pseudo-state), ``u`` N x m, ``e`` N x n
    observation error (None without an observer), ``algebraic_residual`` the
    per-step norm of the plant's algebraic rows evaluated at (x, u) as
    marched (at t=0 with the input the loop applied, even when
    ``gate_first_input`` reports u[0] = 0).
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
        cols = [self.times, self.x, self.u]
        header = ["t"]
        header += [f"x{i+1}" for i in range(self.x.shape[1])]
        header += [f"u{i+1}" for i in range(self.u.shape[1])]
        if self.e is not None:
            cols.append(self.e)
            header += [f"e{i+1}" for i in range(self.e.shape[1])]
        write_csv(path, header, *cols)

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


# ---------------------------------------------------------------------------
# Core integrator
# ---------------------------------------------------------------------------

#: Most rows of the leaf kernel, 1.2 MB, up to 384 states (see
#: :func:`_leaf_steps`).
KERNEL_ROWS = 384
#: Far fields of recursion nodes up to this many steps are summed by one
#: direct product with a block of the weights.  Up to 512 steps the FFT's
#: fixed cost outweighs the direct product's O(size^2) flops at any state
#: count (on one core: 36 against 64 us a node at 6 states, 31 against 56 us
#: at 12, 1.0 against 2.0 ms at 400); at 1024 steps the FFT wins up to 48.
DIRECT_STEPS = 512


def _leaf_steps(n: int) -> int:
    """Longest run of steps taken as one leaf of :func:`_halve` for n states.

    A leaf costs about m*n^2 flops a step through the (m*n) x (m*n) kernel,
    so the leaf length m shrinks as n grows: at most 64 steps, and never
    more than ``KERNEL_ROWS`` kernel rows while n <= ``KERNEL_ROWS``.  From
    there on m = 1, and the kernel is the n x n step matrix G itself.
    """
    return min(64, max(1, KERNEL_ROWS // n))


def _march(E, A, x0, alpha, h, steps):
    """March the autonomous pair E D^alpha x = A x from x0; returns N+1 x n."""
    # Imported here: only a march needs it, and far_field closes over it.
    import scipy.fft as sfft
    n = E.shape[0]
    ha = h ** (-alpha)
    step_matrix = ha * E - A
    sv = np.linalg.svd(step_matrix, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise InputError(
            "implicit step matrix h^-alpha E - A is numerically singular; "
            "try a smaller step size h")
    # Step s solves D[s] = b - G (F[s] + sum_{lo<=i<s} w_{s-i} D[i]) inside a
    # leaf [lo, hi), with F[s] its far field.
    G = np.linalg.solve(step_matrix, ha * E)
    m = _leaf_steps(n)
    w = gl_weights(alpha, max(steps + 1, m))
    # Row j holds x_j - x0 once step j is taken.  Until then it accumulates
    # the far field of step j: its history sum over the steps before j's leaf.
    D = np.zeros((steps + 1, n))
    spectra = {}                      # rfft of w[:size], by node size
    lag_weights = {}                  # w by lag, by node size (a node splits
                                      # at a point set by its size)

    def far_field(lo, mid, hi):
        # D[s] += sum_{i in [lo, mid)} w_{s-i} D[i] for s in [mid, hi).
        size = hi - lo
        if size <= DIRECT_STEPS:
            if size not in lag_weights:
                lag_weights[size] = w[(mid - lo) + np.arange(hi - mid)[:, None]
                                      - np.arange(mid - lo)]
            D[mid:hi] += lag_weights[size] @ D[lo:mid]
            return
        # A cyclic length >= hi - lo wraps only onto outputs below mid - lo.
        if size not in spectra:
            length = sfft.next_fast_len(size, real=True)
            spectra[size] = (length, sfft.rfft(w[:size], length)[:, None])
        length, wf = spectra[size]
        f = sfft.rfft(D[lo:mid], length, axis=0)
        f *= wf
        D[mid:hi] += sfft.irfft(f, length, axis=0)[mid - lo:size]

    def leaf(lo, hi):
        # The leaf's steps at once, from their far fields F.  The kernel is
        # [[K11, 0], [K21, K11]], K11 its first ceil(m/2) steps, so its zero
        # block is never multiplied: one product of K11 with both halves of F,
        # the lower half zero-padded (K11 is block lower triangular, so the
        # padding reaches no row kept), and one of K21 with the upper half.
        # A shorter leaf is solved exactly by the leading blocks.
        x = D[lo:hi].reshape(-1)
        if x.size <= top:
            x[:] = c[:x.size] - K11[:x.size, :x.size] @ x
            return
        rows = x.size - top
        pair[0] = x[:top]
        pair[1, :rows] = x[top:]
        pair[1, rows:] = 0.0
        both = pair @ K11.T
        x[:top] = c[:top] - both[0]
        x[top:] = c[top:top + rows] - both[1, :rows] - K21[:rows] @ pair[0]

    # The kernel build overflows along with a loop that overflows within one
    # leaf; that is reported below as the first step that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, c = _leaf_kernel(G, G @ x0 - x0, w[:m])
        top = -(-m // 2) * n
        K11 = kernel[:top, :top].copy()
        K21 = kernel[top:, :top].copy()
        del kernel
        pair = np.empty((2, top))
        _halve(1, steps + 1, m, leaf, far_field)
    # Rows are final once their leaf is taken, so the first row that is not
    # finite is the first step that went wrong.
    finite = np.isfinite(D).all(axis=1)
    if not finite.all():
        t = int(np.argmin(finite)) * h
        raise InputError(
            f"the trajectory stopped being finite at t = {t:.6g}; the "
            f"loop is likely unstable, or the step size h is too large")
    D += x0
    return D


def _leaf_kernel(G, b, w):
    """A leaf's steps as one affine map of their far fields.

    Inside a leaf of m = len(w) steps, step t solves
    D_t = b - G (F_t + sum_{j=1..t} w_j D_{t-j}), with F_t its far field: a
    block lower-triangular Toeplitz system with blocks I and G w_j.  Its
    inverse is block Toeplitz too, with blocks Q_0 = I and
    Q_k = -G sum_{j=1..k} w_j Q_{k-j}.  So D = c - K F, where c (m*n) solves
    the leaf with no far field and block (t, j) of the (m*n) x (m*n) kernel
    K is R_{t-j} = Q_{t-j} G, that is R_0 = G and
    R_k = -G sum_{j=1..k} w_j R_{k-j}, and zero for j > t.  Each weighted
    sum is one product with the stack of the R_j flattened to rows, and K
    is gathered from that stack by lag at once.  Returns (K, c).
    """
    m, n = len(w), G.shape[0]
    R = np.zeros((m + 1, n, n))       # R[m] stays zero: the blocks j > t
    R[0] = G
    stack = R.reshape(m + 1, n * n)
    c = np.empty((m, n))
    c[0] = b
    for k in range(1, m):
        R[k] = -G @ np.dot(w[k:0:-1], stack[:k]).reshape(n, n)
        c[k] = b - G @ (w[k:0:-1] @ c[:k])
    lags = np.arange(m)[:, None] - np.arange(m)
    lags[lags < 0] = m
    kernel = R[lags].transpose(0, 2, 1, 3).reshape(m * n, m * n)
    return kernel, c.ravel()


def _halve(lo, hi, leaf_steps, leaf, far_field):
    """Run steps [lo, hi): each half, with the first half's far field between.

    Ranges of at most ``leaf_steps`` steps are leaves.  Longer ranges split
    after a whole number of leaves, so that every leaf but the last of the
    march is full.  Module-level rather than nested in :func:`_march`, so
    that no closure refers to itself: such a reference cycle would keep the
    march's arrays alive until the cyclic garbage collector happens to run.
    """
    if hi - lo <= leaf_steps:
        leaf(lo, hi)
        return
    leaves = -(-(hi - lo) // leaf_steps)
    mid = lo + leaf_steps * ((leaves + 1) // 2)
    _halve(lo, mid, leaf_steps, leaf, far_field)
    far_field(lo, mid, hi)
    _halve(mid, hi, leaf_steps, leaf, far_field)


def _project_consistent(E, A, x0, mode):
    """Repair the fast components of x0 so the algebraic rows (if any) hold at t=0."""
    ann = descriptor.annihilators(E)
    residual = float(np.linalg.norm(ann.E_left @ (A @ x0)))
    scale = max(float(np.linalg.norm(A @ x0)), 1.0)
    if residual <= 1e-9 * scale:
        return x0
    if mode == "strict":
        raise InputError(
            f"initial pseudo-state violates the algebraic constraint "
            f"(residual {residual:.3e}); provide a consistent x0")
    # Keep the row-space coordinates s = V1^T x0 and solve the algebraic rows
    # E_left A (V1 s + E_right f) = 0 for the null-space ones f.  The
    # (n-r) x (n-r) block E_left A E_right is invertible exactly when the
    # pair is impulse-free, judged at the rank threshold of E.
    left_A = ann.E_left @ A
    fast = left_A @ ann.E_right
    sv = np.linalg.svd(fast, compute_uv=False)
    if sv[-1] <= descriptor.RANK_TOL * max(sv[0], 1.0):
        warnings.warn("initial state inconsistent but the pair is not "
                      "impulse-free; projection skipped")
        return x0
    slow = ann.V1 @ (ann.V1.T @ x0)
    x0p = slow + ann.E_right @ np.linalg.solve(fast, -(left_A @ slow))
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

    ``sys`` is a DescriptorSystem of any order in (0, 2).  ``design`` is
    None, an ObserverDesign / OutputFeedbackDesign, or a tuple
    ("state", K) / ("observer", K, L) / ("output", F), marched in the
    coordinates of :func:`sfos.lifting.coordinates`; the trajectory reports
    the plant's own state.
    """
    k, ctrl = lifting.coordinates(sys, _normalize_controller(design))
    work = sys if k == 1 else lifting.lift(sys, k).lifted
    n, N = sys.n, work.n

    x0 = config.x0
    if x0.size != n:
        raise InputError(f"x0 must have length {n}")
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

    full0 = _project_consistent(E_sim, A_sim, full0, config.consistency)

    steps = int(round(config.T / config.h))
    try:
        Z = _march(E_sim, A_sim, full0, work.alpha, config.h, steps)
    except MemoryError:
        raise InputError(
            f"h = {config.h} and T = {config.T} make {steps} steps, more "
            "than memory holds; take a larger h or a shorter T") from None

    times = np.arange(steps + 1) * config.h
    # Copies, so that the trajectory does not pin the whole marched state.
    xs = Z[:, :n].copy()
    us = Z @ U.T
    es = Z[:, N:N + n].copy() if kind == "observer" else None

    # Plant algebraic rows evaluated on the marched (x, u), before any input
    # gating; exact zero rows of E reduce to 0 = (A x + B u)_row, resolved by
    # the implicit solve.  A nonsingular E has none, and every residual is 0.
    ann = descriptor.annihilators(sys.E, sys.r)
    resid = np.linalg.norm(
        (sys.A @ xs.T + sys.B @ us.T).T @ ann.E_left.T, axis=1)
    if config.gate_first_input:
        us[0] = 0.0

    return Trajectory(times=times, x=xs, u=us, e=es,
                      algebraic_residual=resid, config=config,
                      controller=kind)


#: Trailing fraction of a trajectory that :func:`tail_decay_exponent` fits.
TAIL_WINDOW = 0.25


def tail_decay_exponent(traj: Trajectory) -> float:
    """Least-squares slope of log||x|| versus log t over the last TAIL_WINDOW.

    Power-law tails ||x|| ~ t^-alpha give a slope near -alpha; raises for
    trajectories that do not decay overall.
    """
    norms = np.linalg.norm(traj.x, axis=1)
    if norms[-1] >= norms[0] or norms[0] == 0.0:
        raise InputError("trajectory does not decay; no tail exponent")
    start = int(len(norms) * (1.0 - TAIL_WINDOW))
    start = max(start, 1)  # avoid log(0) at t=0
    t = traj.times[start:]
    y = norms[start:]
    mask = y > 0
    if mask.sum() < 2:
        raise InputError("not enough positive samples in the tail window")
    slope = np.polyfit(np.log(t[mask]), np.log(y[mask]), 1)[0]
    return float(slope)
