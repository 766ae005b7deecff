"""Answer checks that do not share a code path with the code under test.

Nothing here imports ``sfos``.  Closed loops are rebuilt from the returned
gains, spectra come from QZ (``scipy.linalg.eig`` on the pencil), plant
verdicts come from the block construction in :mod:`plants`, and
trajectories are compared with closed forms.  Every check returns ``None``
on success or a short failure reason.

Reasons starting with ``pencil:`` are verdict, degree or spectrum errors of
pencil analysis: the known determinant-interpolation defect.  Every other
reason marks an answer the benchmark does not expect to be wrong.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.special as sps
from scipy.optimize import linear_sum_assignment

#: A QZ pair (a, b) is an infinite eigenvalue when |b| / |(a, b)| is below this.
INFINITE_TOL = 1e-8
#: Both a and b below this (relative to the pencil norm) means a singular pencil.
SINGULAR_TOL = 1e-12
#: Relative spectrum agreement required of pencil analysis.
SPECTRUM_TOL = 1e-6
#: Relative error allowed against the Mittag-Leffler closed forms at h = 1e-3.
#: The first-order Grünwald-Letnikov scheme is at 1.7e-4 for the scalar
#: relaxation at t = 1; the tolerance leaves a factor of about 6.
CLOSED_FORM_TOL = 1e-3
#: The same for the short runs, whose slow rates reach 3 and whose error is
#: read from t = 0.5 on; the worst seen is 7e-4.
SHORT_SIM_TOL = 5e-3
#: Algebraic-row residual allowed, relative to max(||x0||, 1).
RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Closed loops, rebuilt from gains
# ---------------------------------------------------------------------------

def lift_plant(E, A, B, C, k):
    """Chained order-alpha/k realization: diag(E, I, ...), block companion."""
    n = E.shape[0]
    N = k * n
    El = np.eye(N)
    El[:n, :n] = E
    Al = np.zeros((N, N))
    for i in range(k - 1):
        Al[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    Al[(k - 1) * n:, :n] = A
    Bl = np.zeros((N, B.shape[1]))
    Bl[(k - 1) * n:] = B
    Cl = np.zeros((C.shape[0], N))
    Cl[:, :n] = C
    return El, Al, Bl, Cl


def observer_loop(E, A, B, C, K, L):
    """(state, error) closed loop of estimated-state feedback."""
    n = E.shape[0]
    Z = np.zeros((n, n))
    BK = B @ K
    return (np.block([[E, Z], [Z, E]]),
            np.block([[A + BK, -BK], [Z, A + L @ C]]))


def output_loop(E, A, B, C, F):
    return E, A + B @ F @ C


# ---------------------------------------------------------------------------
# Spectral checks
# ---------------------------------------------------------------------------

def qz_finite_eigenvalues(E, A):
    """Finite eigenvalues of the pencil sE - A by QZ, or None if singular."""
    ab = sla.eig(A, E, left=False, right=False, homogeneous_eigvals=True)
    a, b = ab[0], ab[1]
    size = np.hypot(np.abs(a), np.abs(b))
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(E, 2), 1.0)
    if np.any(size <= SINGULAR_TOL * scale):
        return None
    finite = np.abs(b) > INFINITE_TOL * size
    return a[finite] / b[finite]


def sector_check(E, A, order, min_finite):
    """Closed loop admissible at ``order``: the QZ spectrum is all in the sector.

    A regular pencil has at most rank(E) finite eigenvalues, and exactly
    that many when it is impulse-free.  A lifted loop keeps infinite modes
    that the lift adds, so it is held to ``min_finite``, the finite count
    of an impulse-free loop at the original order.
    """
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(A))):
        return "not_finite"
    eigs = qz_finite_eigenvalues(E, A)
    if eigs is None:
        return "qz_singular_pencil"
    if len(eigs) < min_finite:
        return f"qz_finite_count {len(eigs)} < {min_finite}"
    half = order * np.pi / 2.0
    if len(eigs) and np.min(np.abs(np.angle(eigs))) <= half:
        return "qz_outside_sector"
    return None


def match_spectra(got, expected):
    """Largest distance between two spectra under the best pairing, relative."""
    got = np.asarray(got, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if got.shape != expected.shape:
        return np.inf
    if expected.size == 0:
        return 0.0
    D = np.abs(got[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(D)
    return float(D[rows, cols].max() / max(np.abs(expected).max(), 1.0))


def pencil_report_check(report, plant):
    """Compare an admissibility report (as a dict) with the block construction."""
    if not report["regular"]:
        return "pencil:regular"
    if report["pencil_degree"] != plant.r:
        return "pencil:degree"
    if not report["impulse_free"]:
        return "pencil:impulse_free"
    if bool(report["admissible"]) != plant.stable:
        return "pencil:verdict"
    got = [complex(re, im) for re, im in report["finite_eigenvalues"]]
    if match_spectra(got, plant.eigs) > SPECTRUM_TOL:
        return "pencil:spectrum"
    return None


# ---------------------------------------------------------------------------
# Trajectory checks
# ---------------------------------------------------------------------------

def relaxation_error(times, x, at, lam=1.0):
    """Worst relative error of D^(1/2) x = -lam x, x(0) = 1, at the given times.

    The exact solution is E_{1/2}(-lam sqrt(t)) = erfcx(lam sqrt(t)).
    """
    h = times[1] - times[0]
    worst = 0.0
    for t in at:
        exact = sps.erfcx(lam * np.sqrt(t))
        got = x[int(round(t / h))]
        worst = max(worst, abs(got - exact) / exact)
    return worst


def algebraic_residual(E, A, B, xs, us):
    """Largest norm of the algebraic rows of E, evaluated at (x, u)."""
    left = sla.null_space(E.T).T
    if left.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm((xs @ A.T + us @ B.T) @ left.T, axis=1)))


def loop_trajectory_check(E, A, B, xs, us):
    """Finite, decaying, and on the algebraic constraint manifold."""
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(us))):
        return "not_finite"
    n0 = np.linalg.norm(xs[0])
    if not np.linalg.norm(xs[-1]) < n0:
        return "final_norm_ratio"
    if algebraic_residual(E, A, B, xs, us) > RESIDUAL_TOL * max(n0, 1.0):
        return "algebraic_residual"
    return None


def closed_form_error(plant, times, xs):
    """Worst relative error of an open-loop run against its closed form."""
    worst = 0.0
    for t in (0.5, 1.0, times[-1]):
        i = int(round(t / (times[1] - times[0])))
        exact = plant.exact_state(times[i])
        worst = max(worst, float(np.linalg.norm(xs[i] - exact)
                                 / max(np.linalg.norm(exact), 1e-3)))
    return worst
