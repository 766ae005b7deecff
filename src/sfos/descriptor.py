"""Singular descriptor models and direct pencil analysis.

A descriptor system couples differential and algebraic equations through a
(possibly singular) matrix E on the derivative side:

    E d^alpha x / dt^alpha = A x + B u,      y = C x,    0 < alpha < 2.

This module decides the three classical pencil properties -- regularity
by a normalised rank probe of sE - A, the finite spectrum by QZ (Moler &
Stewart, SIAM J. Numer. Anal. 10, 1973), impulse-freeness by a finite count
equal to rank E, and fractional-sector stability -- with fixed thresholds,
and provides the slow/fast decomposition used by the simulator and (through
its annihilator bases) by the LMI synthesis machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InputError, NonsingularMatrixError, NotImpulseFreeError

__all__ = [
    "DescriptorSystem",
    "AnnihilatorPair",
    "Decomposition",
    "AdmissibilityReport",
    "numerical_rank",
    "annihilators",
    "analyze",
    "decompose",
    "system_from_dict",
]

#: Default relative tolerance for numerical rank decisions.
DEFAULT_RANK_TOL = 1e-9

#: Regularity threshold for sigma_min(sE - A) / (|s| ||E|| + ||A||), probed
#: at the angles below (radians).  Singular pencils probe below 1e-15;
#: regular ones went down to 4e-13 (nearly singular fast block, columns
#: scaled by 10^+-3).
REGULARITY_PROBE_TOL = 1e-13
_PROBE_ANGLES = (1.0, 2.0, 0.5)

#: A QZ eigenvalue pair (a, b) is infinite when |b| <= this * |(a, b)|.
INFINITE_EIG_TOL = 1e-8

#: Eigenvalues whose sector angle sits within this distance of the boundary
#: |arg(lam)| = alpha*pi/2 are classified unstable (the sector is open).
ANGLE_BOUNDARY_TOL = 1e-9


def _as_matrix(M, name):
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a rectangular matrix of numbers") from None
    if M.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def numerical_rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of ``M`` counted as singular values above ``tol * sigma_max``.

    The zero matrix has rank 0.  Raises :class:`InputError` for non-finite
    input or non-positive tolerance.
    """
    M = _as_matrix(M, "M")
    if tol <= 0:
        raise InputError("tol must be positive")
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable plant data (E, A, B, C) with fractional order ``alpha``.

    ``r`` is the numerical rank of E, computed at construction.  E may be
    nonsingular (r == n); operations that need a singular E say so.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    alpha: float
    rank_tol: float = DEFAULT_RANK_TOL
    r: int = field(init=False)

    def __post_init__(self):
        E = _as_matrix(self.E, "E")
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        n = E.shape[0]
        if E.shape != (n, n) or A.shape != (n, n):
            raise InputError("E and A must be square and of equal size")
        if B.shape[0] != n:
            raise InputError("B must have n rows")
        if C.shape[1] != n:
            raise InputError("C must have n columns")
        if not 0.0 < self.alpha < 2.0:
            raise InputError(f"alpha must lie in (0, 2), got {self.alpha}")
        for name, M in (("E", E), ("A", A), ("B", B), ("C", C)):
            if M is getattr(self, name):
                M = M.copy()  # freeze our own copy, never the caller's array
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        object.__setattr__(self, "r", numerical_rank(E, self.rank_tol))

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def with_matrices(self, **kwargs) -> "DescriptorSystem":
        """Copy with some of E, A, B, C, alpha replaced."""
        data = {"E": self.E, "A": self.A, "B": self.B, "C": self.C,
                "alpha": self.alpha, "rank_tol": self.rank_tol}
        data.update(kwargs)
        return DescriptorSystem(**data)


def system_from_dict(doc: dict, rank_tol: float = DEFAULT_RANK_TOL) -> DescriptorSystem:
    """Build a system from ``{"E": [[...]], "A": ..., "B": ..., "C": ..., "alpha": ...}``."""
    try:
        return DescriptorSystem(
            E=doc["E"], A=doc["A"], B=doc["B"], C=doc["C"],
            alpha=float(doc["alpha"]),
            rank_tol=rank_tol,
        )
    except KeyError as exc:
        raise InputError(f"system document is missing field {exc}") from exc


@dataclass(frozen=True)
class AnnihilatorPair:
    """Null-space bases and row-space factors of E from one SVD.

    ``E_right`` is n x (n-r) with E @ E_right = 0; ``E_left`` is (n-r) x n
    with E_left @ E = 0.  ``U1`` and ``V1`` (n x r) and ``sigma`` (the r
    nonzero singular values) factor E = U1 diag(sigma) V1^T, the part of E
    that the LMI criteria pose their Lyapunov variable on.  Any full-rank
    bases would do for the criteria; orthonormal columns keep the assembled
    problems well conditioned.
    """

    E_right: np.ndarray
    E_left: np.ndarray
    U1: np.ndarray
    sigma: np.ndarray
    V1: np.ndarray


def annihilators(E, r: int | None = None, tol: float = DEFAULT_RANK_TOL) -> AnnihilatorPair:
    """Null-space bases and row-space factors of a singular E, from one SVD.

    Raises :class:`NonsingularMatrixError` when r == n: a nonsingular E means
    the plant is an ordinary fractional-order system and the singular-system
    criteria do not apply.
    """
    E = _as_matrix(E, "E")
    n = E.shape[0]
    if r is None:
        r = numerical_rank(E, tol)
    if r >= n:
        raise NonsingularMatrixError(
            "E is nonsingular; use the standard (non-singular) FOS path")
    U, sv, Vt = np.linalg.svd(E)
    parts = {"E_right": Vt[r:, :].T, "E_left": U[:, r:].T,
             "U1": U[:, :r], "sigma": sv[:r], "V1": Vt[:r, :].T}
    for name, M in parts.items():
        parts[name] = M = M.copy()
        M.flags.writeable = False
    return AnnihilatorPair(**parts)


@dataclass(frozen=True)
class Decomposition:
    """Slow/fast coordinates: E = M diag(I_r, 0) N and A = M [[A1,A2],[A3,A4]] N.

    ``Aa``/``Ba`` drive the slow (differential) state, ``Ab``/``Bb`` recover
    the fast (algebraic) state.  ``cond_A4`` reports how safely the fast
    block was inverted.
    """

    M: np.ndarray
    N: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    Aa: np.ndarray
    Ab: np.ndarray
    Ba: np.ndarray
    Bb: np.ndarray
    cond_A4: float
    r: int


def _decompose_pair(E, A, B, r, tol):
    """Slow/fast split of a pair {E, A} with input matrix B."""
    n = E.shape[0]
    U, sv, Vt = np.linalg.svd(E)
    scale = np.concatenate([sv[:r], np.ones(n - r)])
    M = U @ np.diag(scale)
    N = Vt
    Minv = np.diag(1.0 / scale) @ U.T
    At = Minv @ A @ Vt.T
    Bt = Minv @ B
    A1, A2 = At[:r, :r], At[:r, r:]
    A3, A4 = At[r:, :r], At[r:, r:]
    B1, B2 = Bt[:r, :], Bt[r:, :]
    if n - r:
        sv4 = np.linalg.svd(A4, compute_uv=False)
        if sv4[-1] <= tol * max(sv4[0], 1.0):
            raise NotImpulseFreeError(
                "fast block A4 is numerically singular; the pair is not "
                "impulse-free and the slow/fast reduction is undefined")
        cond_A4 = float(sv4[0] / sv4[-1])
        A4inv_A3 = np.linalg.solve(A4, A3)
        A4inv_B2 = np.linalg.solve(A4, B2)
    else:
        cond_A4 = 1.0
        A4inv_A3 = np.zeros((0, r))
        A4inv_B2 = np.zeros((0, B.shape[1]))
    Aa = A1 - A2 @ A4inv_A3
    Ba = B1 - A2 @ A4inv_B2
    Ab = -A4inv_A3
    Bb = -A4inv_B2
    return Decomposition(M=M, N=N, A1=A1, A2=A2, A3=A3, A4=A4, B1=B1, B2=B2,
                         Aa=Aa, Ab=Ab, Ba=Ba, Bb=Bb, cond_A4=cond_A4, r=r)


def decompose(sys: DescriptorSystem) -> Decomposition:
    """Slow/fast decomposition of a regular, impulse-free system.

    Raises :class:`NotImpulseFreeError` if the fast block cannot be inverted.
    """
    return _decompose_pair(sys.E, sys.A, sys.B, sys.r, sys.rank_tol)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the pencil analysis.

    ``min_angle_margin`` is min over finite eigenvalues of
    |arg(lam)| - alpha*pi/2; a finite eigenvalue at zero contributes
    -alpha*pi/2 (the sector excludes the origin).  With no finite
    eigenvalues the margin is +inf and the pair is vacuously stable.
    """

    regular: bool
    impulse_free: bool
    stable: bool
    admissible: bool
    finite_eigenvalues: tuple
    min_angle_margin: float
    pencil_degree: int
    alpha: float

    def to_dict(self) -> dict:
        return {
            "regular": self.regular,
            "impulse_free": self.impulse_free,
            "stable": self.stable,
            "admissible": self.admissible,
            "finite_eigenvalues": [[ev.real, ev.imag] for ev in self.finite_eigenvalues],
            "min_angle_margin": self.min_angle_margin,
            "pencil_degree": self.pencil_degree,
            "alpha": self.alpha,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def _sector_margin(eigs, alpha, zero_tol):
    """Smallest |arg(lam)| - alpha*pi/2 over the finite eigenvalues."""
    if len(eigs) == 0:
        return np.inf
    half = alpha * np.pi / 2.0
    scale = max(np.abs(eigs).max(), 1.0)
    margins = []
    for ev in eigs:
        if abs(ev) <= zero_tol * scale:
            margins.append(-half)  # origin is outside the open sector
        else:
            margins.append(abs(np.angle(ev)) - half)
    return float(min(margins))


def _is_regular(E, A) -> bool:
    """Whether det(sE - A) is not identically zero.

    The probe ratio vanishes at every s for a singular pencil and at finitely
    many s for a regular one.  Radii 1, ||A||/||E|| and their geometric mean
    cover badly scaled spectra; the first probe above the threshold decides.
    """
    if E.shape[0] == 0:
        return True
    nE, nA = np.linalg.norm(E, 2), np.linalg.norm(A, 2)
    ratio = nA / nE if nE > 0.0 else 1.0
    for rho, theta in zip((1.0, ratio, np.sqrt(ratio)), _PROBE_ANGLES):
        s = rho * np.exp(1j * theta)
        smin = np.linalg.svd(s * E - A, compute_uv=False)[-1]
        if smin > REGULARITY_PROBE_TOL * (rho * nE + nA):
            return True
    return False


def analyze_pair(E, A, alpha, rank_tol: float = DEFAULT_RANK_TOL) -> AdmissibilityReport:
    """Admissibility analysis of a bare pair {E, A} at order ``alpha``.

    ``rank_tol`` only sets the numerical rank of E.
    """
    E = _as_matrix(E, "E")
    A = _as_matrix(A, "A")
    if A.shape != E.shape:
        raise InputError("E and A must have equal shape")
    r = numerical_rank(E, rank_tol)
    regular = _is_regular(E, A)
    eigs, degree = (), -1
    if regular:
        alphas, betas = sla.eig(A, E, left=False, right=False,
                                homogeneous_eigvals=True)
        finite = np.abs(betas) > INFINITE_EIG_TOL * np.hypot(np.abs(alphas),
                                                              np.abs(betas))
        eigs = tuple(sorted(map(complex, alphas[finite] / betas[finite]),
                            key=lambda z: (z.real, z.imag)))
        degree = len(eigs)
    impulse_free = regular and degree == r

    margin = _sector_margin(np.array(eigs), alpha, zero_tol=1e-12) if regular else -np.inf
    stable = regular and margin > ANGLE_BOUNDARY_TOL
    return AdmissibilityReport(
        regular=regular,
        impulse_free=impulse_free,
        stable=stable,
        admissible=regular and impulse_free and stable,
        finite_eigenvalues=eigs,
        min_angle_margin=margin,
        pencil_degree=degree,
        alpha=alpha,
    )


def analyze(sys: DescriptorSystem) -> AdmissibilityReport:
    """Admissibility (regular, impulse-free, stable) of the zero-input system."""
    return analyze_pair(sys.E, sys.A, sys.alpha, sys.rank_tol)
