"""Singular descriptor models and direct pencil analysis.

A descriptor system couples differential and algebraic equations through a
(possibly singular) matrix E on the derivative side:

    E d^alpha x / dt^alpha = A x + B u,      y = C x,    0 < alpha < 2.

This module decides the three classical pencil properties -- regularity
by a normalised rank probe of sE - A, the finite spectrum by QZ (Moler &
Stewart, SIAM J. Numer. Anal. 10, 1973), impulse-freeness by a finite count
equal to rank E, and fractional-sector stability -- with fixed thresholds.
Every rank of E in the package is decided by :func:`numerical_rank`, at
``RANK_TOL``; no caller sets it.
It also factors E by one SVD into the null-space bases and row-space
factors (:func:`annihilators`) that the LMI criteria pose their variables
on and the simulator projects an inconsistent initial state with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InputError, NonsingularMatrixError

__all__ = [
    "DescriptorSystem",
    "AnnihilatorPair",
    "AdmissibilityReport",
    "numerical_rank",
    "annihilators",
    "analyze",
    "system_from_dict",
]

#: Singular values above this times the largest count toward a rank.
RANK_TOL = 1e-9

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


def numerical_rank(M) -> int:
    """Rank of ``M`` counted as singular values above ``RANK_TOL * sigma_max``.

    The one rank decision of the package.  The zero matrix has rank 0.
    Raises :class:`InputError` for non-finite input.
    """
    M = _as_matrix(M, "M")
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


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
        object.__setattr__(self, "r", numerical_rank(E))

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
                "alpha": self.alpha}
        data.update(kwargs)
        return DescriptorSystem(**data)


def system_from_dict(doc: dict) -> DescriptorSystem:
    """Build a system from ``{"E": [[...]], "A": ..., "B": ..., "C": ..., "alpha": ...}``."""
    try:
        return DescriptorSystem(
            E=doc["E"], A=doc["A"], B=doc["B"], C=doc["C"],
            alpha=float(doc["alpha"]))
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


def annihilators(E, r: int | None = None) -> AnnihilatorPair:
    """Null-space bases and row-space factors of a singular E, from one SVD.

    Raises :class:`NonsingularMatrixError` when r == n: a nonsingular E means
    the plant is an ordinary fractional-order system and the singular-system
    criteria do not apply.
    """
    E = _as_matrix(E, "E")
    n = E.shape[0]
    if r is None:
        r = numerical_rank(E)
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


def analyze_pair(E, A, alpha) -> AdmissibilityReport:
    """Admissibility analysis of a bare pair {E, A} at order ``alpha``."""
    E = _as_matrix(E, "E")
    A = _as_matrix(A, "A")
    if A.shape != E.shape:
        raise InputError("E and A must have equal shape")
    r = numerical_rank(E)
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
    return analyze_pair(sys.E, sys.A, sys.alpha)
