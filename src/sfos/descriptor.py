"""Singular descriptor models and direct pencil analysis.

A descriptor system couples differential and algebraic equations through a
(possibly singular) matrix E on the derivative side:

    E d^alpha x / dt^alpha = A x + B u,      y = C x,    0 < alpha < 2.

This module decides the three classical pencil properties -- regularity
by a normalised rank probe of sE - A, the finite spectrum by QZ (Moler &
Stewart, SIAM J. Numer. Anal. 10, 1973), impulse-freeness by a finite count
equal to rank E, and fractional-sector stability -- with fixed thresholds.
QZ is one call of LAPACK's ``dggev`` with the workspace that
``scipy.linalg.eig`` queries, so the eigenvalues are ``eig``'s, bit for
bit, without its wrapper.  The first regularity probe is judged against
||A||_F before ||A||_2 is computed; a probe that clears the larger norm
clears the smaller, so most regular pencils need no SVD of A.
Every rank of E in the package is decided by the rule of
:func:`numerical_rank`, at ``RANK_TOL``; no caller sets it.  Every number
from outside the package is read, and refused by name, by ``_as_floats``.
It also factors E by one SVD into the null-space bases and row-space
factors (:func:`annihilators`) that the LMI criteria pose their variables
on and the simulator projects an inconsistent initial state with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InputError

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

#: Relative slack on ||A||_F in the first probe's cheap bound, far above the
#: rounding of either norm, so that the bound never falls below ||A||_2.
_NORM_SLACK = 1e-12

#: A QZ eigenvalue pair (a, b) is infinite when |b| <= this * |(a, b)|.
INFINITE_EIG_TOL = 1e-8

#: Eigenvalues whose sector angle sits within this distance of the boundary
#: |arg(lam)| = alpha*pi/2 are classified unstable (the sector is open).
ANGLE_BOUNDARY_TOL = 1e-9


def _as_floats(value, name):
    """``value`` as a finite float array, else an :class:`InputError` naming it.

    The one reader of numbers from outside the package.  A value that is not
    numbers, holds an integer too large for a float (JSON reads a 401-digit
    literal as a Python int) or is not finite is refused as ``name``.
    """
    try:
        array = np.asarray(value, dtype=float)
    except OverflowError:
        raise InputError(f"{name} contains a number too large for a float") from None
    except (TypeError, ValueError):
        if isinstance(value, (list, tuple, np.ndarray)):
            raise InputError(f"{name} must be a rectangular matrix of numbers") from None
        raise InputError(f"{name} is not a number: {value!r}") from None
    if not np.isfinite(array).all():
        raise InputError(f"{name} must be finite"
                         + (f", got {value}" if array.ndim == 0 else ""))
    return array


def _as_matrix(M, name):
    M = _as_floats(M, name)
    if M.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    return M


def _rank(sv) -> int:
    """The rank rule: singular values (descending) above ``RANK_TOL * sigma_max``."""
    if sv.size == 0:
        return 0
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def _singular_values(M) -> np.ndarray:
    """Singular values of a checked matrix, descending; none for an empty one."""
    return np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)


def numerical_rank(M) -> int:
    """Rank of ``M`` counted as singular values above ``RANK_TOL * sigma_max``.

    The one rank decision of the package (:func:`analyze_pair` applies the
    same rule to the singular values it takes).  The zero matrix has rank
    0.  Raises :class:`InputError` for non-finite input.
    """
    return _rank(_singular_values(_as_matrix(M, "M")))


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable plant data (E, A, B, C) with fractional order ``alpha``.

    ``r`` is the numerical rank of E, computed at construction.  E may be
    nonsingular (r == n, an ordinary fractional-order system): its null
    spaces are empty.
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
        alpha = _as_floats(self.alpha, "alpha")
        if alpha.ndim or not 0.0 < alpha < 2.0:
            raise InputError(f"alpha must lie in (0, 2), got {self.alpha}")
        for name, M in (("E", E), ("A", A), ("B", B), ("C", C)):
            if M is getattr(self, name):
                M = M.copy()  # freeze our own copy, never the caller's array
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "r", _rank(_singular_values(E)))

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
            E=doc["E"], A=doc["A"], B=doc["B"], C=doc["C"], alpha=doc["alpha"])
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

    @property
    def T(self) -> "AnnihilatorPair":
        """The same SVD read as E^T's: U1 and V1 swap, the null bases transpose."""
        return AnnihilatorPair(E_right=self.E_left.T, E_left=self.E_right.T,
                               U1=self.V1, sigma=self.sigma, V1=self.U1)


def annihilators(E, r: int | None = None) -> AnnihilatorPair:
    """Null-space bases and row-space factors of E, from one SVD.

    ``r`` defaults to :func:`numerical_rank`.  A nonsingular E (r = n) gives
    empty null-space bases, n x 0 and 0 x n, and E = 0 empty row-space
    factors.
    """
    E = _as_matrix(E, "E")
    if r is None:
        r = numerical_rank(E)
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
    mags = np.abs(eigs)
    # The origin is outside the open sector; every other eigenvalue's
    # margin is at least -half.
    if (mags <= zero_tol * max(mags.max(), 1.0)).any():
        return float(-half)
    return float(np.abs(np.arctan2(eigs.imag, eigs.real)).min() - half)


def _probe(E, A, rho, theta) -> float:
    """sigma_min(sE - A) at s = rho * exp(i theta)."""
    s = rho * np.exp(1j * theta)
    return np.linalg.svd(s * E - A, compute_uv=False)[-1]


def _is_regular(E, A, nE) -> bool:
    """Whether det(sE - A) is not identically zero; ``nE`` is ||E||_2.

    The probe ratio sigma_min(sE - A) / (|s| ||E||_2 + ||A||_2) vanishes at
    every s for a singular pencil and at finitely many s for a regular one.
    Radii 1, ||A||/||E|| and their geometric mean cover badly scaled spectra;
    the first probe above the threshold decides.  The first probe is first
    held to ||A||_F (1 + ``_NORM_SLACK``) in place of ||A||_2: the Frobenius
    norm is never below the 2-norm, so a pencil that clears it clears the
    2-norm test too, and only a pencil that does not pays for ||A||_2 and
    meets the unchanged test, on the same sigma_min.
    """
    if E.shape[0] == 0:
        return True
    first = _probe(E, A, 1.0, _PROBE_ANGLES[0])
    # LAPACK's dlange scales its sum of squares, so ||A||_F is finite up to
    # ~1e308; np.linalg.norm(A) squares the entries and overflows (with a
    # RuntimeWarning) from about 1e154.
    nA_bound = sla.lapack.dlange("f", A) * (1.0 + _NORM_SLACK)
    if first > REGULARITY_PROBE_TOL * (nE + nA_bound):
        return True
    nA = np.linalg.norm(A, 2)
    if first > REGULARITY_PROBE_TOL * (nE + nA):
        return True
    ratio = nA / nE if nE > 0.0 else 1.0
    for rho, theta in zip((ratio, np.sqrt(ratio)), _PROBE_ANGLES[1:]):
        if _probe(E, A, rho, theta) > REGULARITY_PROBE_TOL * (rho * nE + nA):
            return True
    return False


def _finite_eigenvalues(E, A) -> np.ndarray:
    """Finite eigenvalues of the regular pencil sE - A, ordered by (real, imag).

    One ``dggev`` (QZ, no eigenvectors) with the workspace that
    ``scipy.linalg.eig`` queries, and alpha and beta formed as its
    ``_make_eigvals`` forms them (beta complex), so the quotients are
    ``eig``'s to the last bit and the sign of zero.  A pair is infinite when
    |beta| <= ``INFINITE_EIG_TOL`` * |(alpha, beta)|.  An empty pencil makes
    no LAPACK call (``dggev`` refuses it).
    """
    if E.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    lwork = int(sla.lapack.dggev(A, E, lwork=-1)[-2][0])
    alphar, alphai, beta, _, _, _, info = sla.lapack.dggev(
        A, E, compute_vl=0, compute_vr=0, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(
            f"QZ (LAPACK dggev) did not converge (info={info})")
    alphas, betas = alphar + 1j * alphai, beta.astype(complex)
    finite = np.abs(betas) > INFINITE_EIG_TOL * np.hypot(np.abs(alphas),
                                                          np.abs(betas))
    eigs = alphas[finite] / betas[finite]
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def analyze_pair(E, A, alpha) -> AdmissibilityReport:
    """Admissibility analysis of a bare pair {E, A} at order ``alpha``.

    E and A are checked once.  One SVD of E gives both rank E (the rule of
    :func:`numerical_rank`) and ||E||_2 for the regularity probe
    (:func:`_is_regular`); a regular pencil's finite spectrum comes from one
    ``dggev`` call on the checked matrices (:func:`_finite_eigenvalues`), and
    the sector margin is taken on that ordered array.
    """
    E = _as_matrix(E, "E")
    A = _as_matrix(A, "A")
    if A.shape != E.shape:
        raise InputError("E and A must have equal shape")
    sv = _singular_values(E)
    r = _rank(sv)
    regular = _is_regular(E, A, sv[0] if sv.size else 0.0)
    eigs, degree, margin = (), -1, -np.inf
    if regular:
        finite = _finite_eigenvalues(E, A)
        eigs, degree = tuple(finite.tolist()), finite.size
        margin = _sector_margin(finite, alpha, zero_tol=1e-12)
    impulse_free = regular and degree == r
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
