"""Fractional-order positive-definite matrix parameterization.

For order ``alpha`` in (0, 1], a matrix

    P = sin(alpha*pi/2) * X + cos(alpha*pi/2) * Y

with X symmetric, Y skew-symmetric and the block matrix [[X, Y], [-Y, X]]
positive definite plays the role that a symmetric positive-definite Lyapunov
variable plays for integer-order systems.  This module tests membership in
that set, materializes P, and exposes the congruence-closure property
(M^T P M stays in the set for any full-column-rank M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import _as_floats, _as_matrix, numerical_rank
from .errors import InputError, NotMemberError, RankDeficientError

__all__ = [
    "FpdmParam",
    "block_matrix",
    "smallest_block_eigenvalue",
    "is_member",
    "materialize",
    "congruence",
]

#: A parameter counts as a member only if the smallest eigenvalue of the
#: block matrix exceeds this fraction of its largest eigenvalue.
MEMBERSHIP_MARGIN = 1e-9

#: Symmetry / skewness structural tolerance (relative).
STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class FpdmParam:
    """(X, Y, alpha) parameterizing a candidate member of the set."""

    X: np.ndarray
    Y: np.ndarray
    alpha: float

    def __post_init__(self):
        X = _as_matrix(self.X, "X")
        Y = _as_matrix(self.Y, "Y")
        if X.shape[0] != X.shape[1]:
            raise InputError("X must be square")
        if Y.shape != X.shape:
            raise InputError("Y must match the shape of X")
        alpha = _as_floats(self.alpha, "alpha")
        if alpha.ndim or not 0.0 < alpha <= 1.0:
            raise InputError(
                "alpha must lie in (0, 1] (above order 1, P is symmetric "
                f"positive definite), got {self.alpha}")
        scale = max(np.abs(X).max(), np.abs(Y).max(), 1.0)
        if np.abs(X - X.T).max() > STRUCTURE_TOL * scale:
            raise InputError("X must be symmetric")
        if np.abs(Y + Y.T).max() > STRUCTURE_TOL * scale:
            raise InputError("Y must be skew-symmetric")
        X = (X + X.T) / 2.0
        Y = (Y - Y.T) / 2.0
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "alpha", float(alpha))

    @property
    def n(self) -> int:
        return self.X.shape[0]


def block_matrix(param: FpdmParam) -> np.ndarray:
    """The symmetric 2n x 2n test matrix [[X, Y], [-Y, X]]."""
    return np.block([[param.X, param.Y], [-param.Y, param.X]])


def smallest_block_eigenvalue(param: FpdmParam) -> float:
    return float(np.linalg.eigvalsh(block_matrix(param))[0])


def is_member(param: FpdmParam) -> bool:
    """Strict membership: block matrix positive definite with relative margin."""
    eigs = np.linalg.eigvalsh(block_matrix(param))
    lo, hi = eigs[0], eigs[-1]
    return lo > MEMBERSHIP_MARGIN * max(abs(hi), 1e-300)


def materialize(param: FpdmParam) -> np.ndarray:
    """P = sin(alpha*pi/2) X + cos(alpha*pi/2) Y for a member parameter.

    Raises :class:`NotMemberError` (carrying the offending smallest block
    eigenvalue) when the parameter is not a member.
    """
    if not is_member(param):
        lo = smallest_block_eigenvalue(param)
        raise NotMemberError(
            f"(X, Y) is not a member: smallest block eigenvalue {lo:.3e}",
            smallest_eigenvalue=lo)
    half = param.alpha * np.pi / 2.0
    return np.sin(half) * param.X + np.cos(half) * param.Y


def congruence(param: FpdmParam, M) -> FpdmParam:
    """Transform a member by a full-column-rank M: (M^T X M, M^T Y M).

    Full column rank is decided by :func:`sfos.descriptor.numerical_rank`;
    a rank-deficient M raises :class:`RankDeficientError`.

    The result is again a member of the same set; materialize commutes with
    the transformation (materialize(result) == M^T materialize(param) M).
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != param.n:
        raise InputError("M must have n rows")
    if numerical_rank(M) < M.shape[1]:
        raise RankDeficientError("M must have full column rank")
    if not is_member(param):
        lo = smallest_block_eigenvalue(param)
        raise NotMemberError(
            f"congruence input is not a member: smallest block eigenvalue {lo:.3e}",
            smallest_eigenvalue=lo)
    return FpdmParam(X=M.T @ param.X @ M, Y=M.T @ param.Y @ M, alpha=param.alpha)
