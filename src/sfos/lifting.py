"""Order reduction for 1 < alpha < 2 via an auxiliary chained system.

An order-alpha plant E D^alpha x = A x + B u is rewritten over the stacked
state z = (z1, ..., zk) with z1 = x and z_{i+1} = D^{alpha/k} z_i:

    Ebar D^{alpha/k} z = Abar z + Bbar u,   y = Cbar z,

with Ebar = diag(E, I, ..., I), Abar a block companion (identity blocks on
the superdiagonal, A in the bottom-left), Bbar the bottom block B and
Cbar = [C, 0, ..., 0].  Both systems share the transfer function
C (s^alpha E - A)^{-1} B, and the nonzero finite eigenvalues of the lifted
pencil are exactly the k-th roots (all branches) of the original ones.

One structural caveat governs everything downstream: for singular E the
lifted pencil det(mu*Ebar - Abar) = det(mu^k E - A) has degree k*deg while
rank(Ebar) = r + (k-1)n, so the lift itself always carries
(k-1)(n-r) extra infinite modes and is never impulse-free in the strict
sense -- no feedback can repair that, because the deficit comes from the
rows of Ebar, not from A.  Impulse-freeness of a lifted pair is therefore
judged against the threshold k*r (degree k*r corresponds exactly to an
impulse-free pair at the original order), and reports carry both the strict
and the effective verdict.

This module alone decides whether a plant is handled lifted or as it is, and
owns that degree threshold: :func:`as_plant` puts any plant into the
coordinates its criteria hold in (lifted only for orders above 1), and
:func:`verify_loop` judges a controller's closed loop there.  Synthesis and
simulation take a plant of any order and go through these two functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import descriptor, synthesis
from .descriptor import AdmissibilityReport, DescriptorSystem
from .errors import InputError

__all__ = [
    "LiftedSystem",
    "LiftedReport",
    "lift",
    "as_plant",
    "verify_loop",
    "transfer_function",
    "analyze_lifted_pair",
    "synth_observer_lifted",
    "synth_output_feedback_lifted",
]

DEFAULT_K = 2


@dataclass(frozen=True)
class LiftedSystem:
    """Original plant plus its order-alpha/k auxiliary representation."""

    base: DescriptorSystem
    k: int
    lifted: DescriptorSystem

    def __post_init__(self):
        if self.base.alpha > 1.0 and self.k < 2:
            raise InputError("k must be at least 2")


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InputError(f"k must be an integer, got {k!r}")


def lift(sys: DescriptorSystem, k: int = DEFAULT_K) -> LiftedSystem:
    """Build the chained auxiliary system of order alpha/k."""
    if not 1.0 < sys.alpha < 2.0:
        raise InputError(
            f"no lifting needed: order {sys.alpha} is already in (0, 1]"
            if sys.alpha <= 1.0 else f"order must be below 2, got {sys.alpha}")
    _check_k(k)
    if k < 2:
        raise InputError("k must be at least 2")
    n = sys.n
    N = k * n
    Ebar = np.eye(N)
    Ebar[:n, :n] = sys.E
    Abar = np.zeros((N, N))
    for i in range(k - 1):
        Abar[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = np.eye(n)
    Abar[(k - 1) * n:, :n] = sys.A
    Bbar = np.zeros((N, sys.m))
    Bbar[(k - 1) * n:, :] = sys.B
    Cbar = np.zeros((sys.p, N))
    Cbar[:, :n] = sys.C
    lifted = DescriptorSystem(E=Ebar, A=Abar, B=Bbar, C=Cbar,
                              alpha=sys.alpha / k)
    return LiftedSystem(base=sys, k=k, lifted=lifted)


def as_plant(sys, k: int | None = None) -> LiftedSystem:
    """The plant in working coordinates: lifted by k above order 1, else as is.

    ``k`` defaults to the plant's own factor: :data:`DEFAULT_K` for a plain
    plant above order 1.  A :class:`LiftedSystem` is returned unchanged, and
    a ``k`` other than its own is refused; an order in (0, 1] gives
    ``LiftedSystem(base=sys, k=1, lifted=sys)`` for any integer ``k``.
    Synthesis and simulation call this without k, so a plant meant for any
    other factor reaches them as ``as_plant(sys, k)``.
    """
    if k is not None:
        _check_k(k)
    if isinstance(sys, LiftedSystem):
        if k is not None and k != sys.k:
            raise InputError(f"plant is lifted by k = {sys.k}, not {k}")
        return sys
    if sys.alpha <= 1.0:
        return LiftedSystem(base=sys, k=1, lifted=sys)
    return lift(sys, DEFAULT_K if k is None else k)


def transfer_function(sys: DescriptorSystem, s: complex) -> np.ndarray:
    """G(s) = C (s^alpha E - A)^{-1} B on the principal branch of s^alpha."""
    return sys.C @ np.linalg.solve(
        complex(s) ** sys.alpha * sys.E - sys.A + 0j, sys.B.astype(complex))


@dataclass(frozen=True)
class LiftedReport:
    """Admissibility verdict for a pair living in lifted coordinates.

    ``strict`` is the plain pencil analysis at order alpha/k; its
    impulse_free is False for every lift of a singular-E plant (see module
    docstring).  ``effective_impulse_free`` applies the k*r degree
    threshold, which coincides with impulse-freeness of the original-order
    dynamics; ``admissible`` combines it with the strict regularity and
    stability verdicts.
    """

    strict: AdmissibilityReport
    k: int
    base_rank: int
    base_alpha: float
    effective_impulse_free: bool
    admissible: bool

    def to_dict(self) -> dict:
        return {
            "strict": self.strict.to_dict(),
            "k": self.k,
            "base_rank": self.base_rank,
            "base_alpha": self.base_alpha,
            "effective_impulse_free": self.effective_impulse_free,
            "admissible": self.admissible,
        }


def analyze_lifted_pair(Ebar, Abar, base_rank: int, k: int,
                        beta: float) -> LiftedReport:
    """Pencil analysis of a lifted pair with the structural degree threshold."""
    strict = descriptor.analyze_pair(Ebar, Abar, beta)
    effective = strict.regular and strict.pencil_degree >= k * base_rank
    return LiftedReport(
        strict=strict, k=k, base_rank=base_rank, base_alpha=beta * k,
        effective_impulse_free=effective,
        admissible=strict.regular and effective and strict.stable)


# ---------------------------------------------------------------------------
# Closed-loop verification in working coordinates
# ---------------------------------------------------------------------------

def verify_loop(plant: LiftedSystem, controller):
    """Admissibility of ``synthesis.closed_loop(plant.lifted, controller)``.

    Unlifted plants get the plain pencil analysis.  Lifted ones get the
    degree threshold copies * k * r, where the observer's (state, error)
    pair stacks two copies of the plant.
    """
    sys = plant.lifted
    E, A, _ = synthesis.closed_loop(sys, controller)
    if plant.k == 1:
        return descriptor.analyze_pair(E, A, sys.alpha)
    copies = 2 if controller[0] == "observer" else 1
    return analyze_lifted_pair(E, A, copies * plant.base.r, plant.k,
                               sys.alpha)


def synth_observer_lifted(sys: DescriptorSystem, k: int = DEFAULT_K,
                          **kwargs) -> synthesis.ObserverDesign:
    """:func:`sfos.synthesis.synth_observer` on an order-(1,2) plant lifted by k.

    The same as ``synth_observer(lift(sys, k), **kwargs)``; kept for
    existing callers.
    """
    return synthesis.synth_observer(lift(sys, k), **kwargs)


def synth_output_feedback_lifted(sys: DescriptorSystem, k: int = DEFAULT_K,
                                 **kwargs) -> synthesis.OutputFeedbackDesign:
    """:func:`sfos.synthesis.synth_output_feedback` on a plant lifted by k.

    Kept for existing callers, like :func:`synth_observer_lifted`.
    """
    return synthesis.synth_output_feedback(lift(sys, k), **kwargs)
