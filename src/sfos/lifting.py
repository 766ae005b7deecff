"""Order reduction for 1 < alpha < 2 via an auxiliary chained system.

An order-alpha plant E D^alpha x = A x + B u is rewritten over the stacked
state z = (z1, ..., zk) with z1 = x and z_{i+1} = D^{alpha/k} z_i:

    Ebar D^{alpha/k} z = Abar z + Bbar u,   y = Cbar z,

with Ebar = diag(E, I, ..., I), Abar a block companion (identity blocks on
the superdiagonal, A in the bottom-left), Bbar the bottom block B and
Cbar = [C, 0, ..., 0].  Both systems share the transfer function
C (s^alpha E - A)^{-1} B, and the nonzero finite eigenvalues of the lifted
pencil are exactly the k-th roots (all branches) of the original ones.

For singular E, det(mu*Ebar - Abar) = det(mu^k E - A) has degree k*deg
while rank(Ebar) = r + (k-1)n: the lift carries (k-1)(n-r) extra infinite
modes that no feedback repairs, and is never impulse-free in the strict
sense.  A lifted pair is therefore judged impulse-free at degree k*r, the
impulse-free pair at the original order, and reports carry both verdicts.

A loop whose gains act on the plant block alone lifts to the lift of the
plant loop, so it is verified and marched on the plant at alpha.  Only
gains with nonzero entries on the auxiliary states, which feed back
D^{alpha/k} x, need the lift.  :func:`coordinates` alone decides which, by
the gains' size, for :func:`verify_loop` and :func:`sfos.simulator.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import descriptor, synthesis
from .descriptor import AdmissibilityReport, DescriptorSystem
from .errors import InputError

__all__ = [
    "LiftedSystem",
    "LiftedReport",
    "lift",
    "coordinates",
    "verify_loop",
    "embed",
    "transfer_function",
    "analyze_lifted_pair",
    "synth_observer_lifted",
    "synth_output_feedback_lifted",
]


@dataclass(frozen=True)
class LiftedSystem:
    """Original plant plus its order-alpha/k auxiliary representation."""

    base: DescriptorSystem
    k: int
    lifted: DescriptorSystem


def lift(sys: DescriptorSystem, k: int) -> LiftedSystem:
    """Build the chained auxiliary system of order alpha/k."""
    if not 1.0 < sys.alpha < 2.0:
        raise InputError(
            f"no lifting needed: order {sys.alpha} is already in (0, 1]"
            if sys.alpha <= 1.0 else f"order must be below 2, got {sys.alpha}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InputError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise InputError("k must be at least 2")
    n = sys.n
    pad = (k - 1) * n
    Ebar = np.eye(k * n)
    Ebar[:n, :n] = sys.E
    Abar = np.eye(k * n, k=n)  # identity blocks on the block superdiagonal
    Abar[pad:, :n] = sys.A
    lifted = DescriptorSystem(E=Ebar, A=Abar,
                              B=np.vstack([np.zeros((pad, sys.m)), sys.B]),
                              C=np.hstack([sys.C, np.zeros((sys.p, pad))]),
                              alpha=sys.alpha / k)
    return LiftedSystem(base=sys, k=k, lifted=lifted)


def _split(gain, n: int, rows: bool):
    """(k, plant block, padding) of a K of k*n columns (k >= 2), else None.

    With ``rows``, of an L of k*n rows, whose plant block is last, as B's is.
    """
    try:
        gain = np.asarray(gain, dtype=float)
    except (TypeError, ValueError):
        return None
    size = gain.shape[0 if rows else 1] if gain.ndim == 2 else 0
    if size <= n or size % n:
        return None
    if rows:
        return size // n, gain[-n:], gain[:-n]
    return size // n, gain[:, :n], gain[:, n:]


def coordinates(sys: DescriptorSystem, controller):
    """(k, controller): the lift its gains are sized for (1: the plant), and it.

    F, and every gain up to order 1, is sized for the plant.  Above it, a K
    of m x k*n or an L of k*n x p (k >= 2) with a nonzero entry off the
    plant block is sized for ``lift(sys, k)``; one whose other entries are
    all exactly zero (:func:`embed`'s) is cut to the plant block, at k = 1.
    :func:`sfos.synthesis.closed_loop` refuses any other shape by name.
    """
    if not isinstance(sys, DescriptorSystem):
        raise InputError("closed loops are built on a DescriptorSystem, "
                         f"not a {type(sys).__name__}")
    kind, gains = controller[0], controller[1:]
    if sys.alpha <= 1.0 or kind not in ("state", "observer"):
        return 1, controller
    parts = [_split(gain, sys.n, rows=i == 1) for i, gain in enumerate(gains)]
    for part in parts:
        if part is not None and part[2].any():
            return part[0], controller
    return 1, (kind, *(gain if part is None else part[1]
                       for gain, part in zip(gains, parts)))


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
# Closed-loop verification in the coordinates the gains pick
# ---------------------------------------------------------------------------

def verify_loop(sys: DescriptorSystem, controller):
    """Admissibility of ``synthesis.closed_loop`` in :func:`coordinates`' k.

    On the plant, the plain pencil analysis at alpha.  On the lift by k, a
    :class:`LiftedReport` at the degree threshold copies * k * r, where the
    observer's (state, error) pair stacks two copies of the plant.
    """
    k, controller = coordinates(sys, controller)
    if k == 1:
        E, A, _ = synthesis.closed_loop(sys, controller)
        return descriptor.analyze_pair(E, A, sys.alpha)
    work = lift(sys, k).lifted
    E, A, _ = synthesis.closed_loop(work, controller)
    copies = 2 if controller[0] == "observer" else 1
    return analyze_lifted_pair(E, A, copies * sys.r, k, work.alpha)


def embed(plant: LiftedSystem, K, L):
    """Gains K (m x n) and L (n x p) of the plant's own state, on the lifted state.

    K becomes [K, 0, ..., 0], as C is lifted, and L becomes [0; ...; 0; L],
    as B is, so the lifted loop is the lift of the base loop.
    """
    pad = plant.lifted.n - plant.base.n
    return (np.hstack([K, np.zeros((K.shape[0], pad))]),
            np.vstack([np.zeros((pad, L.shape[1])), L]))


def synth_observer_lifted(sys: DescriptorSystem, k: int,
                          **kwargs) -> synthesis.ObserverDesign:
    """:func:`sfos.synthesis.synth_observer`, with K and L padded for ``lift(sys, k)``.

    Only K and L are :func:`embed`'s.  Kept for existing callers.
    """
    plant = lift(sys, k)
    design = synthesis.synth_observer(sys, **kwargs)
    K, L = embed(plant, design.K, design.L)
    return replace(design, K=K, L=L)


def synth_output_feedback_lifted(sys: DescriptorSystem, k: int,
                                 **kwargs) -> synthesis.OutputFeedbackDesign:
    """:func:`sfos.synthesis.synth_output_feedback`, for a plant that lifts by k.

    F acts on the output, which a lift keeps.  Kept for existing callers.
    """
    lift(sys, k)  # refuses an order or a k that has no lift
    return synthesis.synth_output_feedback(sys, **kwargs)
