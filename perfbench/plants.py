"""Seeded test plants whose answers are known by construction.

A block is a regular, impulse-free pair with a prescribed slow spectrum,
hidden behind random well-conditioned coordinate changes (the construction
of ``random_impulse_free_system`` in the test suite).  A plant is a
block-diagonal stack of blocks, so its finite spectrum is the union of the
block spectra, its pencil degree the sum of the block ranks, and it is
admissible exactly when every block is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.special as sps

#: Slow eigenvalues sit at least this many radians from the sector boundary.
BOUNDARY_MARGIN = 0.05


@dataclass(frozen=True)
class Plant:
    """A pair (E, A) at order ``alpha`` together with its known answers.

    ``N``, ``S``, ``decay`` and ``fast_gain`` are set only for plants built
    with real stable slow eigenvalues at order 1/2, whose open-loop
    response has the closed form used by :meth:`exact_state`.
    """

    E: np.ndarray
    A: np.ndarray
    alpha: float
    r: int
    stable: bool
    eigs: tuple
    x0: np.ndarray | None = None
    N: np.ndarray | None = None
    S: np.ndarray | None = None
    decay: np.ndarray | None = None
    fast_gain: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.E.shape[0]

    def exact_state(self, t: float) -> np.ndarray:
        """x(t) of E D^(1/2) x = A x from the consistent x0.

        In the coordinates z = N x the slow part obeys D^(1/2) z1 =
        S^-1 diag(-decay) S z1, solved by E_(1/2)(-d sqrt(t)) =
        erfcx(d sqrt(t)) on each eigendirection; the fast part follows as
        z2 = fast_gain z1.
        """
        z1 = np.linalg.solve(self.S, sps.erfcx(self.decay * np.sqrt(t))
                             * (self.S @ (self.N @ self.x0)[:self.r]))
        return np.linalg.solve(self.N, np.concatenate([z1, self.fast_gain @ z1]))


def _transform(rng, k):
    return (np.linalg.qr(rng.standard_normal((k, k)))[0]
            @ np.diag(rng.uniform(0.7, 1.4, k)))


def block(rng, n, r, alpha, stable, real_stable=False):
    """One n-state block of rank r; ``real_stable`` gives a closed-form response."""
    half = alpha * np.pi / 2.0
    parts, eigs = [], []
    left = r
    while left > 0:
        if not real_stable and left >= 2 and rng.random() < 0.5:
            rho = rng.uniform(0.3, 3.0)
            theta = (rng.uniform(half + BOUNDARY_MARGIN, np.pi) if stable
                     else rng.uniform(0.0, half - BOUNDARY_MARGIN))
            a, b = rho * np.cos(theta), rho * np.sin(theta)
            parts.append(np.array([[a, b], [-b, a]]))
            eigs += [complex(a, b), complex(a, -b)]
            left -= 2
        else:
            # Negative reals have |arg| = pi (stable for every order below
            # 2), positive reals |arg| = 0 (never stable).
            lam = rng.uniform(0.3, 3.0)
            parts.append(np.array([[-lam if stable else lam]]))
            eigs.append(complex(-lam if stable else lam))
            left -= 1
    S = _transform(rng, r)
    slow = np.linalg.solve(S, sla.block_diag(*parts) @ S)
    A4 = rng.standard_normal((n - r, n - r)) + np.eye(n - r) * (n - r)
    A2 = rng.standard_normal((r, n - r))
    A3 = rng.standard_normal((n - r, r))
    At = np.block([[slow + A2 @ np.linalg.solve(A4, A3), A2], [A3, A4]])
    M, N = _transform(rng, n), _transform(rng, n)
    E = M @ np.diag([1.0] * r + [0.0] * (n - r)) @ N
    A = M @ At @ N
    plant = Plant(E=E, A=A, alpha=alpha, r=r, stable=stable, eigs=tuple(eigs))
    if not real_stable:
        return plant
    fast_gain = -np.linalg.solve(A4, A3)
    z1 = rng.standard_normal(r)
    x0 = np.linalg.solve(N, np.concatenate([z1, fast_gain @ z1]))
    return Plant(E=E, A=A, alpha=alpha, r=r, stable=True, eigs=tuple(eigs),
                 x0=x0 / np.linalg.norm(x0), N=N, S=S,
                 decay=-np.real(np.array(eigs)), fast_gain=fast_gain)


def _block_sizes(rng, n):
    """Split n >= 2 into block sizes from {2, 3, 4}."""
    sizes = []
    while n > 0:
        choices = [s for s in (2, 3, 4) if s == n or n - s >= 2]
        size = int(rng.choice(choices))
        sizes.append(size)
        n -= size
    return sizes


def stacked_plant(rng, n, alpha, stable):
    """Block-diagonal plant of n states; unstable plants have an unstable first block."""
    blocks = []
    for i, size in enumerate(_block_sizes(rng, n)):
        block_stable = stable or (i > 0 and bool(rng.integers(0, 2)))
        blocks.append(block(rng, size, int(rng.integers(1, size)), alpha,
                            block_stable))
    return Plant(E=sla.block_diag(*[b.E for b in blocks]),
                 A=sla.block_diag(*[b.A for b in blocks]),
                 alpha=alpha, r=sum(b.r for b in blocks), stable=stable,
                 eigs=tuple(e for b in blocks for e in b.eigs))
