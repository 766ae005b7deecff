"""Shared fixtures: the benchmark plant, published gains, random generators."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import settings

from sfos import synthesis
from sfos.descriptor import DescriptorSystem

# Property tests draw the same examples on every run and are not timed, so
# tier-1 stays reproducible on slow hosts.
settings.register_profile("sfos", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("sfos")

BENCH_E = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
BENCH_A = np.array([[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]])
BENCH_B = np.array([[1.0], [1.0], [1.0]])
BENCH_C = np.array([[1.0, 0.0, 1.0]])
BENCH_X0 = np.array([-0.25, 2.0, 0.25])

# Published gains for the benchmark plant (one known-good design per case;
# synthesis is free to return different but equally valid gains).
GAINS_06 = {
    "K": np.array([[-3.1656, -0.4720, 2.4146]]),
    "L": np.array([[-0.1821], [0.0996], [0.7768]]),
    "F": np.array([[-3.6723]]),
}
GAINS_12 = {
    "K": np.array([[-0.8663, -0.2339, -0.2990, -1.0001, -0.7116, 0.2144]]),
    "L": np.array([[-1.7022], [0.1766], [-0.0905],
                   [-4.059], [-0.0028], [-6.4078]]),
    "F": np.array([[-0.9515]]),
}


def benchmark(alpha: float) -> DescriptorSystem:
    return DescriptorSystem(E=BENCH_E, A=BENCH_A, B=BENCH_B, C=BENCH_C,
                            alpha=alpha)


@pytest.fixture
def bench06():
    return benchmark(0.6)


@pytest.fixture
def bench12():
    return benchmark(1.2)


@pytest.fixture
def failing_verification(monkeypatch):
    """Make synthesis's pencil check judge every loop not admissible."""
    analyze_pair = synthesis.analyze_pair

    def failing(*args):
        return dataclasses.replace(analyze_pair(*args), admissible=False)
    monkeypatch.setattr(synthesis, "analyze_pair", failing)


@pytest.fixture
def failing_stage2(monkeypatch):
    """Make every output-feedback stage 2 fail, with one retry allowed."""
    stage2 = synthesis._output_stage2
    monkeypatch.setattr(synthesis, "_output_stage2",
                        lambda plant, K0: (None, stage2(plant, K0)[1]))
    monkeypatch.setattr(synthesis, "RETRY_SHIFTS", synthesis.RETRY_SHIFTS[:2])


def random_impulse_free_system(rng, alpha, boundary_margin=0.05):
    """Random regular impulse-free system with a prescribed stability verdict.

    The slow-block spectrum is placed at least ``boundary_margin`` radians
    away from the |arg| = alpha*pi/2 sector boundary, on the stable or
    unstable side by a coin flip, then hidden behind random well-conditioned
    coordinate changes.  Returns (system, is_stable).
    """
    n = int(rng.integers(2, 5))
    r = int(rng.integers(1, n))
    half = alpha * np.pi / 2.0
    stable = bool(rng.integers(0, 2))
    blocks = []
    left = r
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            rho = rng.uniform(0.3, 3.0)
            theta = (rng.uniform(half + boundary_margin, np.pi) if stable
                     else rng.uniform(0.0, half - boundary_margin))
            a, b = rho * np.cos(theta), rho * np.sin(theta)
            blocks.append(np.array([[a, b], [-b, a]]))
            left -= 2
        else:
            lam = rng.uniform(0.3, 3.0)
            # real eigenvalues: negative ones have |arg| = pi (stable for any
            # alpha < 2), positive ones |arg| = 0 (always inside the sector).
            blocks.append(np.array([[-lam if stable else lam]]))
            left -= 1
    slow = sla.block_diag(*blocks)

    def random_transform(k):
        return (np.linalg.qr(rng.standard_normal((k, k)))[0]
                @ np.diag(rng.uniform(0.7, 1.4, k)))

    S = random_transform(r)
    slow = np.linalg.solve(S, slow @ S)
    A4 = rng.standard_normal((n - r, n - r)) + np.eye(n - r) * (n - r)
    A2 = rng.standard_normal((r, n - r))
    A3 = rng.standard_normal((n - r, r))
    A1 = slow + A2 @ np.linalg.solve(A4, A3)
    At = np.block([[A1, A2], [A3, A4]])
    M, N = random_transform(n), random_transform(n)
    E = M @ np.diag([1.0] * r + [0.0] * (n - r)) @ N
    A = M @ At @ N
    sysm = DescriptorSystem(E=E, A=A, B=np.ones((n, 1)), C=np.ones((1, n)),
                            alpha=alpha)
    return sysm, stable
