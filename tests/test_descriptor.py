"""Pencil analysis, annihilators, initial-state projection."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (BENCH_A, BENCH_B, BENCH_C, BENCH_E, benchmark,
                      random_impulse_free_system)
from sfos import simulator
from sfos.descriptor import (DescriptorSystem, analyze, analyze_pair,
                             annihilators, numerical_rank, system_from_dict)
from sfos.errors import InputError


def _matched(got, want):
    """Largest relative distance under the best one-to-one pairing of two
    eigenvalue lists; inf when their lengths differ."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.inf
    dist = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max(initial=0.0))


def _slow_fast(E, A, r):
    """Reference slow/fast split of an impulse-free pair, returns (Aa, Ab, N).

    With E = U diag(sigma, 1) diag(I_r, 0) V^T, N = V^T and
    U diag(sigma, 1)^-1 A V = [[A1, A2], [A3, A4]], the slow state x1 of
    N x = (x1, x2) obeys D x1 = Aa x1 and the fast state is x2 = Ab x1.
    Kept here as the spectral and projection oracle of the tests only.
    """
    n = E.shape[0]
    U, sv, N = np.linalg.svd(E)
    scale = np.concatenate([sv[:r], np.ones(n - r)])
    At = np.diag(1.0 / scale) @ U.T @ A @ N.T
    A1, A2, A3, A4 = At[:r, :r], At[:r, r:], At[r:, :r], At[r:, r:]
    Ab = -np.linalg.solve(A4, A3)
    return A1 + A2 @ Ab, Ab, N


class TestNumericalRank:
    def test_benchmark_rank(self):
        assert numerical_rank(BENCH_E) == 2

    def test_full_and_zero(self):
        assert numerical_rank(np.eye(4)) == 4
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_tolerance_threshold(self):
        # One fixed threshold, RANK_TOL = 1e-9, pinned from both sides.
        assert numerical_rank(np.diag([1.0, 1e-12])) == 1
        assert numerical_rank(np.diag([1.0, 1e-8])) == 2


class TestDescriptorSystem:
    def test_dimensions_and_rank(self, bench06):
        assert (bench06.n, bench06.m, bench06.p, bench06.r) == (3, 1, 1, 2)

    def test_matrices_frozen(self, bench06):
        with pytest.raises(ValueError):
            bench06.E[0, 0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        E, A, B, C = (M.copy() for M in (BENCH_E, BENCH_A, BENCH_B, BENCH_C))
        sysm = DescriptorSystem(E=E, A=A, B=B, C=C, alpha=0.6)
        E[0, 0] = 2.0
        A[0, 0] = 2.0
        assert sysm.E[0, 0] == 1.0 and sysm.A[0, 0] == 1.0
        with pytest.raises(ValueError):
            sysm.E[0, 0] = 5.0

    def test_alpha_range_enforced(self):
        for alpha in (0.0, -0.5, 2.0, 2.5):
            with pytest.raises(InputError):
                benchmark(alpha)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            DescriptorSystem(E=np.eye(2), A=np.eye(3), B=np.ones((2, 1)),
                             C=np.ones((1, 2)), alpha=0.5)
        # A ragged nested list is bad input, not numpy's bare ValueError.
        with pytest.raises(InputError, match="^E must be a rectangular matrix"):
            DescriptorSystem(E=[[1.0, 0.0], [0.0]], A=np.eye(2),
                             B=np.ones((2, 1)), C=np.ones((1, 2)), alpha=0.5)

    def test_nonfinite_rejected(self):
        A = BENCH_A.copy()
        A[0, 0] = np.nan
        with pytest.raises(InputError):
            DescriptorSystem(E=BENCH_E, A=A, B=BENCH_B, C=BENCH_C, alpha=0.5)

    def test_integer_too_large_for_a_float(self):
        # JSON reads a 401-digit literal as a Python int, which numpy cannot
        # convert: the matrix is refused by name, as a non-finite one is.
        for name in ("E", "A", "B", "C"):
            data = {"E": BENCH_E.tolist(), "A": BENCH_A.tolist(),
                    "B": BENCH_B.tolist(), "C": BENCH_C.tolist()}
            data[name][0][0] = 10 ** 400
            with pytest.raises(InputError, match=f"^{name} contains a number "
                               "too large for a float$"):
                DescriptorSystem(alpha=0.5, **data)
        with pytest.raises(InputError, match="^M contains a number"):
            numerical_rank([[1, -10 ** 400]])

    def test_with_matrices(self, bench06):
        other = bench06.with_matrices(alpha=1.2)
        assert other.alpha == 1.2
        assert np.array_equal(other.E, bench06.E)

    def test_from_dict_missing_field(self):
        with pytest.raises(InputError, match="missing"):
            system_from_dict({"E": [[1.0]], "alpha": 0.5})


class TestAnnihilators:
    def test_annihilate_and_orthonormal(self, bench06):
        ann = annihilators(bench06.E, bench06.r)
        n, r = bench06.n, bench06.r
        assert ann.E_right.shape == (n, n - r)
        assert ann.E_left.shape == (n - r, n)
        assert np.abs(bench06.E @ ann.E_right).max() < 1e-12
        assert np.abs(ann.E_left @ bench06.E).max() < 1e-12
        assert np.allclose(ann.E_right.T @ ann.E_right, np.eye(n - r))
        assert np.allclose(ann.E_left @ ann.E_left.T, np.eye(n - r))

    def test_row_space_factors(self, bench06):
        ann = annihilators(bench06.E, bench06.r)
        n, r = bench06.n, bench06.r
        assert ann.U1.shape == ann.V1.shape == (n, r)
        assert ann.sigma.shape == (r,) and (ann.sigma > 0).all()
        assert np.allclose(ann.U1 @ np.diag(ann.sigma) @ ann.V1.T, bench06.E,
                           atol=1e-13)
        assert np.allclose(ann.V1.T @ ann.V1, np.eye(r))
        assert np.abs(ann.U1.T @ ann.E_left.T).max() < 1e-13
        assert np.abs(ann.V1.T @ ann.E_right).max() < 1e-13
        with pytest.raises(ValueError):
            ann.V1[0, 0] = 1.0

    def test_nonsingular_gives_empty_null_spaces(self):
        # r = n is an ordinary fractional-order system: no algebraic rows.
        E = np.random.default_rng(3).standard_normal((3, 3))
        ann = annihilators(E)
        assert ann.E_right.shape == (3, 0) and ann.E_left.shape == (0, 3)
        assert ann.U1.shape == ann.V1.shape == (3, 3)
        assert np.allclose(ann.U1 @ np.diag(ann.sigma) @ ann.V1.T, E,
                           atol=1e-13)

    @pytest.mark.parametrize("E", [BENCH_E, np.eye(3), np.zeros((2, 2)),
                                   np.diag([2.0, 1.0, 0.0, 0.0])],
                             ids=["paper", "identity", "zero", "rank-2-of-4"])
    def test_transpose_factors_e_transposed(self, E):
        # .T reads the one SVD of E as one of E^T, with no new SVD: the same
        # arrays, U1 and V1 swapped, the null-space bases transposed.
        ann = annihilators(E)
        dual = ann.T
        n, r = E.shape[0], ann.sigma.size
        assert dual.U1 is ann.V1 and dual.V1 is ann.U1
        assert dual.sigma is ann.sigma
        assert np.array_equal(dual.E_right, ann.E_left.T)
        assert np.array_equal(dual.E_left, ann.E_right.T)
        assert dual.E_right.shape == (n, n - r) and dual.E_left.shape == (n - r, n)
        assert np.allclose(dual.U1 @ np.diag(dual.sigma) @ dual.V1.T, E.T,
                           atol=1e-13)
        assert np.abs(E.T @ dual.E_right).max(initial=0.0) < 1e-12
        assert np.abs(dual.E_left @ E.T).max(initial=0.0) < 1e-12
        for name in ("E_right", "E_left", "U1", "sigma", "V1"):
            assert np.array_equal(getattr(dual.T, name), getattr(ann, name))


class TestAnalyze:
    def test_benchmark_open_loop(self, bench06):
        rep = analyze(bench06)
        assert rep.regular and rep.impulse_free and not rep.stable
        assert not rep.admissible
        assert rep.pencil_degree == bench06.r == 2
        eigs = sorted(ev.real for ev in rep.finite_eigenvalues)
        assert eigs == pytest.approx([-5.3129, 0.1129], abs=1e-3)

    def test_benchmark_higher_order(self, bench12):
        rep = analyze(bench12)
        assert rep.regular and rep.impulse_free and not rep.stable

    def test_identity_stable(self):
        rep = analyze_pair(np.eye(2), -np.eye(2), 0.5)
        assert rep.admissible
        assert rep.min_angle_margin == pytest.approx(np.pi - 0.25 * np.pi)

    def test_eigenvalue_at_origin_unstable(self):
        rep = analyze_pair(np.eye(1), np.zeros((1, 1)), 0.5)
        assert rep.regular and rep.impulse_free and not rep.stable
        assert rep.min_angle_margin == pytest.approx(-0.25 * np.pi)

    def test_not_impulse_free_pair(self):
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = analyze_pair(E, np.eye(2), 0.5)
        assert rep.regular and not rep.impulse_free
        assert rep.pencil_degree == 0 < numerical_rank(E)

    def test_nonregular_pair(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0]])
        rep = analyze_pair(E, np.zeros((2, 2)), 0.5)
        assert not rep.regular and not rep.admissible

    def test_column_scaled_pair_stays_regular(self):
        # Column scaling is a change of coordinates: same spectrum, but the
        # columns of sE - A now differ in norm by up to six decades.
        rng = np.random.default_rng(23)
        for _ in range(10):
            sysm, _ = random_impulse_free_system(rng, 0.7)
            D = np.diag(10.0 ** rng.uniform(-3, 3, sysm.n))
            rep = analyze_pair(sysm.E @ D, sysm.A @ D, 0.7)
            assert rep.regular and rep.impulse_free
            assert rep.pencil_degree == sysm.r
            Aa, _, _ = _slow_fast(sysm.E, sysm.A, sysm.r)
            assert _matched(rep.finite_eigenvalues,
                            np.linalg.eigvals(Aa)) < 1e-6

    def test_hidden_singular_pencil(self):
        # A zero diagonal entry in the fast block of A leaves a zero row in
        # sE - A for every s; M and N hide it.  QZ alone misses some of these:
        # its smallest pair |(alpha, beta)| reaches 1e-8 relative here.
        rng = np.random.default_rng(29)
        for _ in range(20):
            n, r = 6, 3
            E0 = np.diag([1.0] * r + [0.0] * (n - r))
            A0 = np.zeros((n, n))
            A0[:r, :r] = rng.standard_normal((r, r))
            A0[r:, r:] = np.diag(np.r_[rng.uniform(0.5, 2.0, n - r - 1), 0.0])
            M, N = rng.standard_normal((2, n, n))
            rep = analyze_pair(M @ E0 @ N, M @ A0 @ N, 0.5)
            assert not rep.regular and not rep.admissible
            assert rep.pencil_degree == -1

    def test_zero_e_with_nonsingular_a(self):
        rep = analyze_pair(np.zeros((3, 3)), np.diag([1.0, -2.0, 3.0]), 0.5)
        assert rep.regular and rep.impulse_free and rep.admissible
        assert rep.pencil_degree == 0 and rep.finite_eigenvalues == ()

    def test_zero_e_with_singular_a(self):
        rep = analyze_pair(np.zeros((3, 3)), np.diag([1.0, 0.0, 3.0]), 0.5)
        assert not rep.regular and not rep.admissible

    def test_report_fields_are_plain_python(self, bench06):
        rep = analyze(bench06)
        for name in ("regular", "impulse_free", "stable", "admissible"):
            assert type(getattr(rep, name)) is bool
        assert type(rep.pencil_degree) is int

    def test_no_finite_eigenvalues_vacuously_stable(self):
        # E nilpotent against identity: det(sE - A) is constant.
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = analyze_pair(E, -np.eye(2), 0.7)
        assert rep.regular and rep.stable
        assert rep.finite_eigenvalues == ()
        assert rep.min_angle_margin == np.inf

    def test_stability_depends_on_order(self):
        # Eigenvalues at angle 0.45*pi: stable for alpha=0.8, not for 0.95.
        a, b = np.cos(0.45 * np.pi), np.sin(0.45 * np.pi)
        A = np.array([[a, b], [-b, a]])
        assert analyze_pair(np.eye(2), A, 0.8).stable
        assert not analyze_pair(np.eye(2), A, 0.95).stable

    def test_report_json_round_trip(self, bench06):
        doc = json.loads(json.dumps(analyze(bench06).to_dict()))
        assert doc["regular"] is True and doc["stable"] is False
        assert doc["pencil_degree"] == 2


class TestProjection:
    """``simulator._project_consistent`` on seeded random plants and x0."""

    @staticmethod
    def project(E, A, x0):
        with pytest.warns(UserWarning, match="projected"):
            return simulator._project_consistent(E, A, x0, "project")

    def test_reference_slow_spectrum(self, bench06):
        Aa, _, _ = _slow_fast(bench06.E, bench06.A, bench06.r)
        eigs = sorted(np.linalg.eigvals(Aa).real)
        assert eigs == pytest.approx([-5.3129, 0.1129], abs=1e-3)

    def test_random_plants(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            sysm, _ = random_impulse_free_system(rng, rng.uniform(0.3, 1.0))
            E, A, r = sysm.E, sysm.A, sysm.r
            x0 = rng.standard_normal(sysm.n)
            x0p = self.project(E, A, x0)
            ann = annihilators(E, r)
            # The algebraic rows hold and the row-space coordinates are kept.
            scale = np.linalg.norm(A) * np.linalg.norm(x0p)
            assert np.abs(ann.E_left @ (A @ x0p)).max() <= 1e-12 * scale
            assert (np.linalg.norm(ann.V1.T @ (x0p - x0))
                    <= 1e-12 * np.linalg.norm(x0p))
            # Against the slow/fast reference: keep N x0's slow part and
            # recover its fast part as Ab times the slow part.
            _, Ab, N = _slow_fast(E, A, r)
            xt = N @ x0
            xt[r:] = Ab @ xt[:r]
            want = np.linalg.solve(N, xt)
            assert np.linalg.norm(x0p - want) <= 1e-12 * np.linalg.norm(want)


class TestRandomizedAgreement:
    def test_roots_match_slow_eigenvalues(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            sysm, _ = random_impulse_free_system(rng, 0.7)
            roots = np.sort_complex(np.array(analyze(sysm).finite_eigenvalues))
            Aa, _, _ = _slow_fast(sysm.E, sysm.A, sysm.r)
            eigs = np.sort_complex(np.linalg.eigvals(Aa))
            assert np.allclose(roots, eigs, atol=1e-6 * max(1, np.abs(eigs).max()))


class TestBlockDiagonalStacks:
    """Stacks of random impulse-free blocks, mixed by orthogonal transforms:
    the oracle is the union of the blocks' slow spectra, each computed on its
    own small block."""

    @given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 12))
    def test_verdict_degree_and_spectrum(self, seed, blocks):
        rng = np.random.default_rng(seed)
        parts = [random_impulse_free_system(rng, 0.8) for _ in range(blocks)]
        E = sla.block_diag(*(p.E for p, _ in parts))
        A = sla.block_diag(*(p.A for p, _ in parts))
        Q1 = np.linalg.qr(rng.standard_normal(E.shape))[0]
        Q2 = np.linalg.qr(rng.standard_normal(E.shape))[0]
        rep = analyze_pair(Q1 @ E @ Q2, Q1 @ A @ Q2, 0.8)
        want = np.concatenate([np.linalg.eigvals(_slow_fast(p.E, p.A, p.r)[0])
                               for p, _ in parts])
        assert rep.regular and rep.impulse_free
        assert rep.pencil_degree == sum(p.r for p, _ in parts)
        assert rep.stable == all(stable for _, stable in parts)
        assert _matched(rep.finite_eigenvalues, want) < 1e-6


def _reference_analyze_pair(E, A, alpha):
    """``analyze_pair`` as it was before it shared one SVD of E: rank E and
    ||E||_2 from two SVDs, QZ that re-checks finiteness, and a sector margin
    taken one eigenvalue at a time.  Kept as the bit-for-bit reference."""
    from sfos import descriptor as d
    E, A = np.asarray(E, dtype=float), np.asarray(A, dtype=float)
    sv = np.linalg.svd(E, compute_uv=False) if E.size else np.zeros(0)
    r = int(np.count_nonzero(sv > d.RANK_TOL * sv[0])) if E.size else 0
    regular = True
    if E.shape[0]:
        nE, nA = np.linalg.norm(E, 2), np.linalg.norm(A, 2)
        ratio = nA / nE if nE > 0.0 else 1.0
        regular = False
        for rho, theta in zip((1.0, ratio, np.sqrt(ratio)), d._PROBE_ANGLES):
            s = rho * np.exp(1j * theta)
            smin = np.linalg.svd(s * E - A, compute_uv=False)[-1]
            if smin > d.REGULARITY_PROBE_TOL * (rho * nE + nA):
                regular = True
                break
    eigs, degree = (), -1
    if regular:
        alphas, betas = sla.eig(A, E, left=False, right=False,
                                homogeneous_eigvals=True)
        finite = np.abs(betas) > d.INFINITE_EIG_TOL * np.hypot(np.abs(alphas),
                                                                np.abs(betas))
        eigs = tuple(sorted(map(complex, alphas[finite] / betas[finite]),
                            key=lambda z: (z.real, z.imag)))
        degree = len(eigs)
    impulse_free = regular and degree == r
    margin = -np.inf
    if regular:
        margin = np.inf
        if eigs:
            half = alpha * np.pi / 2.0
            scale = max(np.abs(np.array(eigs)).max(), 1.0)
            margins = []
            for ev in np.array(eigs):
                if abs(ev) <= 1e-12 * scale:
                    margins.append(-half)
                else:
                    margins.append(abs(np.angle(ev)) - half)
            margin = float(min(margins))
    stable = regular and margin > d.ANGLE_BOUNDARY_TOL
    return d.AdmissibilityReport(
        regular=regular, impulse_free=impulse_free, stable=stable,
        admissible=regular and impulse_free and stable,
        finite_eigenvalues=eigs, min_angle_margin=margin,
        pencil_degree=degree, alpha=alpha)


class TestReferenceAnalysis:
    """``analyze_pair`` gives the reference's report, field for field and
    bit for bit (``repr`` tells -0.0 from 0.0 and shows every digit)."""

    @staticmethod
    def _same(E, A, alpha):
        got, want = analyze_pair(E, A, alpha), _reference_analyze_pair(E, A, alpha)
        assert got == want and repr(got) == repr(want)
        return got

    def test_seeded_plants_and_loops(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            alpha = float(rng.uniform(0.1, 1.9))
            sysm, _ = random_impulse_free_system(rng, alpha)
            self._same(sysm.E, sysm.A, alpha)
            K = rng.standard_normal((1, sysm.n))
            self._same(sysm.E, sysm.A + sysm.B @ K, alpha)
        for n in (5, 8, 12, 16):
            r = int(rng.integers(1, n))
            E = (rng.standard_normal((n, r)) @ rng.standard_normal((r, n)))
            self._same(E, rng.standard_normal((n, n)), 0.7)

    def test_singular_pencils(self):
        self._same(np.diag([1.0, 0.0]), np.zeros((2, 2)), 0.5)
        rng = np.random.default_rng(29)
        n, r = 6, 3
        A0 = np.zeros((n, n))
        A0[:r, :r] = rng.standard_normal((r, r))
        A0[r:, r:] = np.diag(np.r_[rng.uniform(0.5, 2.0, n - r - 1), 0.0])
        M, N = rng.standard_normal((2, n, n))
        rep = self._same(M @ np.diag([1.0] * r + [0.0] * (n - r)) @ N,
                         M @ A0 @ N, 0.5)
        assert not rep.regular

    def test_zero_e(self):
        assert self._same(np.zeros((3, 3)), np.diag([1.0, -2.0, 3.0]), 0.5).admissible
        assert not self._same(np.zeros((3, 3)), np.diag([1.0, 0.0, 3.0]), 0.5).regular
        self._same(np.zeros((0, 0)), np.zeros((0, 0)), 0.5)

    def test_full_rank_e(self):
        rng = np.random.default_rng(37)
        for n in (1, 3, 7):
            E = rng.standard_normal((n, n)) + n * np.eye(n)
            for alpha in (0.4, 1.0, 1.6):
                assert self._same(E, rng.standard_normal((n, n)), alpha
                                  ).pencil_degree == n

    def test_probe_thresholds(self):
        # Singular pencils (common null vector Q2 e_6) whose A has five equal
        # singular values, so ||A||_F = sqrt(5) ||A||_2, plus eps P: the
        # first probe's sigma_min grows with eps through tol (||E||_2 +
        # ||A||_2), then tol (||E||_2 + ||A||_F).
        from sfos import descriptor as d
        rng = np.random.default_rng(43)
        n = 6
        Q1, Q2, Q3 = (np.linalg.qr(rng.standard_normal((n, n)))[0]
                      for _ in range(3))
        DE = np.zeros((n, n))
        DE[:, :n - 2] = 0.1 * Q3[:, :n - 2]
        A0 = Q1 @ np.diag([1.0] * (n - 1) + [0.0]) @ Q2.T
        P = rng.standard_normal((n, n))
        P /= np.linalg.norm(P, 2)
        assert np.linalg.norm(A0) >= 2.0 * np.linalg.norm(A0, 2)

        def region(E, eps):
            A = A0 + eps * P
            nE = np.linalg.norm(E, 2)
            smin = np.linalg.svd(np.exp(1j) * E - A, compute_uv=False)[-1]
            low = d.REGULARITY_PROBE_TOL * (nE + np.linalg.norm(A, 2))
            high = d.REGULARITY_PROBE_TOL * (nE + np.linalg.norm(A))
            return "below" if smin <= low else "between" if smin <= high else "above"

        def sweep(E):
            assert not self._same(E, A0, 0.7).regular
            regions = {}
            for eps in 10.0 ** np.arange(-16.0, -9.0, 0.125):
                regions.setdefault(region(E, eps), []).append(eps)
                rep = self._same(E, A0 + eps * P, 0.7)
                assert rep.regular or region(E, eps) == "below"
            assert regions.keys() == {"below", "between", "above"}
            return regions

        sweep(Q1 @ DE @ Q2.T)
        # E = 0 probes sigma_min(A) three times, so the first threshold
        # decides alone.  Either side of tol ||A||_2, to rounding, a cheap
        # bound below ||A||_2 would call the pencil just under it regular.
        E = np.zeros((n, n))
        regions = sweep(E)
        lo, hi = max(regions["below"]), min(regions["between"])
        while hi / lo > 1.0 + 1e-13:
            mid = np.sqrt(lo * hi)
            lo, hi = (mid, hi) if region(E, mid) == "below" else (lo, mid)
        assert not self._same(E, A0 + lo * P, 0.7).regular
        assert self._same(E, A0 + hi * P, 0.7).regular

    def test_one_state_and_huge_entries(self):
        for e, a in ((0.0, 0.0), (0.0, 2.0), (1.0, -3.0), (1.0, 3.0),
                     (-2.0, 0.0), (1e-300, 1.0)):
            self._same(np.array([[e]]), np.array([[a]]), 0.5)
        rng = np.random.default_rng(47)
        sysm, _ = random_impulse_free_system(rng, 0.7)
        singular = (np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e200, 3e200, 1e300):
                assert self._same(scale * sysm.E, scale * sysm.A, 0.7).regular
                assert not self._same(scale * singular[0], scale * singular[1],
                                      0.7).regular

    def test_eigenvalue_at_zero(self, bench06):
        # The loop A + B K with K = -(first row of A) has a zero row, so
        # its pencil has a finite eigenvalue at 0.
        rep = self._same(np.eye(1), np.zeros((1, 1)), 0.5)
        assert rep.min_angle_margin == -0.25 * np.pi
        E = np.diag([1.0, 1.0, 0.0])
        A = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        rep = self._same(E, A, 0.8)
        assert 0j in rep.finite_eigenvalues and not rep.stable
        K = -bench06.A[:1]
        rep = self._same(bench06.E, bench06.A + bench06.B @ K, 0.6)
        assert rep.min_angle_margin == -0.3 * np.pi
