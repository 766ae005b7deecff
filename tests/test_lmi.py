"""Affine expression algebra and the feasibility solver."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linprog

from sfos.errors import InputError, LmiNumericalError
from sfos.lmi import (AffineExpr, LmiBlock, VariableRegistry, _Barrier,
                      block_of, solve_feasibility, sym_of)


class TestVariableRegistry:
    def test_slot_counts(self):
        reg = VariableRegistry()
        reg.add("S", "symmetric", 3)
        reg.add("W", "skew", 3)
        reg.add("R", "rectangular", 2, 4)
        assert reg.entry("S").count == 6
        assert reg.entry("W").count == 3
        assert reg.entry("R").count == 8
        assert reg.num_slots == 17
        assert reg.entry("W").start == 6

    def test_duplicate_name_rejected(self):
        reg = VariableRegistry()
        reg.add("S", "symmetric", 2)
        with pytest.raises(InputError):
            reg.add("S", "rectangular", 1, 1)

    def test_materialize_structure(self):
        reg = VariableRegistry()
        reg.add("S", "symmetric", 2)
        reg.add("W", "skew", 2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        S = reg.materialize("S", x)
        W = reg.materialize("W", x)
        assert np.allclose(S, [[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(W, [[0.0, 4.0], [-4.0, 0.0]])

    def test_expr_evaluate_matches_materialize(self):
        reg = VariableRegistry()
        reg.add("R", "rectangular", 2, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(reg.num_slots)
        assert np.allclose(reg.expr("R").evaluate(x), reg.materialize("R", x))

    @pytest.mark.parametrize("kind, rows, cols", [
        ("symmetric", 1, None), ("symmetric", 5, None), ("skew", 2, None),
        ("skew", 6, None), ("rectangular", 3, 4), ("rectangular", 4, 1)])
    def test_materialize_equals_evaluated_expression(self, kind, rows, cols):
        rng = np.random.default_rng(rows)
        reg = VariableRegistry()
        reg.add("before", "rectangular", 2, 2)
        reg.add("V", kind, rows, cols)
        reg.add("after", "symmetric", 2)
        x = rng.standard_normal(reg.num_slots)
        assert np.array_equal(reg.materialize("V", x), reg.expr("V").evaluate(x))


def _variable_values(x):
    """S (3x3 symmetric), W (3x3 skew) and R (3x2), read from x by hand.

    The slot layout the registry documents -- upper triangles and rows in
    order -- rebuilt without the registry, as an oracle for its bases.
    """
    S, W = np.zeros((3, 3)), np.zeros((3, 3))
    S[np.triu_indices(3)] = x[:6]
    W[np.triu_indices(3, 1)] = x[6:9]
    return {"S": S + np.triu(S, 1).T, "W": W - W.T, "R": x[9:15].reshape(3, 2)}


class _DictExpr:
    """Reference: the slot -> matrix form that expressions had before they
    were stacked, one loop over the coefficients per operation."""

    __array_priority__ = 100

    def __init__(self, const, coeffs):
        self.const, self.coeffs = const, coeffs

    @staticmethod
    def variable(reg, name):
        e = reg.entry(name)
        rows, cols = e.shape
        coeffs, slot = {}, e.start
        for i in range(rows):
            for j in range(cols):
                if e.kind == "rectangular" or j >= i + (e.kind == "skew"):
                    M = np.zeros(e.shape)
                    M[i, j] = 1.0
                    if e.kind != "rectangular":
                        M[j, i] = 1.0 if e.kind == "symmetric" else -1.0
                    coeffs[slot] = M
                    slot += 1
        return _DictExpr(np.zeros(e.shape), coeffs)

    def _map(self, f):
        return _DictExpr(f(self.const), {s: f(M) for s, M in self.coeffs.items()})

    @property
    def T(self):
        return self._map(lambda M: M.T)

    def __neg__(self):
        return self._map(lambda M: -M)

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for s, M in other.coeffs.items():
            coeffs[s] = coeffs[s] + M if s in coeffs else M
        return _DictExpr(self.const + other.const, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        return self._map(lambda M: c * M)

    def __matmul__(self, N):
        return self._map(lambda M: M @ N)

    def __rmatmul__(self, N):
        return self._map(lambda M: N @ M)

    @staticmethod
    def bmat(rows):
        rows = [[e if isinstance(e, _DictExpr) else _DictExpr(e, {}) for e in row]
                for row in rows]
        heights = [row[0].const.shape[0] for row in rows]
        widths = [e.const.shape[1] for e in rows[0]]
        shape = (sum(heights), sum(widths))
        const, coeffs, r0 = np.zeros(shape), {}, 0
        for row, h in zip(rows, heights):
            c0 = 0
            for e, w in zip(row, widths):
                const[r0:r0 + h, c0:c0 + w] = e.const
                for s, M in e.coeffs.items():
                    coeffs.setdefault(s, np.zeros(shape))[r0:r0 + h, c0:c0 + w] += M
                c0 += w
            r0 += h
        return _DictExpr(const, coeffs)

    def stacked(self):
        slots = sorted(self.coeffs)
        return (np.array(slots, dtype=np.intp),
                np.array([self.const] + [self.coeffs[s] for s in slots]))


class TestAffineExpr:
    def setup_method(self):
        self.reg = VariableRegistry()
        self.reg.add("S", "symmetric", 2)
        self.reg.add("R", "rectangular", 2, 2)
        rng = np.random.default_rng(1)
        self.x = rng.standard_normal(self.reg.num_slots)
        self.M = rng.standard_normal((2, 2))

    def val(self, expr):
        return expr.evaluate(self.x)

    def test_linear_algebra_against_numpy(self):
        S = self.reg.expr("S")
        R = self.reg.expr("R")
        Sv, Rv = self.val(S), self.val(R)
        assert np.allclose(self.val(S + R), Sv + Rv)
        assert np.allclose(self.val(S - R), Sv - Rv)
        assert np.allclose(self.val(-S), -Sv)
        assert np.allclose(self.val(2.5 * S), 2.5 * Sv)
        assert np.allclose(self.val(S.T), Sv.T)
        assert np.allclose(self.val(S @ self.M), Sv @ self.M)
        assert np.allclose(self.val(self.M @ S), self.M @ Sv)
        assert np.allclose(self.val(S + self.M), Sv + self.M)

    def test_product_of_variables_rejected(self):
        S, R = self.reg.expr("S"), self.reg.expr("R")
        with pytest.raises(InputError, match="affine"):
            S @ R

    def test_bmat(self):
        S, R = self.reg.expr("S"), self.reg.expr("R")
        big = AffineExpr.bmat([[S, R], [R.T, -S]])
        v = self.val(big)
        Sv, Rv = self.val(S), self.val(R)
        assert np.allclose(v, np.block([[Sv, Rv], [Rv.T, -Sv]]))

    def test_bmat_shape_checks(self):
        S, R = self.reg.expr("S"), self.reg.expr("R")
        with pytest.raises(InputError):
            AffineExpr.bmat([[S, R], [R]])

    def test_sym_of(self):
        R = self.reg.expr("R")
        blk = sym_of(R @ self.M, label="test")
        v = blk.evaluate(self.x)
        direct = self.val(R) @ self.M
        assert np.allclose(v, direct + direct.T)
        assert np.allclose(v, v.T)

    def test_block_of_rejects_asymmetric(self):
        R = self.reg.expr("R")
        with pytest.raises(InputError, match="symmetric"):
            block_of(R + np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_constructor_checks_layout(self):
        two = np.zeros((3, 2, 2))
        assert AffineExpr([1, 4], two).shape == (2, 2)
        for slots, stack in (([1, 4], np.zeros((2, 2, 2))),
                             ([1, 4], np.zeros((4, 2, 2))),
                             ([1, 4], np.zeros((2, 2)))):
            with pytest.raises(InputError, match="stack"):
                AffineExpr(slots, stack)
        for slots in ([4, 4], [4, 1]):
            with pytest.raises(InputError, match="increasing"):
                AffineExpr(slots, two)

    def _compose(self, rng, pool):
        """One random operation, applied alike to each form in the entries."""
        def const(rows, cols):
            return rng.standard_normal((rows, cols)) / np.sqrt(cols)

        a, b = (pool[i] for i in rng.integers(len(pool), size=2))
        rows, cols = a[-1].shape
        # Fit b to a's shape by constant products, so that any two combine.
        L, R = const(rows, b[-1].shape[0]), const(b[-1].shape[1], cols)
        b = [L @ f @ R for f in b]
        op = rng.integers(8)
        if op == 0:
            return [f + g for f, g in zip(a, b)]
        if op == 1:
            return [f - g for f, g in zip(a, b)]
        if op == 2:
            c = float(rng.uniform(-2.0, 2.0))
            return [c * f for f in a]
        if op == 3:
            return [-f for f in a]
        if op == 4:
            return [f.T for f in a]
        if op == 5:
            M = const(cols, int(rng.integers(1, 5)))
            return [f @ M for f in a]
        if op == 6:
            M = const(int(rng.integers(1, 5)), rows)
            return [M @ f for f in a]
        M, N, C = const(rows, 2), const(1, rows), const(1, 2)
        return [bmat([[f, M], [N @ g, C]]) for bmat, f, g in
                zip((AffineExpr.bmat, _DictExpr.bmat, np.block), a, b)]

    def test_random_compositions(self):
        # One symmetric, one skew and one rectangular variable.  Each
        # composition is made three ways: as an AffineExpr, in the reference
        # dict form, and on values read from x without the registry.
        reg = VariableRegistry()
        reg.add("S", "symmetric", 3)
        reg.add("W", "skew", 3)
        reg.add("R", "rectangular", 3, 2)
        rng = np.random.default_rng(31)
        x = rng.standard_normal(reg.num_slots)
        values = _variable_values(x)
        pool = [[reg.expr(name), _DictExpr.variable(reg, name), values[name]]
                for name in ("S", "W", "R")]
        for _ in range(300):
            pool.append(self._compose(rng, pool))
        for expr, ref, value in pool:
            assert expr.slots.dtype.kind == "i"
            assert np.all(np.diff(expr.slots) > 0)
            assert expr.stack.shape == (len(expr.slots) + 1, *expr.shape)
            # The stacked arithmetic is the reference's, bit for bit.
            slots, stack = ref.stacked()
            assert np.array_equal(expr.slots, slots)
            assert np.array_equal(expr.stack, stack)
            np.testing.assert_allclose(expr.evaluate(x), value, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(value).max()))
        # Sums and blocks of all three variables do occur.
        assert max(len(e.slots) for e, _, _ in pool) == reg.num_slots

class TestBlockStack:
    def setup_method(self):
        # R is registered after S but enters the expression first, so its
        # operands do not come in slot order.
        self.reg = VariableRegistry()
        self.reg.add("S", "symmetric", 3)
        self.reg.add("W", "skew", 3)
        self.reg.add("R", "rectangular", 3, 3)
        rng = np.random.default_rng(11)
        M1, M2, C = (rng.standard_normal((3, 3)) for _ in range(3))
        S, W, R = (self.reg.expr(n) for n in ("S", "W", "R"))
        self.expr = R @ M2 + M1 @ S + 0.5 * W + C
        self.xs = [rng.standard_normal(self.reg.num_slots) for _ in range(5)]

    def _check_layout(self, blk):
        assert np.all(np.diff(blk.slots) > 0)
        assert blk.stack.shape == (len(blk.slots), 3, 3)

    def test_sym_of_matches_expression(self):
        blk = sym_of(self.expr)
        self._check_layout(blk)
        for x in self.xs:
            e = self.expr.evaluate(x)
            np.testing.assert_allclose(blk.evaluate(x), e + e.T, rtol=0, atol=1e-12)

    def test_block_of_matches_expression(self):
        sym = self.expr + self.expr.T
        for expr in (sym, AffineExpr.constant(np.eye(3))):
            blk = block_of(expr)
            self._check_layout(blk)
            for x in self.xs:
                np.testing.assert_allclose(blk.evaluate(x), expr.evaluate(x),
                                           rtol=0, atol=1e-12)


class TestBarrierDerivatives:
    """grad_hess against central differences of the barrier value alone."""

    def _problem(self, rng):
        # Three blocks over six slots: two overlap on slots 2-3, the third
        # is constant.
        def block(dim, slots):
            def sym():
                M = rng.standard_normal((dim, dim))
                return (M + M.T) / 2.0
            return block_of(AffineExpr(slots, [sym()] + [sym() for _ in slots]))
        blocks = [block(3, [0, 1, 2, 3]), block(4, [2, 3, 4, 5]),
                  block(2, [])]
        return _Barrier(blocks, 6, box=5.0)

    def _interior(self, rng, barrier):
        x = rng.uniform(-1.0, 1.0, barrier.nx)
        t = max(np.linalg.eigvalsh(b.evaluate(x))[-1] for b in barrier.blocks)
        return np.append(x, t + rng.uniform(0.5, 2.0))

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        barrier = self._problem(rng)

        def f(z):
            factors = barrier.slacks(z)
            assert factors is not None
            return barrier.value(z, factors)

        for _ in range(3):
            z = self._interior(rng, barrier)
            g, H = barrier.grad_hess(z, barrier.slacks(z))
            I = np.eye(len(z))
            h1, h2 = 1e-5, 1e-4
            g_fd = np.array([(f(z + h1 * e) - f(z - h1 * e)) / (2 * h1) for e in I])
            H_fd = np.array([[(f(z + h2 * (ei + ej)) - f(z + h2 * (ei - ej))
                               - f(z - h2 * (ei - ej)) + f(z - h2 * (ei + ej)))
                              / (4 * h2 * h2) for ej in I] for ei in I])
            assert np.abs(g - g_fd).max() <= 1e-6 * np.abs(g).max()
            assert np.abs(H - H_fd).max() <= 1e-4 * np.abs(H).max()



def _reference_slacks(barrier, z):
    """Cholesky factors of t I - F_j(x) as the barrier first computed them."""
    x, t = z[:-1], z[-1]
    if np.abs(x).max(initial=0.0) >= barrier.box:
        return None
    factors = []
    for b in barrier.blocks:
        F = b.F0 + np.tensordot(x[b.slots], b.stack, 1)
        try:
            factors.append(sla.cholesky(t * np.eye(b.dim) - F, lower=True,
                                        check_finite=False))
        except sla.LinAlgError:
            return None
    return factors


def _reference_value(barrier, z, factors):
    x = z[:-1]
    logdet = sum(2.0 * np.sum(np.log(np.diag(L))) for L in factors)
    return -logdet - (np.sum(np.log(barrier.box - x))
                      + np.sum(np.log(barrier.box + x)))


def _reference_grad_hess(barrier, z, factors):
    x, nx = z[:-1], barrier.nx
    g, H = np.zeros(nx + 1), np.zeros((nx + 1, nx + 1))
    for b, L in zip(barrier.blocks, factors):
        Linv = sla.lapack.dtrtri(L, lower=1)[0]
        W = Linv @ np.concatenate([-np.eye(b.dim)[None], b.stack]) @ Linv.T
        Wf = W.reshape(len(W), -1)
        idx = np.concatenate([[nx], b.slots])
        g[idx] += np.trace(W, axis1=1, axis2=2)
        H[np.ix_(idx, idx)] += Wf @ Wf.T
    up, dn = 1.0 / (barrier.box - x), 1.0 / (barrier.box + x)
    g[:-1] += up - dn
    H[np.arange(nx), np.arange(nx)] += up ** 2 + dn ** 2
    return g, H


def _reference_dual_lower_bound(barrier, factors):
    """The inverse-slack bound as first computed (cho_solve, tensordot)."""
    Sinvs = [sla.cho_solve((L, True), np.eye(L.shape[0]), check_finite=False)
             for L in factors]
    total = sum(np.trace(S) for S in Sinvs)
    bound = 0.0
    resid = np.zeros(barrier.nx)
    for b, Sinv in zip(barrier.blocks, Sinvs):
        Z = Sinv / total
        bound += float(np.sum(b.F0 * Z))
        resid[b.slots] += np.tensordot(b.stack, Z, 2)
    return bound - barrier.box * float(np.sum(np.abs(resid)))


class TestBarrierMatchesReference:
    """The barrier's operands, built once per solve, change no bit.

    The reference functions above are the per-call arithmetic the barrier
    used before (tensordot, scipy's Cholesky wrapper, np.ix_ scatter); every
    quantity must be bitwise equal to it, not merely close.
    """

    def _problem(self, rng):
        nx = int(rng.integers(6, 12))

        def block(dim, num):
            slots = np.sort(rng.choice(nx, size=num, replace=False))

            def sym():
                M = rng.standard_normal((dim, dim))
                return (M + M.T) / 2.0
            return block_of(AffineExpr(slots, [sym()] + [sym() for _ in slots]))
        # Slots are drawn from one pool, so blocks share some; one block is
        # constant and one is 1 x 1.
        blocks = [block(int(rng.integers(2, 6)), int(rng.integers(2, nx)))
                  for _ in range(int(rng.integers(1, 3)))]
        blocks += [block(int(rng.integers(1, 4)), 0), block(1, int(rng.integers(1, nx)))]
        blocks.insert(int(rng.integers(0, len(blocks))),
                      block(int(rng.integers(2, 5)), int(rng.integers(1, nx))))
        return _Barrier(blocks, nx, box=float(rng.uniform(2.0, 10.0)))

    def test_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            barrier = self._problem(rng)
            x = rng.uniform(-1.0, 1.0, barrier.nx)
            lam = max(np.linalg.eigvalsh(b.evaluate(x))[-1] for b in barrier.blocks)
            z = np.append(x, lam + rng.uniform(0.1, 2.0))
            for b in barrier.blocks:
                assert np.array_equal(b.evaluate(x),
                                      b.F0 + np.tensordot(x[b.slots], b.stack, 1))
            factors, ref = barrier.slacks(z), _reference_slacks(barrier, z)
            assert len(factors) == len(ref) == len(barrier.blocks)
            for L, R in zip(factors, ref):
                assert np.array_equal(L, R)
            assert np.array_equal(barrier.value(z, factors),
                                  _reference_value(barrier, z, ref))
            g, H = barrier.grad_hess(z, factors)
            g_ref, H_ref = _reference_grad_hess(barrier, z, ref)
            assert np.array_equal(g, g_ref)
            assert np.array_equal(H, H_ref)
            # The projected witness can only raise the bound.
            assert barrier.dual_lower_bound(factors) >= \
                _reference_dual_lower_bound(barrier, ref)

    def test_non_interior_points(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            barrier = self._problem(rng)
            x = rng.uniform(-1.0, 1.0, barrier.nx)
            lam = max(np.linalg.eigvalsh(b.evaluate(x))[-1] for b in barrier.blocks)
            outside = x.copy()
            outside[int(rng.integers(barrier.nx))] = barrier.box
            for z in (np.append(x, lam - 1e-3), np.append(outside, lam + 1.0)):
                assert barrier.slacks(z) is None
                assert _reference_slacks(barrier, z) is None

def _lp_problem(rng, num_x, num_rows):
    """Random diagonal (LP-shaped) feasibility problem and its data."""
    A = rng.standard_normal((num_rows, num_x))
    b = rng.standard_normal(num_rows) + 0.5
    reg = VariableRegistry()
    reg.add("x", "rectangular", num_x, 1)
    xe = reg.expr("x")
    # One 1x1 block per row: a_j^T x + b_j < 0.
    blocks = []
    for j in range(num_rows):
        row = A[j:j + 1, :]  # 1 x num_x
        expr = row @ xe + np.array([[b[j]]])
        blocks.append(block_of(expr, label=f"row{j}"))
    return A, b, reg, blocks


def _lp_optimum(A, b, box):
    """min t s.t. Ax + b <= t, |x| <= box via the reference LP solver."""
    num_rows, num_x = A.shape
    c = np.zeros(num_x + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A, -np.ones((num_rows, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=-b,
                  bounds=[(-box, box)] * num_x + [(None, None)])
    assert res.status == 0
    return res.fun


class TestSolveFeasibility:
    def test_simple_feasible(self):
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        x = reg.expr("x")
        # I + x*I < 0 on 2x2: feasible (x < -1).
        zero = AffineExpr.constant([[0.0]])
        diag_x = AffineExpr.bmat([[x, zero], [zero, x]])
        blk = block_of(np.eye(2) + diag_x, label="shifted")
        sol = solve_feasibility([blk], reg)
        assert sol.feasible
        assert max(sol.margins) <= -sol.feas_margin
        # Independent eigenvalue check of the returned assignment.
        F = blk.evaluate(sol.assignment)
        assert np.linalg.eigvalsh(F)[-1] <= -sol.feas_margin

    def test_constant_positive_block_infeasible(self):
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        x = reg.expr("x")
        blocks = [block_of(np.eye(1) + 0.0 * x, label="constant"),
                  block_of(x - 1.0, label="bounded")]
        sol = solve_feasibility(blocks, reg)
        assert sol.status == "Infeasible"
        assert sol.lower_bound > -sol.feas_margin

    def test_agrees_with_lp_oracle(self):
        # With and without first_certificate, which stops at the first
        # certificate of either verdict.
        rng = np.random.default_rng(42)
        box = 10.0
        checked = 0
        for _ in range(30):
            A, b, reg, blocks = _lp_problem(rng, int(rng.integers(1, 4)),
                                            int(rng.integers(2, 6)))
            t_star = _lp_optimum(A, b, box)
            if abs(t_star) < 1e-3:
                continue  # skip the deliberately undecidable boundary band
            for first_certificate in (False, True):
                sol = solve_feasibility(blocks, reg, box_bound=box,
                                        first_certificate=first_certificate)
                if t_star < 0:
                    assert sol.feasible, (t_star, sol.status)
                    assert np.all(A @ sol.assignment + b < 0)
                else:
                    assert sol.status == "Infeasible", (t_star, sol.status)
                    # the certified bound must honor the true optimum
                    assert sol.lower_bound <= t_star + 1e-6
            checked += 1
        assert checked >= 20

    def test_feasible_margins_are_independent_eigenvalues(self):
        rng = np.random.default_rng(7)
        A, b, reg, blocks = _lp_problem(rng, 3, 4)
        b -= 5.0  # comfortably feasible
        blocks = [block_of(A[j:j + 1, :] @ reg.expr("x") + np.array([[b[j]]]))
                  for j in range(4)]
        sol = solve_feasibility(blocks, reg)
        assert sol.feasible
        for blk, margin in zip(blocks, sol.margins):
            lam = np.linalg.eigvalsh(blk.evaluate(sol.assignment))[-1]
            assert lam == pytest.approx(margin, abs=1e-12)

    def test_homogeneous_feasible_scales_with_box(self):
        # sym(a*x) < 0 for scalar: feasible margin grows linearly with box.
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        blk = block_of(reg.expr("x"), label="hom")
        small = solve_feasibility([blk], reg, box_bound=10.0)
        large = solve_feasibility([blk], reg, box_bound=1000.0)
        assert small.feasible and large.feasible
        assert large.t < small.t / 10.0

    def test_first_certificate_ends_the_same_path_early(self):
        # x < 0 in the box: the default path drives t toward -box; the
        # first-certificate path is its prefix up to the first t <= -margin.
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        blk = block_of(reg.expr("x"), label="hom")
        full = solve_feasibility([blk], reg)
        first = solve_feasibility([blk], reg, first_certificate=True)
        assert full.feasible and first.feasible
        k = len(first.iterates)
        assert first.iterates == full.iterates[:k] and k < len(full.iterates)
        assert first.iterates[-1][1] <= -first.feas_margin
        assert all(row[1] > -first.feas_margin for row in first.iterates[:-1])
        assert first.newton_steps < full.newton_steps
        lam = np.linalg.eigvalsh(blk.evaluate(first.assignment))[-1]
        assert lam == pytest.approx(first.t, abs=1e-12)
        # The dual bound is taken at the stopping point and still bounds
        # the optimum.
        assert np.isfinite(first.lower_bound) and first.lower_bound <= full.t

    def test_first_certificate_ends_an_infeasible_path_early(self):
        # x < 0 and -x < 0 is infeasible with F(0) = 0, as the toolkit's
        # problems are: its witness Z = (1/2, 1/2) has A*(Z) = 0, which the
        # projected dual bound finds at once, while the full path needs
        # eta large enough for t - 2 nu / eta.  1 < 0 beside x < 1 has no
        # positive definite witness; the unprojected bound, which
        # first_certificate also takes after every step, certifies it
        # before the full path's round ends.
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        x = reg.expr("x")
        homogeneous = [block_of(x, label="negative"), block_of(-x, label="positive")]
        constant = [block_of(np.eye(1) + 0.0 * x, label="constant"),
                    block_of(x - 1.0, label="bounded")]
        for blocks in (homogeneous, constant):
            full = solve_feasibility(blocks, reg)
            first = solve_feasibility(blocks, reg, first_certificate=True)
            assert full.status == first.status == "Infeasible"
            k = len(first.iterates)
            assert first.iterates == full.iterates[:k] and k < len(full.iterates)
            assert first.newton_steps < full.newton_steps
            assert first.lower_bound > -first.feas_margin
            assert first.assignment is None
        assert solve_feasibility(homogeneous, reg,
                                 first_certificate=True).newton_steps == 1

    def test_badly_scaled_start(self):
        # lambda_max(F0) = 1e17, where a start margin of 1 rounds away and
        # t I - F0 is singular; a relative margin starts inside.
        reg = VariableRegistry()
        x = reg.expr(reg.add("x", "symmetric", 1))
        zero = AffineExpr.constant([[0.0]])
        blk = block_of(np.diag([1e17, -1.0]) + AffineExpr.bmat([[x, zero], [zero, x]]),
                       label="scaled")
        sol = solve_feasibility([blk], reg)
        assert sol.status == "Infeasible"
        assert sol.lower_bound > -sol.feas_margin

    def test_unfactorable_start_refused(self):
        reg = VariableRegistry()
        reg.add("x", "symmetric", 1)
        benign = LmiBlock(F0=-np.eye(1), slots=np.array([0]),
                          stack=np.ones((1, 1, 1)), label="benign")
        # lambda_max = 0 exactly, but t I - F0 at t = 1 rounds to a matrix
        # with no Cholesky factor; and a lambda_max at which t overflows.
        stiff = LmiBlock(F0=-5e15 * np.ones((2, 2)), slots=np.array([0]),
                         stack=np.eye(2)[None], label="stiff")
        huge = LmiBlock(F0=np.diag([np.finfo(float).max, -1.0]), slots=np.array([0]),
                        stack=np.eye(2)[None], label="huge")
        for blk in (stiff, huge):
            with pytest.raises(LmiNumericalError, match=f"block '{blk.label}'"):
                solve_feasibility([benign, blk], reg)

    def test_input_validation(self):
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        blk = block_of(reg.expr("x"))
        with pytest.raises(InputError):
            solve_feasibility([], reg)
        with pytest.raises(InputError):
            solve_feasibility([blk], reg, box_bound=0.0)
        bad = block_of(AffineExpr([5], [np.zeros((1, 1)), np.ones((1, 1))]))
        with pytest.raises(InputError, match="slot"):
            solve_feasibility([bad], reg)
        twice = LmiBlock(F0=np.zeros((1, 1)), slots=np.array([0, 0]),
                         stack=np.ones((2, 1, 1)))
        with pytest.raises(InputError, match="increasing"):
            solve_feasibility([twice], reg)

    def test_nonfinite_coefficients_rejected(self):
        reg = VariableRegistry()
        reg.add("x", "rectangular", 1, 1)
        blk = block_of(np.array([[np.nan]]) + 0.0 * reg.expr("x"))
        with pytest.raises(InputError, match="finite"):
            solve_feasibility([blk], reg)
