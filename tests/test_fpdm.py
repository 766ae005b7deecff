"""Fractional-order positive-definite matrix set: membership and closure."""

import numpy as np
import pytest

from sfos import fpdm
from sfos.errors import InputError, NotMemberError, RankDeficientError
from sfos.fpdm import FpdmParam, block_matrix, congruence, is_member, materialize


def random_member(rng, n, alpha=0.5):
    """Random member: X diagonally dominant PD, Y small skew."""
    X = rng.standard_normal((n, n))
    X = X @ X.T + n * np.eye(n)
    Y = rng.standard_normal((n, n)) * 0.3
    Y = Y - Y.T
    return FpdmParam(X=X, Y=Y, alpha=alpha)


class TestFpdmParam:
    def test_identity_member(self):
        p = FpdmParam(X=np.eye(3), Y=np.zeros((3, 3)), alpha=0.5)
        assert is_member(p)
        assert np.allclose(materialize(p), np.sin(0.25 * np.pi) * np.eye(3))

    def test_nonsymmetric_x_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            FpdmParam(X=np.array([[1.0, 2.0], [0.0, 1.0]]),
                      Y=np.zeros((2, 2)), alpha=0.5)

    def test_nonskew_y_rejected(self):
        with pytest.raises(InputError, match="skew"):
            FpdmParam(X=np.eye(2), Y=np.eye(2), alpha=0.5)

    def test_alpha_above_one_rejected(self):
        with pytest.raises(InputError, match="above order 1"):
            FpdmParam(X=np.eye(2), Y=np.zeros((2, 2)), alpha=1.2)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            FpdmParam(X=np.eye(2), Y=np.zeros((3, 3)), alpha=0.5)


class TestMembership:
    def test_block_matrix_layout(self):
        rng = np.random.default_rng(0)
        p = random_member(rng, 2)
        B = block_matrix(p)
        assert np.allclose(B[:2, :2], p.X) and np.allclose(B[2:, 2:], p.X)
        assert np.allclose(B[:2, 2:], p.Y) and np.allclose(B[2:, :2], -p.Y)
        assert np.allclose(B, B.T)

    def test_skew_dominated_pair_not_member(self):
        # Large Y forces the block matrix indefinite even with X = I.
        Y = np.array([[0.0, 5.0], [-5.0, 0.0]])
        p = FpdmParam(X=np.eye(2), Y=Y, alpha=0.5)
        assert not is_member(p)

    def test_materialize_nonmember_raises_with_eigenvalue(self):
        p = FpdmParam(X=-np.eye(2), Y=np.zeros((2, 2)), alpha=0.5)
        with pytest.raises(NotMemberError) as exc:
            materialize(p)
        assert exc.value.smallest_eigenvalue == pytest.approx(-1.0)

    def test_member_implies_x_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_member(rng, int(rng.integers(1, 5)))
            assert is_member(p)
            assert np.linalg.eigvalsh(p.X)[0] > 0

    def test_integer_order_reduces_to_symmetric_pd(self):
        # alpha = 1: the Y contribution vanishes from P.
        rng = np.random.default_rng(2)
        p = random_member(rng, 3, alpha=1.0)
        P = materialize(p)
        assert np.allclose(P, p.X)


class TestCongruence:
    def test_closure_under_full_rank_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            p = random_member(rng, n)
            m = int(rng.integers(1, n + 1))
            M = rng.standard_normal((n, m))
            q = congruence(p, M)
            assert is_member(q)

    def test_materialize_commutes(self):
        rng = np.random.default_rng(4)
        p = random_member(rng, 3)
        M = rng.standard_normal((3, 2))
        q = congruence(p, M)
        assert np.allclose(materialize(q), M.T @ materialize(p) @ M)

    def test_rank_deficient_transform_rejected(self):
        rng = np.random.default_rng(5)
        p = random_member(rng, 3)
        M = np.ones((3, 2))  # two identical columns
        M[:, 1] = M[:, 0]
        with pytest.raises(RankDeficientError):
            congruence(p, M)

    def test_numerically_rank_deficient_transform_rejected(self):
        # diag(1, 1e-12) has rank 1 at the package's one rank threshold;
        # congruence by it would give a parameter that is not a member.
        p = FpdmParam(X=np.eye(2), Y=np.zeros((2, 2)), alpha=0.6)
        with pytest.raises(RankDeficientError):
            congruence(p, np.diag([1.0, 1e-12]))

    def test_nonmember_input_rejected(self):
        p = FpdmParam(X=-np.eye(2), Y=np.zeros((2, 2)), alpha=0.5)
        with pytest.raises(NotMemberError):
            congruence(p, np.eye(2))

    def test_materialized_member_has_pd_symmetric_part(self):
        # sym(P) = sin(alpha pi/2) X stays positive definite for members:
        # exactly the property the synthesis criteria rely on.
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_member(rng, 3, alpha=float(rng.uniform(0.1, 1.0)))
            P = materialize(p)
            assert np.linalg.eigvalsh((P + P.T) / 2.0)[0] > 0
