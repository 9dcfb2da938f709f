"""Rank and min-norm solve against brute-force oracles."""

import itertools

import numpy as np
import pytest

from twophase.linalg import (
    RankDeficientError,
    as_matrix,
    min_norm_solve,
    numerical_rank,
)


def oracle_rank_by_gram(m, scale_tol=1e-10):
    """Largest k such that some k-column subset has Gram determinant above
    a size-scaled threshold.  Exponential scan, usable for small matrices."""
    m = np.asarray(m)
    cols = m.shape[1]
    best = 0
    for k in range(1, cols + 1):
        for subset in itertools.combinations(range(cols), k):
            g = m[:, subset]
            if np.linalg.det(g.T @ g) > scale_tol * max(1.0, np.linalg.norm(g) ** (2 * k)):
                best = k
                break
    return best


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_duplicated_row(self):
        m = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert numerical_rank(m) == 1

    def test_random_full_rank_matches_gram_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 5))
        assert numerical_rank(m) == 5
        assert oracle_rank_by_gram(m) == 5

    def test_rank_deficient_matches_gram_oracle(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((8, 3))
        mix = rng.standard_normal((3, 5))
        m = base @ mix  # rank 3 by construction
        assert numerical_rank(m) == 3
        assert oracle_rank_by_gram(m) == 3

    def test_invariance_row_permutation_and_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((6, 4))
            r = numerical_rank(m)
            perm = rng.permutation(6)
            assert numerical_rank(m[perm]) == r
            scale = float(rng.uniform(0.1, 50.0)) * float(rng.choice([-1.0, 1.0]))
            assert numerical_rank(scale * m) == r

    def test_nonfinite_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 0.0]])

    def test_decomposition_failure_is_distinct_error(self, monkeypatch):
        # a failed factorization must never surface as rank 0
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        from twophase.linalg import DecompositionError
        with pytest.raises(DecompositionError, match="SVD"):
            numerical_rank(np.eye(3))
        with pytest.raises(DecompositionError, match="SVD"):
            min_norm_solve(np.eye(3), np.ones((3, 1)), np.zeros((3, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            numerical_rank(np.zeros((0, 3)))


class TestMinNormSolve:
    def test_square_invertible_returns_b(self, rng):
        b = rng.standard_normal((4, 2))
        anchor = rng.standard_normal((4, 2))
        z = min_norm_solve(np.eye(4), b, anchor)
        np.testing.assert_allclose(z, b, atol=1e-12)

    def test_feasible_anchor_returned_unchanged(self, rng):
        m = rng.standard_normal((3, 5))
        anchor = rng.standard_normal((5, 2))
        z = min_norm_solve(m, m @ anchor, anchor)
        np.testing.assert_allclose(z, anchor, atol=1e-10)

    def test_grid_oracle_one_dim_null_space(self, rng):
        m = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 1))
        anchor = np.zeros((3, 1))
        z = min_norm_solve(m, b, anchor)
        # null space of a 2x3 full-row-rank matrix is one-dimensional
        _, _, vt = np.linalg.svd(m)
        null = vt[2].reshape(3, 1)
        particular = np.linalg.pinv(m) @ b
        coeffs = np.linspace(-10.0, 10.0, 200_001)
        dists = np.linalg.norm(particular + null * coeffs[None, :] - anchor, axis=0)
        best = float(dists.min())
        assert np.linalg.norm(z - anchor) <= best + 1e-6

    def test_feasibility_and_optimality_invariants(self, rng):
        for _ in range(10):
            m = rng.standard_normal((3, 6))
            b = rng.standard_normal((3, 2))
            anchor = rng.standard_normal((6, 2))
            z = min_norm_solve(m, b, anchor)
            assert np.linalg.norm(m @ z - b) <= 1e-8 * (1 + np.linalg.norm(b))
            # no random feasible point may be closer to the anchor
            _, _, vt = np.linalg.svd(m)
            null_basis = vt[3:]  # 3 x 6
            d = np.linalg.norm(z - anchor)
            for _ in range(100):
                zz = z + null_basis.T @ rng.standard_normal((3, 2))
                assert np.linalg.norm(zz - anchor) >= d - 1e-9

    def test_rank_deficient_raises_with_rank(self):
        m = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(RankDeficientError, match="rank 1"):
            min_norm_solve(m, np.ones((3, 1)), np.zeros((2, 1)))

    def test_shape_validation(self, rng):
        m = rng.standard_normal((2, 3))
        with pytest.raises(ValueError, match="anchor"):
            min_norm_solve(m, rng.standard_normal((2, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError, match="rows"):
            min_norm_solve(m, rng.standard_normal((3, 1)), np.zeros((3, 1)))

    def test_one_svd_and_no_lstsq(self, rng, monkeypatch):
        # the rank test and the pseudo-inverse come from the same thin SVD
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("min_norm_solve called lstsq")

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        m = rng.standard_normal((4, 7))
        b = rng.standard_normal((4, 3))
        anchor = rng.standard_normal((7, 3))
        z = min_norm_solve(m, b, anchor)
        assert len(calls) == 1
        np.testing.assert_allclose(z, anchor + np.linalg.pinv(m) @ (b - m @ anchor),
                                   rtol=1e-12, atol=1e-12)
