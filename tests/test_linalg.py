"""Rank and min-norm solve against brute-force oracles, and the certified
rank against the SVD count it replaces."""

import itertools

import numpy as np
import pytest

from twophase.linalg import (
    DecompositionError,
    RankDeficientError,
    as_matrix,
    certified_rank,
    min_norm_solve,
    numerical_rank,
)

EPS = np.finfo(np.float64).eps


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
        # a failed spectrum must never surface as rank 0; a full rank the
        # Cholesky factorization proves takes no SVD, and a deficient one,
        # whose factorization fails, is counted by the SVD
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        from twophase.linalg import DecompositionError
        assert numerical_rank(np.eye(3)) == 3
        with pytest.raises(DecompositionError, match="SVD"):
            numerical_rank(np.ones((3, 3)))
        with pytest.raises(DecompositionError, match="SVD"):
            numerical_rank(np.ones((2, 4)))
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


def _prescribed(rng, shape, ratio, rank=None):
    """A matrix of `shape` with singular values spaced geometrically from 1
    down to `ratio`, all past the first `rank` set to zero, at a random
    scale between 1e-40 and 1e40."""
    k = min(shape)
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    s = np.geomspace(1.0, ratio, k)
    s[k if rank is None else rank:] = 0.0
    return (u * s) @ v.T * 10.0 ** rng.uniform(-40.0, 40.0)


def _svd_count(m):
    # the stock count of singular values above max(rows, cols) eps sigma_max
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > max(m.shape) * EPS * s[0]))


class TestCertifiedRank:
    """A proved rank must be the count the SVD gives, and an unproved one is
    that count; only a well-conditioned full rank can be proved."""

    @pytest.mark.parametrize("shape", [(6, 6), (5, 9), (9, 5), (24, 30)],
                             ids=["square", "wide", "tall", "wide_24"])
    @pytest.mark.parametrize("exponent", range(2, 17))
    def test_agrees_with_the_svd_count(self, shape, exponent):
        rng = np.random.default_rng(100 * exponent + shape[0])
        for trial in range(4):
            rank = None if trial < 2 else int(rng.integers(1, min(shape)))
            m = _prescribed(rng, shape, 10.0 ** -exponent, rank)
            verdict = certified_rank(m)
            assert verdict.rank == _svd_count(m)
            if verdict.proved:
                assert verdict.rank == verdict.size == min(shape) and rank is None
                assert verdict.level > 0.0
            # a well-conditioned full rank is always proved, an
            # ill-conditioned or deficient one never
            if not 5 <= exponent <= 8:
                assert verdict.proved == (rank is None and exponent <= 4)

    @pytest.mark.parametrize("exponent", range(2, 17))
    def test_kernel_agrees_with_the_eigvalsh_count(self, exponent):
        rng = np.random.default_rng(exponent)
        for trial in range(4):
            rank = None if trial < 2 else int(rng.integers(1, 12))
            j = _prescribed(rng, (12, 20), 10.0 ** (-exponent / 2), rank)
            k = j @ j.T
            verdict = certified_rank(k, gram=True)
            values = np.linalg.eigvalsh(k)
            assert verdict.rank == int(np.count_nonzero(values > 12 * EPS * values[-1]))
            if verdict.proved:
                assert verdict.rank == 12 and rank is None
                assert values[0] > verdict.level >= 12 * EPS * np.trace(k)

    def test_a_floor_raises_the_level_not_the_count(self, rng):
        m = _prescribed(rng, (5, 9), 1e-2)
        gram = m @ m.T
        proved = certified_rank(m, floor=1e-3 * np.linalg.eigvalsh(gram)[0])
        assert proved.proved and proved.rank == 5
        counted = certified_rank(m, floor=np.trace(gram))
        assert not counted.proved and counted.rank == _svd_count(m) == 5

    def test_failed_spectrum_is_an_error_not_rank_zero(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for shape in ((6, 6), (5, 9), (9, 5)):
            with pytest.raises(DecompositionError, match="SVD failed"):
                certified_rank(_prescribed(rng, shape, 1e-3, rank=2))
            with pytest.raises(DecompositionError, match="SVD failed"):
                certified_rank(_prescribed(rng, shape, 1e-16))
        with pytest.raises(DecompositionError, match="spectrum of 4 x 4 kernel failed"):
            certified_rank(np.ones((4, 4)), gram=True)

    def test_tolerance_bound_takes_kernel_verdicts_only(self, rng):
        # a matrix verdict's level is on its Gram's scale, sigma^2, and its
        # spectrum on sigma's, so tolerance_bound refuses it, proved or
        # counted; its rank is the SVD count, and a kernel's bound is at
        # least its tolerance
        full = _prescribed(rng, (5, 9), 1e-2)
        deficient = _prescribed(rng, (5, 9), 1e-2, rank=3)
        for m in (full, deficient):
            verdict = certified_rank(m)
            assert verdict.rank == _svd_count(m)
            with pytest.raises(ValueError, match="kernel verdicts only"):
                verdict.tolerance_bound
            kernel = certified_rank(m @ m.T, gram=True)
            assert kernel.proved == (m is full)
            assert kernel.tolerance_bound >= kernel.tolerance

    def test_underflowing_and_zero_grams_are_counted(self):
        zero = certified_rank(np.zeros((3, 4)))
        assert not zero.proved and zero.rank == 0
        tiny = np.eye(3, 4) * 1e-160  # its Gram is subnormal
        verdict = certified_rank(tiny)
        assert not verdict.proved and verdict.rank == _svd_count(tiny) == 3
