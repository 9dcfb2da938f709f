"""Loss values, gradients, convexity, and Lipschitz gradient sampling."""

import numpy as np
import pytest

from conftest import max_rel_err

from twophase.losses import (
    CROSS_ENTROPY,
    SQUARED,
    _log_softmax,
    loss_by_name,
    loss_grad,
    loss_value,
)


class TestValues:
    def test_squared_interpolation_is_zero(self, rng):
        f = rng.standard_normal((4, 3))
        assert loss_value(SQUARED, f, f) == 0.0

    def test_squared_hand_value(self):
        assert loss_value(SQUARED, [[1.0], [0.0]], [[0.0], [0.0]]) == pytest.approx(0.5)

    def test_cross_entropy_uniform_logits(self):
        v = loss_value(CROSS_ENTROPY, [[0.0, 0.0]], [[1.0, 0.0]])
        assert v == pytest.approx(np.log(2.0), rel=1e-12)

    def test_cross_entropy_stable_at_large_logits(self):
        v = loss_value(CROSS_ENTROPY, [[1000.0, 0.0]], [[1.0, 0.0]])
        assert np.isfinite(v) and v >= 0.0

    def test_cross_entropy_target_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            loss_value(CROSS_ENTROPY, [[0.0, 0.0]], [[0.7, 0.7]])
        with pytest.raises(ValueError, match="nonnegative"):
            loss_value(CROSS_ENTROPY, [[0.0, 0.0]], [[1.5, -0.5]])

    @pytest.mark.parametrize("fn", [loss_value, loss_grad], ids=["value", "grad"])
    def test_public_functions_check_their_inputs(self, fn):
        # the trainer checks its data once and calls the unchecked kernels;
        # the public functions keep every check
        with pytest.raises(ValueError, match="non-finite"):
            fn(SQUARED, [[np.nan, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="sums to 0.9"):
            fn(CROSS_ENTROPY, [[0.0, 0.0]], [[0.9, 0.0]])
        with pytest.raises(ValueError, match="differ in shape"):
            fn(SQUARED, [[0.0, 0.0]], [[0.0, 0.0, 0.0]])

    def test_by_name(self):
        assert loss_by_name("squared") is SQUARED
        assert loss_by_name("cross_entropy") is CROSS_ENTROPY
        with pytest.raises(ValueError):
            loss_by_name("hinge")


class TestGradients:
    def test_squared_stationary_at_interpolation(self, rng):
        f = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(loss_grad(SQUARED, f, f), np.zeros((3, 2)))

    def test_cross_entropy_uniform_minus_target(self):
        g = loss_grad(CROSS_ENTROPY, [[0.0, 0.0]], [[1.0, 0.0]])
        np.testing.assert_allclose(g, [[-0.5, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_finite_difference_check(self, kind, rng):
        n, m = 5, 3
        f = rng.standard_normal((n, m))
        if kind is CROSS_ENTROPY:
            y = np.abs(rng.standard_normal((n, m)))
            y /= y.sum(axis=1, keepdims=True)
        else:
            y = rng.standard_normal((n, m))
        g = loss_grad(kind, f, y)
        h = 1e-6
        fd = np.empty_like(f)
        for i in range(n):
            for j in range(m):
                fp = f.copy()
                fp[i, j] += h
                fm = f.copy()
                fm[i, j] -= h
                fd[i, j] = (loss_value(kind, fp, y) - loss_value(kind, fm, y)) / (2 * h)
        assert max_rel_err(g, fd) < 1e-6


class TestConvexityAndSmoothness:
    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_convex_along_segments(self, kind):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n, m = 4, 3
            f1 = rng.standard_normal((n, m)) * 2
            f2 = rng.standard_normal((n, m)) * 2
            if kind is CROSS_ENTROPY:
                y = np.abs(rng.standard_normal((n, m)))
                y /= y.sum(axis=1, keepdims=True)
            else:
                y = rng.standard_normal((n, m))
            lam = rng.random()
            mixed = loss_value(kind, lam * f1 + (1 - lam) * f2, y)
            chord = lam * loss_value(kind, f1, y) + (1 - lam) * loss_value(kind, f2, y)
            assert mixed <= chord + 1e-12

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY])
    def test_per_sample_gradient_lipschitz(self, kind):
        # per-sample gradient is n * loss_grad row; constant stored on the kind
        rng = np.random.default_rng(56)
        n, m = 1, 4
        for _ in range(1000):
            q1 = rng.standard_normal((n, m)) * 3
            q2 = rng.standard_normal((n, m)) * 3
            if kind is CROSS_ENTROPY:
                y = np.abs(rng.standard_normal((n, m)))
                y /= y.sum(axis=1, keepdims=True)
            else:
                y = rng.standard_normal((n, m))
            dg = np.linalg.norm(n * (loss_grad(kind, q1, y) - loss_grad(kind, q2, y)))
            dq = np.linalg.norm(q1 - q2)
            assert dg <= kind.lipschitz * dq + 1e-12


class TestLogSoftmax:
    @pytest.mark.parametrize("m_y", [1, 2, 4, 10, 50])
    def test_bit_identical_to_the_keepdims_row_max(self, m_y):
        # the row max comes from the rows of a contiguous f.T; a max is exact
        # in any order, so every bit matches a max over axis 1
        rng = np.random.default_rng(m_y)
        random = rng.standard_normal((64, m_y)) * 5.0
        ties = np.floor(rng.standard_normal((64, m_y)) * 1.5)
        ties[:8] = 3.0
        extreme = 700.0 * rng.choice([-1.0, 1.0], size=(64, 1)) + rng.standard_normal((64, m_y))
        for f in (random, ties, extreme):
            shifted = f - f.max(axis=1, keepdims=True)
            want = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            got = _log_softmax(f)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
