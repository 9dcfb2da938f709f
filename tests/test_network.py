"""Forward maps, batch normalization, and exact backpropagation."""

import inspect

import numpy as np
import pytest

from conftest import fd_loss_grad, max_rel_err, random_small_config

from twophase import bounds, cli, data, expressivity, linalg, losses, network, ntk, trainer
from twophase.expressivity import check_expressivity
from twophase.losses import SQUARED, loss_grad
from twophase.network import (
    NetworkSpec,
    Workspace,
    _softplus,
    _softplus_deriv,
    backprop,
    batch_statistics,
    batchnorm_forward,
    forward_hidden,
    forward_output,
    params_from_flat,
    params_zero,
    random_params,
    softplus,
    softplus_deriv,
)
from twophase.ntk import compute_kernel
from twophase.trainer import estimate_lipschitz, run_two_phase


class TestSoftplus:
    def test_value_at_zero(self):
        assert softplus(0.0, 100.0) == pytest.approx(np.log(2.0) / 100.0, rel=1e-12)

    def test_positive_branch_negligible_correction(self):
        assert softplus(1.0, 100.0) == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_branch_stays_positive(self):
        v = softplus(-1.0, 100.0)
        assert 0.0 < v <= 1e-40

    def test_no_overflow_for_large_arguments(self):
        assert np.isfinite(softplus(1e4, 100.0))
        assert softplus(1e4, 100.0) == pytest.approx(1e4)

    @pytest.mark.parametrize("sharpness", [1.0, 10.0, 100.0])
    def test_relu_envelope(self, sharpness):
        z = np.linspace(-10.0, 10.0, 4001)
        gap = softplus(z, sharpness) - np.maximum(z, 0.0)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= np.log(2.0) / sharpness + 1e-15)

    def test_derivative_matches_finite_differences(self):
        z = np.linspace(-3.0, 3.0, 601)
        h = 1e-6
        fd = (softplus(z + h, 10.0) - softplus(z - h, 10.0)) / (2 * h)
        np.testing.assert_allclose(softplus_deriv(z, 10.0), fd, atol=1e-8)


def _edge_values(rng):
    # signed zeros, the arguments where exp(-s|z|) underflows, and huge ones
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e6, -1e6, 74.5, -74.5])
    return np.concatenate([edges, rng.standard_normal(40) * 3.0,
                           rng.standard_normal(40) * 100.0]).reshape(8, 11)


class TestSoftplusOut:
    # softplus and softplus_deriv are pinned to the closed-form expressions
    # they replaced, and the kernels the workspace passes call, writing
    # into arrays the caller owns, must give the same bits

    @pytest.mark.parametrize("sharpness", [1.0, 10.0, 100.0])
    def test_softplus_out_bit_identical(self, rng, sharpness):
        z = _edge_values(rng)
        want = np.maximum(z, 0.0) + np.log1p(np.exp(-sharpness * np.abs(z))) / sharpness
        out, scratch = np.full_like(z, np.nan), np.full_like(z, np.nan)
        got = _softplus(z, sharpness, out, scratch)
        assert got is out
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(softplus(z, sharpness), want)

    @pytest.mark.parametrize("sharpness", [1.0, 10.0, 100.0])
    def test_softplus_deriv_out_bit_identical(self, rng, sharpness):
        z = _edge_values(rng)
        want = 0.5 * (1.0 + np.tanh(0.5 * sharpness * z))
        out = np.full_like(z, np.nan)
        assert _softplus_deriv(z, sharpness, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(softplus_deriv(z, sharpness), want)

    @pytest.mark.parametrize("value", [0.0, -745.0, 1e6, 3.5])
    def test_zero_d_input_returns_a_float(self, value):
        want = float(np.maximum(value, 0.0)
                     + np.log1p(np.exp(-100.0 * np.abs(value))) / 100.0)
        for z in (value, np.float64(value), np.array(value)):
            got = softplus(z, 100.0)
            assert type(got) is float and got == want
            assert type(softplus_deriv(z, 100.0)) is float


class TestBatchNorm:
    def test_symmetric_batch(self):
        out = batchnorm_forward([1.0, 2.0, 3.0], 1.0, 0.0, 0.0)
        np.testing.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_zero_variance_shift_only(self):
        out = batchnorm_forward([5.0, 5.0, 5.0], 2.0, 1.0, 1.0)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0], atol=1e-12)

    def test_matches_direct_formula(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        gamma, beta, eps = 0.5, -1.0, 0.1
        mu = z.mean()
        var = ((z - mu) ** 2).mean()
        want = gamma * (z - mu) / np.sqrt(var + eps) + beta
        np.testing.assert_allclose(batchnorm_forward(z, gamma, beta, eps), want, atol=1e-14)

    def test_output_mean_is_beta_and_limit_variance(self, rng):
        z = rng.standard_normal(64) * 3.0 + 1.0
        out = batchnorm_forward(z, 1.7, 0.3, 1e-12)
        assert out.mean() == pytest.approx(0.3, abs=1e-10)
        assert out.var() == pytest.approx(1.7**2, rel=1e-9)

    def test_matches_a_training_mode_pass(self):
        # one formula: the same bits as the BN output of forward_hidden
        spec = NetworkSpec((3, 5), 2, bn_flags=(True,))
        rng = np.random.default_rng(1)
        params = random_params(spec, rng)
        trace = forward_hidden(params, rng.standard_normal((7, 3)))
        got = batchnorm_forward(trace.affine[0], params.bn_scale[0], params.bn_shift[0],
                                spec.bn_epsilon)
        assert np.array_equal(got, trace.bn_cache[0][3])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            batchnorm_forward(np.array([]), 1.0, 0.0, 1e-5)


class TestForward:
    def test_zero_parameters_constant_features(self):
        spec = NetworkSpec((3, 4), 1, sharpness=50.0)
        h = forward_hidden(params_zero(spec), np.ones((5, 3))).hidden
        np.testing.assert_allclose(h, np.log(2.0) / 50.0, atol=1e-15)

    def test_identity_chain_is_iterated_softplus(self):
        # two hidden layers wired as identity blocks with a first-layer shift
        spec = NetworkSpec((3, 3, 3), 1, sharpness=10.0)
        p = params_zero(spec)
        alpha = 0.7
        p.weights[0][:] = np.eye(3)
        p.biases[0][:] = alpha
        p.weights[1][:] = np.eye(3)
        x = np.array([[0.2, -0.4, 1.1]])
        h = forward_hidden(p, x).hidden
        want = softplus(softplus(x + alpha, 10.0), 10.0)
        np.testing.assert_allclose(h, want, atol=1e-14)

    def test_row_permutation_equivariance_without_bn(self, rng):
        spec = NetworkSpec((4, 5, 3), 2, sharpness=10.0)
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        h = forward_hidden(p, x).hidden
        hp = forward_hidden(p, x[perm]).hidden
        np.testing.assert_array_equal(hp, h[perm])

    def test_bn_couples_rows_across_batch(self, rng):
        spec = NetworkSpec((3, 4), 1, sharpness=10.0, bn_flags=(True,))
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((5, 3))
        h = forward_hidden(p, x).hidden
        x2 = x.copy()
        x2[0] += 1.0
        h2 = forward_hidden(p, x2).hidden
        assert not np.allclose(h2[1:], h[1:])  # other rows move through the stats

    def test_frozen_stats_decouple_rows(self, rng):
        spec = NetworkSpec((3, 4), 1, sharpness=10.0, bn_flags=(True,))
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((5, 3))
        stats = batch_statistics(forward_hidden(p, x))
        h = forward_hidden(p, x, frozen_stats=stats).hidden
        x2 = x.copy()
        x2[0] += 1.0
        h2 = forward_hidden(p, x2, frozen_stats=stats).hidden
        np.testing.assert_array_equal(h2[1:], h[1:])

    def test_trace_reproducible_bit_exact(self, rng):
        spec = NetworkSpec((3, 4, 2), 2, sharpness=30.0, bn_flags=(True, False))
        p = random_params(spec, rng, 0.6)
        x = rng.standard_normal((4, 3))
        t1 = forward_hidden(p, x)
        t2 = forward_hidden(p, x)
        for a, b in zip(t1.post, t2.post):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_names_layer(self, rng):
        spec = NetworkSpec((3, 4), 1)
        p = random_params(spec, rng, 1.0)
        with pytest.raises(ValueError, match="layer 1"):
            forward_hidden(p, np.zeros((2, 5)))

    def test_non_finite_input_rejected(self, rng):
        spec = NetworkSpec((3, 4), 1)
        p = random_params(spec, rng, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            forward_hidden(p, np.array([[0.0, np.nan, 1.0]]))


class TestForwardOutput:
    def test_constant_head(self, rng):
        spec = NetworkSpec((3, 4), 2, sharpness=10.0)
        p = random_params(spec, rng, 0.8)
        p.weights[-1][:] = 0.0
        p.biases[-1][:] = np.array([[2.5, -1.0]])
        f = forward_output(p, forward_hidden(p, rng.standard_normal((6, 3))))
        np.testing.assert_allclose(f, np.tile([2.5, -1.0], (6, 1)), atol=1e-15)

    def test_head_vectorization_identity(self, rng):
        # f(x)^T equals (I kron [h, 1]) applied to the flat head block
        spec = NetworkSpec((3, 5), 3, sharpness=10.0)
        p = random_params(spec, rng, 0.9)
        trace = forward_hidden(p, rng.standard_normal((4, 3)))
        h, f = trace.hidden, forward_output(p, trace)
        head_flat = np.vstack([p.weights[-1], p.biases[-1]]).ravel(order="F")
        for i in range(4):
            lhs = f[i]
            rhs = np.kron(np.eye(3), np.append(h[i], 1.0)) @ head_flat
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_triple_loop_matmul_oracle(self, rng):
        spec = NetworkSpec((2, 3), 2, sharpness=5.0)
        p = random_params(spec, rng, 1.0)
        trace = forward_hidden(p, rng.standard_normal((3, 2)))
        h, f = trace.hidden, forward_output(p, trace)
        for i in range(3):
            for k in range(2):
                acc = p.biases[-1][0, k]
                for j in range(3):
                    acc += h[i, j] * p.weights[-1][j, k]
                assert f[i, k] == pytest.approx(acc, rel=1e-12)

    def test_exactly_linear_in_head(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, sharpness=20.0)
        p = random_params(spec, rng, 0.7)
        x = rng.standard_normal((5, 3))
        q = p.copy()
        q.weights[-1][:] = rng.standard_normal(q.weights[-1].shape)
        q.biases[-1][:] = rng.standard_normal(q.biases[-1].shape)
        lam = 0.3
        mix = p.copy()
        mix.weights[-1][:] = lam * p.weights[-1] + (1 - lam) * q.weights[-1]
        mix.biases[-1][:] = lam * p.biases[-1] + (1 - lam) * q.biases[-1]
        # the head does not enter the pass, so one trace serves all three
        trace = forward_hidden(p, x)
        f_mix = forward_output(mix, trace)
        f_lin = lam * forward_output(p, trace) + (1 - lam) * forward_output(q, trace)
        assert max_rel_err(f_mix, f_lin) < 1e-12


class TestFlatLayout:
    def test_round_trip_identity(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(True, False))
        p = random_params(spec, rng, 1.0)
        flat = p.to_flat()
        assert flat.size == spec.param_count()
        q = params_from_flat(spec, flat)
        np.testing.assert_array_equal(q.to_flat(), flat)
        for a, b in zip(p.weights, q.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(p.bn_scale[0], q.bn_scale[0])

    def test_layer_sizes_sum(self):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(True, False))
        sizes = spec.layer_param_sizes()
        assert sizes == [(3 + 1) * 4 + 2 * 4, (4 + 1) * 5, (5 + 1) * 2]
        assert sum(sizes) == spec.param_count()


class TestParamsBuffer:
    SPEC = NetworkSpec((3, 4, 5), 2, bn_flags=(True, False))

    def test_view_writes_land_at_layer_offsets(self, rng):
        spec = self.SPEC
        buf = np.zeros(spec.param_count())
        p = params_from_flat(spec, buf)
        offsets = np.concatenate([[0], np.cumsum(spec.layer_param_sizes())])
        want = np.zeros_like(buf)
        for l in range(spec.depth + 1):
            w = rng.standard_normal(p.weights[l].shape)
            b = rng.standard_normal(p.biases[l].shape)
            p.weights[l][:] = w
            p.biases[l][:] = b
            stacked = np.vstack([w, b]).ravel(order="F")
            want[offsets[l] : offsets[l] + stacked.size] = stacked
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        p.bn_scale[0][:] = gamma
        p.bn_shift[0][:] = beta
        want[offsets[1] - 8 : offsets[1]] = np.concatenate([gamma, beta])
        np.testing.assert_array_equal(p.to_flat(), want)
        np.testing.assert_array_equal(buf, want)  # the wrapped vector is the buffer

    def test_to_flat_is_a_copy(self, rng):
        p = random_params(self.SPEC, rng, 1.0)
        before = p.flat.copy()
        flat = p.to_flat()
        flat[:] = 7.0
        np.testing.assert_array_equal(p.flat, before)
        assert not np.shares_memory(p.weights[0], flat)

    def test_rebinding_a_view_is_an_error(self, rng):
        p = random_params(self.SPEC, rng, 1.0)
        with pytest.raises(TypeError):
            p.weights[0] = np.zeros((3, 4))
        with pytest.raises(TypeError):
            p.biases[-1] = np.zeros((1, 2))
        with pytest.raises(TypeError):
            p.bn_scale[0] = np.ones(4)


class TestBackprop:
    def test_zero_upstream_gives_zero(self, rng):
        spec = NetworkSpec((3, 4), 2)
        p = random_params(spec, rng, 1.0)
        g = backprop(p, forward_hidden(p, rng.standard_normal((4, 3))),
                     np.zeros((4, 2)))
        np.testing.assert_array_equal(g, np.zeros(spec.param_count()))

    def test_head_block_closed_form(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, sharpness=10.0)
        p = random_params(spec, rng, 0.8)
        x = rng.standard_normal((6, 3))
        up = rng.standard_normal((6, 2))
        trace = forward_hidden(p, x)
        h, g = trace.hidden, backprop(p, trace, up)
        head = spec.head_param_count()
        want = np.vstack([h.T @ up, up.sum(axis=0, keepdims=True)]).ravel(order="F")
        np.testing.assert_allclose(g[-head:], want, atol=1e-12)

    def test_full_gradient_vs_finite_differences_with_bn(self, rng):
        spec = NetworkSpec((4, 5, 3), 2, sharpness=10.0, bn_flags=(True, True))
        p = random_params(spec, rng, 0.7)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 2))
        trace = forward_hidden(p, x)
        g = backprop(p, trace, loss_grad(SQUARED, forward_output(p, trace), y))
        fd = fd_loss_grad(p, x, y, SQUARED)
        assert max_rel_err(g, fd) < 1e-5

    def test_gradient_with_frozen_stats_vs_finite_differences(self, rng):
        spec = NetworkSpec((3, 4, 4), 1, sharpness=10.0, bn_flags=(True, False))
        p = random_params(spec, rng, 0.7)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 1))
        stats = batch_statistics(forward_hidden(p, x))
        trace = forward_hidden(p, x, frozen_stats=stats)
        g = backprop(p, trace, loss_grad(SQUARED, forward_output(p, trace), y))
        fd = fd_loss_grad(p, x, y, SQUARED, frozen_stats=stats)
        assert max_rel_err(g, fd) < 1e-5

    def test_many_random_configurations(self):
        rng = np.random.default_rng(314)
        for _ in range(12):
            spec, p, x = random_small_config(rng)
            y = rng.standard_normal((x.shape[0], spec.output_dim))
            trace = forward_hidden(p, x)
            g = backprop(p, trace, loss_grad(SQUARED, forward_output(p, trace), y))
            fd = fd_loss_grad(p, x, y, SQUARED)
            assert max_rel_err(g, fd) < 1e-5

    def test_upstream_shape_checked(self, rng):
        spec = NetworkSpec((3, 4), 2)
        p = random_params(spec, rng, 1.0)
        with pytest.raises(ValueError, match="upstream"):
            backprop(p, forward_hidden(p, rng.standard_normal((4, 3))),
                     np.zeros((4, 3)))


class TestTraceFirst:
    def test_pass_consumers_take_the_trace_of_forward_hidden(self):
        # forward_hidden is the one function that runs a pass; the others
        # read the inputs and any frozen statistics from its trace, and
        # every one reads the architecture from params.spec
        for fn, names in (
                (forward_hidden, ["params", "x", "frozen_stats", "work"]),
                (forward_output, ["params", "trace"]),
                (backprop, ["params", "trace", "upstream", "work"]),
                (compute_kernel, ["params", "trace", "work"]),
                (check_expressivity, ["params", "x"]),
                (estimate_lipschitz, ["params", "x", "y", "kind", "frozen_stats", "seed"]),
                (run_two_phase, ["params0", "dataset", "base", "cfg", "kind", "monitor_every",
                                 "record_sink", "bounds"])):
            assert list(inspect.signature(fn).parameters) == names, fn.__name__
        for module in (bounds, cli, data, expressivity, linalg, losses, network, ntk, trainer):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    params = set(inspect.signature(obj).parameters)
                    assert not ("spec" in params and params & {"params", "params0"}), name

    def test_frozen_statistics_come_from_the_trace(self, rng):
        # a gradient at a frozen-statistics pass differentiates through no
        # batch statistics, one at a training-mode pass does
        spec = NetworkSpec((3, 4, 4), 2, sharpness=10.0, bn_flags=(True, False))
        p = random_params(spec, rng, 0.7)
        x = rng.standard_normal((5, 3))
        up = rng.standard_normal((5, 2))
        training = forward_hidden(p, x)
        frozen = forward_hidden(p, x, batch_statistics(training))
        assert frozen.frozen_stats is not None and training.frozen_stats is None
        g_frozen, g_training = backprop(p, frozen, up), backprop(p, training, up)
        head = spec.head_param_count()
        np.testing.assert_array_equal(g_frozen[-head:], g_training[-head:])
        assert not np.allclose(g_frozen[:-head], g_training[:-head])


class TestWorkspace:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_pass_and_gradient_bit_identical_with_a_workspace(self, frozen):
        # random depths, widths and BN flags; a workspace sized for more rows
        # than the batch is written in its leading rows and reused
        rng = np.random.default_rng(2718)
        for _ in range(12):
            spec, p, x = random_small_config(rng)
            stats = batch_statistics(forward_hidden(p, x)) if frozen else None
            up = rng.standard_normal((x.shape[0], spec.output_dim))
            work = Workspace(spec, x.shape[0] + 3)
            for _ in range(2):
                want = forward_hidden(p, x, stats)
                got = forward_hidden(p, x, stats, work=work)
                for a, b in zip(got.affine + got.post, want.affine + want.post):
                    assert np.array_equal(a, b)
                g = backprop(p, got, up, work=work)
                assert g is work.grad
                assert np.array_equal(g, backprop(p, want, up))

    def test_trace_and_gradient_live_in_the_workspace(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, sharpness=10.0)
        p = random_params(spec, rng, 0.8)
        work = Workspace(spec, 6)
        trace = forward_hidden(p, rng.standard_normal((6, 3)), work=work)
        assert all(np.shares_memory(a, b) for a, b in zip(trace.post, work.post))
        assert all(np.shares_memory(a, b) for a, b in zip(trace.affine, work.affine))


class TestWithoutAWorkspace:
    def test_calls_share_no_memory(self):
        # a call that brings no workspace writes into one of its own, so
        # nothing it returns aliases what an earlier or later call returned
        rng = np.random.default_rng(3141)
        for _ in range(12):
            spec, p, x = random_small_config(rng)
            up = rng.standard_normal((x.shape[0], spec.output_dim))
            first, second = forward_hidden(p, x), forward_hidden(p, x)
            g1, g2 = backprop(p, first, up), backprop(p, second, up)
            k1, k2 = compute_kernel(p, first), compute_kernel(p, second)
            traced = first.affine + first.post
            for a in traced:
                for b in second.affine + second.post + [g1, g2, k1, k2]:
                    assert not np.shares_memory(a, b)
            assert not np.shares_memory(g1, g2) and not np.shares_memory(k1, k2)
            for a, b in zip(traced, second.affine + second.post):
                assert np.array_equal(a, b)
            assert np.array_equal(g1, g2) and np.array_equal(k1, k2)
