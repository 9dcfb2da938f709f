"""The two-phase loop: masking, perturbation, schedules, and guarantees."""

import math
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import twophase
import twophase.ntk as ntk
import twophase.trainer as trainer
from twophase.cli import DEFAULT_CONFIG
from twophase.data import synth_gen
from twophase.linalg import append_ones, numerical_rank
from twophase.losses import CROSS_ENTROPY, SQUARED, loss_grad
from twophase.network import (
    NetworkSpec,
    Workspace,
    backprop,
    forward_hidden,
    forward_output,
    init_params,
    params_from_flat,
    random_params,
)
from twophase.trainer import (
    BaseAlgoConfig,
    FeatureRankError,
    TwoPhaseConfig,
    compute_L_H,
    estimate_lipschitz,
    nu_mask,
    perturb,
    run_two_phase,
)


class TestNuMask:
    def test_counts(self):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(True, False))
        mask = nu_mask(spec)
        assert mask.size == spec.param_count()
        assert mask.sum() == (5 + 1) * 2
        assert np.all(mask[: spec.hidden_param_count()] == 0.0)

    def test_masks_only_head_entries(self, rng):
        spec = NetworkSpec((3, 4, 5), 2)
        p = random_params(spec, rng, 1.0)
        masked = nu_mask(p) * p.to_flat()
        head = spec.head_param_count()
        np.testing.assert_array_equal(masked[:-head], 0.0)
        np.testing.assert_array_equal(masked[-head:], p.to_flat()[-head:])

    def test_idempotent(self):
        spec = NetworkSpec((3, 4, 5), 2)
        mask = nu_mask(spec)
        np.testing.assert_array_equal(mask * mask, mask)

    def test_accepts_params_and_spec(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(False, True))
        p = random_params(spec, rng, 1.0)
        np.testing.assert_array_equal(nu_mask(spec), nu_mask(p))
        with pytest.raises(TypeError):
            nu_mask(np.zeros(3))


class TestPerturb:
    def test_head_bit_identical(self, rng):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(True, False))
        p = random_params(spec, rng, 1.0)
        q = perturb(p, 0.1, seed=4)
        np.testing.assert_array_equal(q.weights[-1], p.weights[-1])
        np.testing.assert_array_equal(q.biases[-1], p.biases[-1])
        assert not np.allclose(q.weights[0], p.weights[0])
        assert not np.allclose(q.bn_scale[0], p.bn_scale[0])

    def test_deterministic(self, rng):
        spec = NetworkSpec((3, 4, 5), 2)
        p = random_params(spec, rng, 1.0)
        a = perturb(p, 0.05, seed=9)
        b = perturb(p, 0.05, seed=9)
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())

    def test_monte_carlo_noise_energy(self):
        spec = NetworkSpec((3, 4, 5), 2, bn_flags=(True, True))
        p = init_params(spec, seed=0)
        sigma = np.array([0.02, 0.5])
        sizes = spec.layer_param_sizes()
        want = sigma[0] ** 2 * sizes[0] + sigma[1] ** 2 * sizes[1]
        flat = p.to_flat()
        total = 0.0
        draws = 1000
        for s in range(draws):
            total += np.sum((perturb(p, sigma, seed=s).to_flat() - flat) ** 2)
        assert total / draws == pytest.approx(want, rel=0.05)

    def test_scale_validation(self, rng):
        spec = NetworkSpec((3, 4, 5), 2)
        p = random_params(spec, rng, 1.0)
        with pytest.raises(ValueError, match="positive"):
            perturb(p, 0.0, seed=1)
        with pytest.raises(ValueError, match="noise scales"):
            perturb(p, [0.1, 0.1, 0.1], seed=1)
        for bad in (math.nan, math.inf, [0.1, math.nan]):
            with pytest.raises(ValueError, match="noise_scale must be positive and finite"):
                perturb(p, bad, seed=1)


class TestComputeLH:
    def test_zero_features_leave_bias_term(self):
        assert compute_L_H(SQUARED, np.zeros((7, 4))) == pytest.approx(SQUARED.lipschitz)

    def test_hand_value(self):
        assert compute_L_H(SQUARED, np.array([[1.0, 1.0]])) == pytest.approx(6.0)

    def test_row_loop_oracle(self, rng):
        h = rng.standard_normal((16, 9))
        acc = 0.0
        for i in range(16):
            acc += h[i] @ h[i] + 1.0
        assert compute_L_H(SQUARED, h) == pytest.approx(SQUARED.lipschitz * acc / 16, rel=1e-12)


class TestConfigs:
    def test_tau_fraction(self):
        cfg = TwoPhaseConfig.from_fraction(0.6, 100)
        assert cfg.tau == 60
        with pytest.raises(ValueError):
            TwoPhaseConfig.from_fraction(1.5, 100)

    @pytest.mark.parametrize("fraction, steps, tau", [
        (0.29, 100, 29), (0.29, 200, 58), (0.57, 100, 57),
        (0.57, 200, 114), (0.58, 100, 58), (0.58, 200, 116)])
    def test_tau_fraction_floors_the_written_decimal(self, fraction, steps, tau):
        # the float product lands just below the integer it stands for
        assert fraction * steps < tau
        assert TwoPhaseConfig.from_fraction(fraction, steps).tau == tau

    def test_tau_fraction_exact_over_a_grid(self):
        for i in range(101):
            for steps in (10, 100, 200, 500, 1000, 4000):
                assert TwoPhaseConfig.from_fraction(i / 100, steps).tau == i * steps // 100
        # repr writes these with an exponent; the float products of 3.5e-05
        # and 7e-05 with 10**7 floor one too low
        for fraction in (1e-05, 3.5e-05, 7e-05, 5.7e-07):
            for steps in (10**5, 10**6, 10**7, 10**8):
                want = math.floor(Fraction(repr(fraction)) * steps)
                assert TwoPhaseConfig.from_fraction(fraction, steps).tau == want

    def test_tau_fraction_of_the_shipped_configs_unchanged(self):
        # the benchmark workloads (0.6 of 4000 and of 1000 steps) and the
        # default sweep grid give the tau the float product gave
        assert TwoPhaseConfig.from_fraction(0.6, 4000).tau == 2400
        assert TwoPhaseConfig.from_fraction(0.6, 1000).tau == 600
        steps = DEFAULT_CONFIG["two_phase"]["total_steps"]
        for fraction in DEFAULT_CONFIG["sweep"]["tau_fractions"]:
            assert TwoPhaseConfig.from_fraction(fraction, steps).tau == int(np.floor(fraction * steps))

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            TwoPhaseConfig(tau=5, total_steps=4)
        with pytest.raises(ValueError, match="non-degenerate"):
            TwoPhaseConfig(tau=0, total_steps=4, noise_scale=0.0)
        with pytest.raises(ValueError, match="phase2_mode"):
            TwoPhaseConfig(tau=0, total_steps=4, phase2_mode="adam")
        with pytest.raises(ValueError, match="momentum"):
            BaseAlgoConfig(momentum=1.0)
        with pytest.raises(ValueError, match="eta_bar"):
            TwoPhaseConfig(tau=0, total_steps=4, phase2_mode="lazy_full", lazy_eta_bar=1.5)
        with pytest.raises(ValueError, match="sgd_minibatch"):
            TwoPhaseConfig(tau=0, total_steps=4, phase2_mode="last_layer_sgd", sgd_minibatch=0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lazy_lipschitz"):
                TwoPhaseConfig(tau=0, total_steps=4, phase2_mode="lazy_full", lazy_lipschitz=bad)
        assert TwoPhaseConfig(tau=0, total_steps=4, lazy_lipschitz=None).lazy_lipschitz is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        # each check is written so that NaN, which fails every comparison,
        # fails it too
        for field, make in [
            ("learning_rate", lambda: BaseAlgoConfig(learning_rate=bad)),
            ("weight_decay", lambda: BaseAlgoConfig(weight_decay=bad)),
            ("momentum", lambda: BaseAlgoConfig(momentum=bad)),
            ("noise_scale", lambda: TwoPhaseConfig(tau=0, total_steps=4, noise_scale=bad)),
            ("noise_scale", lambda: TwoPhaseConfig(tau=0, total_steps=4,
                                                   noise_scale=(1e-3, bad))),
            ("sgd_rate_scale", lambda: TwoPhaseConfig(tau=0, total_steps=4,
                                                      sgd_rate_scale=bad)),
            ("eta_bar", lambda: TwoPhaseConfig(tau=0, total_steps=4, phase2_mode="lazy_full",
                                               lazy_eta_bar=bad)),
            ("sharpness", lambda: NetworkSpec((3, 4, 5), 2, sharpness=bad)),
            ("bn_epsilon", lambda: NetworkSpec((3, 4, 5), 2, bn_epsilon=bad)),
        ]:
            with pytest.raises(ValueError, match=field):
                make()

    def test_negative_monitor_every_rejected(self):
        ds, spec, p0 = _toy_problem(seed=3)
        seen = []
        with pytest.raises(ValueError, match="monitor_every must be >= 0"):
            run_two_phase(spec, p0, ds, BaseAlgoConfig(variant="gd"),
                          TwoPhaseConfig(tau=2, total_steps=4), SQUARED, monitor_every=-3,
                          record_sink=seen.append)
        assert not seen


def _toy_problem(seed=0, n=10, m_x=4, m_y=2, m_h=12, sharpness=10.0, bn=False):
    ds = synth_gen(n, m_x, m_y, 0.03, "regression", seed=seed)
    flags = (False, bn)
    spec = NetworkSpec((m_x, m_x * 2, m_h), m_y, sharpness=sharpness, bn_flags=flags)
    return ds, spec, init_params(spec, seed=seed)


def _count_forward_passes(monkeypatch):
    # the trainer's own passes and those the kernel makes when given no trace
    calls = []
    forward = trainer.forward_hidden

    def counting(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)
    monkeypatch.setattr(trainer, "forward_hidden", counting)
    monkeypatch.setattr(ntk, "forward_hidden", counting)
    return calls


class TestRunTwoPhase:
    def test_record_count_and_phases(self):
        ds, spec, p0 = _toy_problem()
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=7, total_steps=20, seed=0)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        assert len(log.records) == 20
        assert [r.phase for r in log.records] == [1] * 7 + [2] * 13
        assert [r.t for r in log.records] == list(range(1, 21))

    def test_tau_zero_gd_monotone(self):
        ds, spec, p0 = _toy_problem(seed=3)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=0, total_steps=120, phase2_mode="last_layer_gd", seed=3)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        losses = [log.loss_at_tau] + [r.loss for r in log.records]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(losses, losses[1:]))

    def test_degenerate_split_is_base_plus_perturbation(self):
        ds, spec, p0 = _toy_problem(seed=4)
        lr, wd, T = 0.02, 1e-4, 15
        base = BaseAlgoConfig(variant="gd", learning_rate=lr, weight_decay=wd, minibatch=10)
        cfg = TwoPhaseConfig(tau=T, total_steps=T, noise_scale=0.01, seed=11)
        params, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        # oracle: plain full-batch descent, then one hidden-layer perturbation
        from twophase.losses import loss_value
        from twophase.network import forward_hidden
        w = p0.to_flat()
        for _ in range(T):
            cur = params_from_flat(spec, w)
            trace = forward_hidden(spec, cur, ds.x)
            f = trace.hidden @ cur.weights[-1] + cur.biases[-1]
            g = backprop(spec, cur, ds.x, loss_grad(SQUARED, f, ds.y), trace=trace)
            g = g + wd * w
            w = w - lr * g
        seeds = np.random.SeedSequence(11).spawn(2)
        oracle = perturb(params_from_flat(spec, w), 0.01, seeds[0])
        np.testing.assert_array_equal(params.to_flat(), oracle.to_flat())
        assert len(log.phase2_records()) == 0
        assert log.t_star == T

    def test_hidden_parameters_frozen_in_head_modes(self):
        ds, spec, p0 = _toy_problem(seed=5, bn=True)
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=5, seed=5)
        for mode in ("last_layer_gd", "last_layer_sgd"):
            cfg = TwoPhaseConfig(tau=6, total_steps=40, phase2_mode=mode, seed=5,
                                 sgd_minibatch=5)
            params, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
            hidden = spec.hidden_param_count()
            np.testing.assert_array_equal(
                params.to_flat()[:hidden], log.params_at_tau_flat[:hidden]
            )

    def test_bit_identical_reruns(self):
        ds, spec, p0 = _toy_problem(seed=6, bn=True)
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=4, seed=2)
        cfg = TwoPhaseConfig(tau=9, total_steps=30, phase2_mode="last_layer_sgd", seed=2)
        _, log1 = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        _, log2 = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        for a, b in zip(log1.records, log2.records):
            assert (a.t, a.phase, a.loss, a.grad_norm) == (b.t, b.phase, b.loss, b.grad_norm)

    def test_feature_rank_error_when_too_narrow(self):
        ds = synth_gen(8, 3, 1, 0.03, "regression", seed=7)
        spec = NetworkSpec((3, 4, 5), 1, sharpness=10.0)  # m_H + 1 = 6 < 8
        base = BaseAlgoConfig(variant="gd", minibatch=8)
        cfg = TwoPhaseConfig(tau=0, total_steps=5, seed=7)
        with pytest.raises(FeatureRankError, match="widen the last hidden layer"):
            run_two_phase(spec, init_params(spec, 7), ds, base, cfg, SQUARED)

    def test_depth_one_rejected(self):
        ds = synth_gen(4, 3, 1, 0.03, "regression", seed=8)
        spec = NetworkSpec((3, 6), 1)
        base = BaseAlgoConfig(variant="gd", minibatch=4)
        cfg = TwoPhaseConfig(tau=0, total_steps=3)
        with pytest.raises(ValueError, match="two hidden layers"):
            run_two_phase(spec, init_params(spec, 0), ds, base, cfg, SQUARED)

    def test_minibatch_larger_than_dataset_rejected(self):
        ds, spec, p0 = _toy_problem()
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=64)
        cfg = TwoPhaseConfig(tau=0, total_steps=3)
        with pytest.raises(ValueError, match="minibatch"):
            run_two_phase(spec, p0, ds, base, cfg, SQUARED)

    def test_head_gd_schedule_and_convergence_to_interpolation(self):
        # well-conditioned features via BN: the convex head problem drains
        # to the interpolation floor within the step budget
        n, m_x, m_y, m_h = 16, 8, 2, 18
        ds = synth_gen(n, m_x, m_y, 0.05, "regression", seed=5)
        spec = NetworkSpec((m_x, 16, m_h), m_y, sharpness=10.0, bn_flags=(True, True))
        p0 = init_params(spec, seed=0)
        base = BaseAlgoConfig(variant="gd", learning_rate=0.05, minibatch=n,
                              weight_decay=0.0, seed=0)
        cfg = TwoPhaseConfig(tau=500, total_steps=5500, phase2_mode="last_layer_gd", seed=0)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED, bounds=True)
        assert log.eta_schedule == {"mode": "constant_over_l_h", "value": 1.0 / log.l_h}
        assert log.final_loss <= 1e-6
        # suboptimality stays under the descent ceiling at every step
        from twophase.bounds import SLACK_REL, gd_bound, solve_last_layer_optimum
        opt = solve_last_layer_optimum(SQUARED, log.features_at_tau, ds.y, log.head_at_tau)
        for rec in log.phase2_records():
            assert rec.bound == gd_bound(opt.r_squared, log.l_h, rec.t, log.tau)
            assert rec.suboptimality <= rec.bound + SLACK_REL * (1.0 + rec.bound)
        assert log.violations == 0

    def test_sgd_minibatch_gradient_unbiased(self):
        # averaging many with-replacement minibatch gradients approaches the
        # full gradient of the frozen head problem
        ds, spec, p0 = _toy_problem(seed=9)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=0, total_steps=1, seed=9)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        aug = np.hstack([log.features_at_tau, np.ones((ds.n, 1))])
        z = log.head_at_tau.reshape(aug.shape[1], ds.y.shape[1], order="F")
        full = aug.T @ loss_grad(SQUARED, aug @ z, ds.y)
        rng = np.random.default_rng(0)
        acc = np.zeros_like(full)
        reps = 4000
        for _ in range(reps):
            idx = rng.integers(0, ds.n, size=5)
            acc += aug[idx].T @ loss_grad(SQUARED, aug[idx] @ z, ds.y[idx])
        acc /= reps
        assert np.linalg.norm(acc - full) <= 0.05 * np.linalg.norm(full)

    def test_lazy_mode_checks_rank_every_step(self):
        ds = synth_gen(6, 4, 1, 0.03, "regression", seed=10)
        spec = NetworkSpec((4, 8, 8), 1, sharpness=10.0)
        p0 = init_params(spec, seed=1)
        base = BaseAlgoConfig(variant="gd", minibatch=6)
        cfg = TwoPhaseConfig(tau=5, total_steps=20, phase2_mode="lazy_full",
                             lazy_eta_bar=0.3, seed=1)
        params, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED,
                                    monitor_every=5)
        for rec in log.phase2_records():
            assert rec.ntk_rank is not None
            assert rec.ntk_rank >= 6 or rec.rank_event is not None
        assert log.eta_schedule["mode"] == "lazy_uniform"

    def test_record_sink_called_per_step(self):
        ds, spec, p0 = _toy_problem(seed=12)
        seen = []
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=4, total_steps=11, seed=12)
        run_two_phase(spec, p0, ds, base, cfg, SQUARED, record_sink=seen.append)
        assert [r.t for r in seen] == list(range(1, 12))

    def test_t_star_tracks_running_argmin(self):
        ds, spec, p0 = _toy_problem(seed=13)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=5, total_steps=60, phase2_mode="last_layer_sgd",
                             sgd_minibatch=4, seed=13)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        phase2 = {r.t: r.loss for r in log.phase2_records()}
        phase2[log.tau] = log.loss_at_tau
        best_t = min(phase2, key=lambda t: (phase2[t], t))
        assert log.t_star == best_t
        assert log.loss_at_t_star == phase2[best_t]

    @pytest.mark.parametrize("mode", ["gd_phase1", "sgd_phase1", "sgd_phase1_bn", "lazy_full"])
    def test_one_full_batch_forward_per_step(self, monkeypatch, mode):
        # phase 1's monitoring is off; a momentum-SGD minibatch is rows of the
        # previous step's full-batch pass, except under training-mode BN,
        # whose batch statistics couple the rows; a lazy step's kernel
        # reuses the trainer's forward pass on the candidate
        per_step = 2 if mode == "sgd_phase1_bn" else 1
        calls = _count_forward_passes(monkeypatch)
        ds, spec, p0 = _toy_problem(seed=15, bn=mode == "sgd_phase1_bn")
        if mode.startswith("sgd"):
            base = BaseAlgoConfig(variant="sgd_momentum", minibatch=4, seed=15)
        else:
            base = BaseAlgoConfig(variant="gd", minibatch=10)
        counts = []
        for steps in (10, 20):
            if mode == "lazy_full":
                cfg = TwoPhaseConfig(tau=3, total_steps=3 + steps, phase2_mode="lazy_full",
                                     lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=15)
            else:
                cfg = TwoPhaseConfig(tau=steps, total_steps=steps, seed=15)
            calls.clear()
            run_two_phase(spec, p0, ds, base, cfg, SQUARED)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 10 * per_step

    @pytest.mark.parametrize("variant", ["gd", "sgd_momentum"])
    def test_monitored_steps_reuse_the_step_pass(self, monkeypatch, variant):
        # a monitored phase-1 step takes its feature rank and kernel from
        # its loss pass, and a monitored head step from the tau pass: the
        # forward passes are one per phase-1 step plus the initial and the
        # tau pass, however often the run is monitored
        calls = _count_forward_passes(monkeypatch)
        ds, spec, p0 = _toy_problem(seed=17)
        base = BaseAlgoConfig(variant=variant, minibatch=4, seed=17)
        cfg = TwoPhaseConfig(tau=6, total_steps=12, seed=17)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED, monitor_every=1)
        assert all(r.ntk_rank is not None for r in log.records)
        assert len(calls) == 6 + 2

    def test_sliced_minibatch_gradient_matches_a_fresh_pass(self, rng):
        # the head_gd_ce architecture: rows of the full-batch pass give the
        # same minibatch gradient, bit for bit, as a pass on the rows alone,
        # whether they are picked from a pass in data order or are a slice
        # of a pass in epoch order, whose residual slice gives the upstream
        ds = synth_gen(128, 8, 4, 0.01, "one_hot", seed=21)
        spec = NetworkSpec((8, 8, 141), 4, sharpness=10.0)
        params = init_params(spec, seed=21)

        def fresh_gradient(idx):
            fresh = forward_hidden(spec, params, ds.x[idx])
            up = loss_grad(CROSS_ENTROPY, forward_output(spec, params, ds.x[idx], trace=fresh),
                           ds.y[idx])
            return backprop(spec, params, ds.x[idx], up, trace=fresh)

        full = forward_hidden(spec, params, ds.x)
        forward_output(spec, params, ds.x, trace=full)
        for idx in (rng.permutation(128)[:64], rng.permutation(128)[:64], np.arange(64, 128)):
            sliced = trainer._rows(full, idx)
            got = backprop(spec, params, ds.x[idx],
                           loss_grad(CROSS_ENTROPY, sliced.output, ds.y[idx]), trace=sliced)
            assert np.array_equal(got, fresh_gradient(idx))
        order = rng.permutation(128)
        work = Workspace(spec, 128)
        epoch = forward_hidden(spec, params, ds.x[order], work=work)
        forward_output(spec, params, ds.x[order], trace=epoch)
        _, residual = trainer._terms(CROSS_ENTROPY, epoch.output, ds.y[order])
        for rows in (slice(0, 64), slice(64, 128), slice(40, 88)):
            sliced = trainer._rows(epoch, rows)
            assert np.shares_memory(sliced.post[-1], work.post[-1])
            got = backprop(spec, params, sliced.inputs,
                           trainer._mean_gradient(CROSS_ENTROPY, residual[rows]), trace=sliced)
            assert np.array_equal(got, fresh_gradient(order[rows]))

    @pytest.mark.parametrize("bad", ["nan_input", "target_row_sum", "target_columns"])
    def test_bad_data_rejected_before_the_first_record(self, bad):
        ds = synth_gen(10, 4, 3 if bad == "target_columns" else 2, 0.03, "one_hot", seed=18)
        spec = NetworkSpec((4, 8, 12), 2, sharpness=10.0)
        if bad == "nan_input":
            ds.x[3, 1] = np.nan
            match = "non-finite"
        elif bad == "target_row_sum":
            ds.y[4] *= 0.9
            match = "sums to 0.9"
        else:
            match = r"targets have shape \(10, 3\), expected \(10, 2\)"
        seen = []
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=4)
        cfg = TwoPhaseConfig(tau=3, total_steps=6, seed=18)
        with pytest.raises(ValueError, match=match):
            run_two_phase(spec, init_params(spec, seed=18), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=seen.append)
        assert not seen

    def test_lazy_run_decomposes_each_kernel_once(self, monkeypatch):
        # one Cholesky factorization per kernel certifies its rank at the
        # reference threshold as well; only that threshold, at tau, takes a
        # spectrum, and Rbar reads the rank of the snapshot compute_ntk made
        counts, snaps = {"eigvalsh": 0, "cholesky": 0}, []
        compute_ntk = trainer.compute_ntk
        for name in counts:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)

        def counting_ntk(*args, **kwargs):
            snaps.append(1)
            return compute_ntk(*args, **kwargs)

        monkeypatch.setattr(trainer, "compute_ntk", counting_ntk)
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED, bounds=True)
        assert log.r_bar is not None and np.isfinite(log.r_bar)
        assert len(snaps) == 11
        assert counts["eigvalsh"] <= 1 and counts["cholesky"] == len(snaps)

    @pytest.mark.parametrize("bounds", [True, False])
    def test_lazy_r_bar_only_with_bounds(self, monkeypatch, bounds):
        # one linearized distance per kernel of tau and every step when the
        # ceilings are on, and none when they are off
        calls = []
        distance = trainer._linearized_distance

        def counting(*args):
            calls.append(1)
            return distance(*args)

        monkeypatch.setattr(trainer, "_linearized_distance", counting)
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED, bounds=bounds)
        assert len(calls) == (13 - 3 + 1 if bounds else 0)
        assert (log.r_bar is not None) == bounds
        assert all((rec.bound is not None) == bounds for rec in log.phase2_records())

    def test_phase_one_builds_no_params_per_step(self, monkeypatch):
        # a head_gd_ce-shaped run (cross-entropy, momentum SGD, then head
        # GD): backprop writes each gradient into a plain vector, so the
        # only Params are the run's own copy and the perturbed one
        built = []
        init = trainer.Params.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        ds = synth_gen(16, 4, 3, 0.03, "one_hot", seed=23)
        spec = NetworkSpec((4, 8, 18), 3, sharpness=10.0)
        p0 = init_params(spec, seed=23)
        monkeypatch.setattr(trainer.Params, "__init__", counting)
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=8, seed=23)
        cfg = TwoPhaseConfig(tau=30, total_steps=50, phase2_mode="last_layer_gd", seed=23)
        run_two_phase(spec, p0, ds, base, cfg, CROSS_ENTROPY)
        assert len(built) <= 3

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd", "lazy_full"])
    def test_record_numbers_are_python_floats(self, mode):
        # as phase 1 stores them, so every mode's records serialize alike
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode=mode, sgd_minibatch=4,
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED, bounds=True)
        assert all(rec.bound is not None for rec in log.phase2_records())
        for rec in log.records:
            for value in (rec.loss, rec.grad_norm, rec.bound, rec.suboptimality):
                assert value is None or type(value) is float, (rec.t, value)

    def test_divergent_head_phase_names_step_and_phase(self):
        ds, spec, p0 = _toy_problem(seed=16)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=2, total_steps=400, phase2_mode="last_layer_sgd",
                             sgd_rate_scale=1e6, seed=16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"step \d+ \(phase 2\)"):
                run_two_phase(spec, p0, ds, base, cfg, SQUARED)


    def test_divergent_lazy_step_names_step_and_phase(self):
        # the step 2 * eta_bar / L overflows the candidate parameters
        ds, spec, p0 = _toy_problem(seed=16)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=2, total_steps=6, phase2_mode="lazy_full",
                             lazy_lipschitz=1e-300, seed=16)
        with pytest.raises(FloatingPointError, match=r"step 3 \(phase 2\)"):
            run_two_phase(spec, p0, ds, base, cfg, SQUARED)


def _reference_loss(kind, f, y, gradient=True):
    # the mean loss and its gradient in f over the rows given, written out
    # independently of losses._loss
    n = f.shape[0]
    if kind.name == "squared":
        d = f - y
        return float((d * d).sum() / n), ((2.0 / n) * d if gradient else None)
    shifted = f - f.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-(y * log_p).sum() / n), ((np.exp(log_p) - y) / n if gradient else None)


def _data_order_phase_one(spec, params0, ds, base, tau, kind, monitor_every):
    """Phase 1 with every full-batch pass in data order, allocating: a
    momentum-SGD minibatch gathers its rows of the last pass by index, or
    under training-mode BN makes a fresh pass over them, and evaluates its
    own loss; GD backprops its full pass.  Returns the initial loss, (loss,
    grad_norm, feature_rank, ntk_rank) per step, the kernels of the
    monitored steps and the params at tau."""
    x, y, n = ds.x, ds.y, ds.n
    params = params0.copy()
    w = params.flat
    full_batch = base.variant == "gd"

    def forward(rows):
        trace = forward_hidden(spec, params, rows)
        trace.output = trace.hidden @ params.weights[-1] + params.biases[-1]
        return trace

    def full_pass(gradient):
        trace = forward(x)
        loss, up = _reference_loss(kind, trace.output, y, gradient)
        return trace, loss, (backprop(spec, params, x, up, trace=trace) if gradient else None)

    trace, initial, g = full_pass(full_batch and tau > 0)
    rng = np.random.default_rng(base.seed)
    velocity = np.zeros_like(w)
    order, pos = np.arange(n), n
    records, kernels = [], []
    for t in range(1, tau + 1):
        if not full_batch:
            idx = order[pos : pos + base.minibatch]
            if idx.size < base.minibatch:
                order, pos = rng.permutation(n), 0
                idx = order[: base.minibatch]
            pos += base.minibatch
            batch = forward(x[idx]) if any(spec.bn_flags) else trainer._rows(trace, idx)
            g = backprop(spec, params, batch.inputs,
                         _reference_loss(kind, batch.output, y[idx])[1], trace=batch)
        if base.weight_decay:
            g += base.weight_decay * w
        gnorm = float(np.linalg.norm(g))
        if full_batch:
            w -= base.learning_rate * g
        else:
            velocity *= base.momentum
            velocity += g
            w -= base.learning_rate * velocity
        trace, loss, g = full_pass(full_batch and t < tau)
        ranks = (None, None)
        if monitor_every and t % monitor_every == 0:
            kernels.append(ntk.compute_kernel(spec, params, x, trace=trace))
            ranks = (numerical_rank(append_ones(trace.hidden)),
                     ntk.compute_ntk(kernels[-1]).rank)
        records.append((loss, gnorm, *ranks))
    return initial, records, kernels, params


class TestPhaseOneWorkspace:
    @pytest.mark.parametrize("variant", ["sgd_momentum", "gd", "sgd_momentum+bn", "gd+bn"])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY], ids=["squared", "cross_entropy"])
    @pytest.mark.parametrize("monitor_every", [0, 3])
    def test_records_match_the_data_order_loop(self, monkeypatch, variant, depth, kind,
                                               monitor_every):
        # n = 20 with minibatch 8: every third step starts a fresh epoch; a
        # monitored step ranks the kernel of the pass in data order; "+bn"
        # puts training-mode batch normalization on every hidden layer
        variant, _, bn = variant.partition("+")
        kernels = []
        compute_ntk = trainer.compute_ntk

        def keeping(kernel, floor=0.0):
            kernels.append(kernel.copy())
            return compute_ntk(kernel, floor)

        monkeypatch.setattr(trainer, "compute_ntk", keeping)
        n, tau = 20, 11
        ds = synth_gen(n, 4, 3, 0.03, "one_hot" if kind is CROSS_ENTROPY else "regression",
                       seed=depth)
        spec = NetworkSpec((4,) + (8,) * (depth - 1) + (24,), 3, sharpness=10.0,
                           bn_flags=(bool(bn),) * depth)
        p0 = init_params(spec, seed=depth)
        base = BaseAlgoConfig(variant=variant, learning_rate=0.05, minibatch=8,
                              weight_decay=1e-3, seed=5)
        cfg = TwoPhaseConfig(tau=tau, total_steps=tau, seed=5)
        params, log = run_two_phase(spec, p0, ds, base, cfg, kind, monitor_every=monitor_every)
        initial, want, want_kernels, reference = _data_order_phase_one(
            spec, p0, ds, base, tau, kind, monitor_every)
        assert log.loss_initial == initial
        assert [(r.loss, r.grad_norm, r.feature_rank, r.ntk_rank) for r in log.records] == want
        assert len(kernels) == len(want_kernels) == (tau // monitor_every if monitor_every else 0)
        assert all(np.array_equal(a, b) for a, b in zip(kernels, want_kernels))
        if monitor_every:
            assert all(r.ntk_rank == n * 3 for r in log.records[monitor_every - 1 :: monitor_every])
        perturbed = perturb(reference, cfg.noise_scale, np.random.SeedSequence(cfg.seed).spawn(2)[0])
        assert np.array_equal(params.flat, perturbed.flat)

    @pytest.mark.parametrize("variant", ["sgd_momentum", "gd"])
    def test_steps_allocate_less_than_one_pass_sized_array(self, variant):
        # a head_gd_ce-shaped run: between the records of steps 20 and 50
        # traced memory never rises by one n x m_H float64 array
        ds = synth_gen(128, 8, 4, 0.01, "one_hot", seed=0)
        spec = NetworkSpec((8, 8, 141), 4, sharpness=10.0)
        seen = {}

        def sink(rec):
            if rec.t == 20:
                tracemalloc.reset_peak()
                seen["start"] = tracemalloc.get_traced_memory()[0]
            elif rec.t == 50:
                seen["peak"] = tracemalloc.get_traced_memory()[1]

        base = BaseAlgoConfig(variant=variant, minibatch=64)
        cfg = TwoPhaseConfig(tau=60, total_steps=100)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            run_two_phase(spec, init_params(spec, seed=0), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=sink)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert seen["peak"] - seen["start"] < 128 * 141 * 8

    def test_step_makes_a_bounded_number_of_python_calls(self):
        # a head_gd_ce-shaped momentum-SGD run: the workspace's views are
        # bound once and its passes skip the checks made on entry, so a
        # step between the records of steps 20 and 100 makes at most 25
        # Python calls into the package (a count, not a timing)
        package = os.path.dirname(twophase.__file__)
        ds = synth_gen(128, 8, 4, 0.01, "one_hot", seed=3)
        spec = NetworkSpec((8, 8, 141), 4, sharpness=10.0)
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls.append(frame.f_code.co_name)

        def sink(rec):
            if rec.t == 20:
                sys.setprofile(profile)
            elif rec.t == 100:
                sys.setprofile(previous)

        previous = sys.getprofile()
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=64, seed=3)
        cfg = TwoPhaseConfig(tau=200, total_steps=200, seed=3)
        try:
            run_two_phase(spec, init_params(spec, seed=3), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=sink)
        finally:
            sys.setprofile(previous)
        assert calls.count("emit") == 80
        assert len(calls) <= 25 * 80, sorted(set(calls))


class TestLipschitzEstimate:
    def test_positive_and_deterministic(self):
        ds, spec, p0 = _toy_problem(seed=14)
        a = estimate_lipschitz(spec, p0, ds.x, ds.y, SQUARED, seed=3)
        b = estimate_lipschitz(spec, p0, ds.x, ds.y, SQUARED, seed=3)
        assert a == b > 0.0


def _reference_lazy_phase(spec, ds, kind, log, cfg):
    """The lazy phase from the perturbed parameters log.params_at_tau_flat,
    written out independently of the trainer: allocating passes and
    backprops, each candidate's kernel ranked at the tolerance of the
    reference kernel at tau, and eta_bar halved on every rejection.
    Returns (loss, grad_norm, ntk_rank, rank_event) per step and the rank
    events."""
    x, y, frozen = ds.x, ds.y, log.frozen_stats
    lipschitz = log.eta_schedule["lipschitz"]

    def evaluate(params):
        trace = forward_hidden(spec, params, x, frozen)
        trace.output = trace.hidden @ params.weights[-1] + params.biases[-1]
        loss, up = _reference_loss(kind, trace.output, y)
        return trace, loss, backprop(spec, params, x, up, trace=trace)

    params = params_from_flat(spec, log.params_at_tau_flat)
    trace, _, g = evaluate(params)
    reference = ntk.compute_ntk(ntk.compute_kernel(spec, params, x, frozen, trace=trace))
    eta_bar, records, events = cfg.lazy_eta_bar, [], []
    for t in range(cfg.tau + 1, cfg.total_steps + 1):
        event = None
        while True:
            cand = params_from_flat(spec, params.flat - (2.0 * eta_bar / lipschitz) * g)
            trace, loss, cand_g = evaluate(cand)
            snap = ntk.compute_ntk(ntk.compute_kernel(spec, cand, x, frozen, trace=trace),
                                   floor=reference.tolerance)
            if ntk.assert_rank_preserved(reference, snap):
                break
            eta_bar /= 2.0
            event = f"rank_drop_halved_eta_bar_to_{eta_bar:.3e}"
            events.append((t, event))
        records.append((loss, math.sqrt(float((g * g).sum())), snap.rank, event))
        params, g = cand, cand_g
    return records, events


class TestLazyPhase:
    @pytest.mark.parametrize("seed, bn, rejects", [(2, False, True), (7, True, False)],
                             ids=["rejected_steps", "frozen_bn"])
    def test_records_match_an_independent_lazy_loop(self, seed, bn, rejects):
        # "rejected_steps" halves eta_bar twice; "frozen_bn" runs its last
        # hidden layer under the batch statistics frozen at tau
        ds, spec, p0 = _toy_problem(seed=seed, bn=bn)
        cfg = TwoPhaseConfig(tau=3, total_steps=23, phase2_mode="lazy_full", lazy_eta_bar=0.5,
                             seed=seed)
        _, log = run_two_phase(spec, p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                               SQUARED)
        want, events = _reference_lazy_phase(spec, ds, SQUARED, log, cfg)
        assert log.rank_events == events and bool(events) == rejects
        assert (log.frozen_stats is not None) == bn
        assert [(r.loss, r.grad_norm, r.ntk_rank, r.rank_event)
                for r in log.phase2_records()] == want

    def test_candidate_loss_comes_before_its_kernel(self, monkeypatch):
        # every lazy candidate, rejected or accepted, has its predictions
        # (and so its loss) from its pass before its kernel is built
        snapshot, seen = trainer._snapshot, []

        def checking(spec, params, x, frozen, trace, t, phase, floor=0.0):
            seen.append((t, trace.output is not None))
            return snapshot(spec, params, x, frozen, trace, t, phase, floor)

        monkeypatch.setattr(trainer, "_snapshot", checking)
        ds, spec, p0 = _toy_problem(seed=2)
        cfg = TwoPhaseConfig(tau=3, total_steps=23, phase2_mode="lazy_full", lazy_eta_bar=0.5,
                             seed=2)
        _, log = run_two_phase(spec, p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                               SQUARED)
        candidates = [ok for t, ok in seen if t > cfg.tau]
        assert len(candidates) == 20 + len(log.rank_events)
        assert all(candidates)
