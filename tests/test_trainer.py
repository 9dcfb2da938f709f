"""The two-phase loop: masking, perturbation, schedules, and guarantees."""

import numpy as np
import pytest

import twophase.trainer as trainer
from twophase.data import synth_gen
from twophase.losses import SQUARED, loss_grad
from twophase.network import (
    NetworkSpec,
    backprop,
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


def _toy_problem(seed=0, n=10, m_x=4, m_y=2, m_h=12, sharpness=10.0, bn=False):
    ds = synth_gen(n, m_x, m_y, 0.03, "regression", seed=seed)
    flags = (False, bn)
    spec = NetworkSpec((m_x, m_x * 2, m_h), m_y, sharpness=sharpness, bn_flags=flags)
    return ds, spec, init_params(spec, seed=seed)


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
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        assert log.eta_schedule == {"mode": "constant_over_l_h", "value": 1.0 / log.l_h}
        assert log.final_loss <= 1e-6
        # suboptimality stays under the descent ceiling at every step
        from twophase.bounds import BoundConstants, check_bounds, solve_last_layer_optimum
        opt = solve_last_layer_optimum(SQUARED, log.features_at_tau, ds.y, log.head_at_tau)
        rep = check_bounds(log, BoundConstants(
            mode="last_layer_gd", r_squared=opt.r_squared,
            loss_star=opt.loss_star, l_h=log.l_h))
        assert rep.violations == 0

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
                                    monitor_every=5, keep_trajectory=True)
        for rec in log.phase2_records():
            assert rec.ntk_rank is not None
            assert rec.ntk_rank >= 6 or rec.rank_event is not None
        assert log.eta_schedule["mode"] == "lazy_uniform"
        assert log.trajectory  # reference snapshot plus monitored steps

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

    @pytest.mark.parametrize("mode", ["gd_phase1", "lazy_full"])
    def test_one_full_batch_forward_per_step(self, monkeypatch, mode):
        # the Jacobian's own forward pass runs through ntk, not counted here
        calls = []
        forward = trainer.forward_hidden

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(trainer, "forward_hidden", counting)
        ds, spec, p0 = _toy_problem(seed=15)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        counts = []
        for steps in (10, 20):
            if mode == "gd_phase1":
                cfg = TwoPhaseConfig(tau=steps, total_steps=steps, seed=15)
            else:
                cfg = TwoPhaseConfig(tau=3, total_steps=3 + steps, phase2_mode="lazy_full",
                                     lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=15)
            calls.clear()
            run_two_phase(spec, p0, ds, base, cfg, SQUARED)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 10

    def test_divergent_head_phase_names_step_and_phase(self):
        ds, spec, p0 = _toy_problem(seed=16)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=2, total_steps=400, phase2_mode="last_layer_sgd",
                             sgd_rate_scale=1e6, seed=16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"step \d+ \(phase 2\)"):
                run_two_phase(spec, p0, ds, base, cfg, SQUARED)


class TestLipschitzEstimate:
    def test_positive_and_deterministic(self):
        ds, spec, p0 = _toy_problem(seed=14)
        a = estimate_lipschitz(spec, p0, ds.x, ds.y, SQUARED, seed=3)
        b = estimate_lipschitz(spec, p0, ds.x, ds.y, SQUARED, seed=3)
        assert a == b > 0.0
