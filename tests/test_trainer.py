"""The two-phase loop: masking, perturbation, schedules, and guarantees."""

import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import features_at_tau

import twophase
import twophase.bounds as bounds
import twophase.cli as cli
import twophase.network as network
import twophase.ntk as ntk
import twophase.trainer as trainer
from twophase.bounds import SLACK_REL
from twophase.cli import DEFAULT_CONFIG
from twophase.data import synth_gen
from twophase.linalg import RankDeficientError, append_ones, certified_rank
from twophase.losses import CROSS_ENTROPY, SQUARED, loss_grad
from twophase.network import (
    NetworkSpec,
    Params,
    Workspace,
    backprop,
    forward_hidden,
    forward_output,
    init_params,
    random_params,
)
from twophase.trainer import (
    BaseAlgoConfig,
    FeatureRankError,
    RankPreservationError,
    TwoPhaseConfig,
    compute_L_H,
    estimate_lipschitz,
    perturb,
    run_two_phase,
)


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
            run_two_phase(p0, ds, BaseAlgoConfig(variant="gd"),
                          TwoPhaseConfig(tau=2, total_steps=4), SQUARED, monitor_every=-3,
                          record_sink=seen.append)
        assert not seen


def _toy_problem(seed=0, n=10, m_x=4, m_y=2, m_h=12, sharpness=10.0, bn=False):
    ds = synth_gen(n, m_x, m_y, 0.03, "regression", seed=seed)
    flags = (False, bn)
    spec = NetworkSpec((m_x, m_x * 2, m_h), m_y, sharpness=sharpness, bn_flags=flags)
    return ds, spec, init_params(spec, seed=seed)


_MODES = ["last_layer_gd", "last_layer_sgd", "lazy_full"]

# the squared-loss lazy config of the CI entry-point checks (lazy.json)
_CI_LAZY = {
    "loss": "squared", "bounds": True,
    "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"},
    "network": {"sharpness": 10.0}, "base": {"variant": "gd", "minibatch": 12},
    "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "lazy_full",
                  "lazy_eta_bar": 0.3}}


def _ci_lazy_run(seed, bounds=True, record_sink=None):
    """(final Params, TrainLog) of _CI_LAZY at `seed`, as `train` runs it."""
    cfg = cli._merge(DEFAULT_CONFIG, dict(_CI_LAZY, seed=seed, bounds=bounds))
    ds = cli._build_dataset(cfg)
    return cli._train_once(cfg, ds, cli._build_spec(cfg, ds), record_sink=record_sink)


def _count_forward_passes(monkeypatch):
    # the trainer's passes, the only ones a run makes: backprop and the
    # kernel take a pass's trace
    calls = []
    forward = trainer.forward_hidden

    def counting(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)
    monkeypatch.setattr(trainer, "forward_hidden", counting)
    return calls


class TestRunTwoPhase:
    def test_record_count_and_phases(self):
        ds, spec, p0 = _toy_problem()
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=7, total_steps=20, seed=0)
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        assert len(log.records) == 20
        assert [r.phase for r in log.records] == [1] * 7 + [2] * 13
        assert [r.t for r in log.records] == list(range(1, 21))

    def test_tau_zero_gd_monotone(self):
        ds, spec, p0 = _toy_problem(seed=3)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=0, total_steps=120, phase2_mode="last_layer_gd", seed=3)
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        losses = [log.loss_at_tau] + [r.loss for r in log.records]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(losses, losses[1:]))

    def test_degenerate_split_is_base_plus_perturbation(self):
        ds, spec, p0 = _toy_problem(seed=4)
        lr, wd, T = 0.02, 1e-4, 15
        base = BaseAlgoConfig(variant="gd", learning_rate=lr, weight_decay=wd, minibatch=10)
        cfg = TwoPhaseConfig(tau=T, total_steps=T, noise_scale=0.01, seed=11)
        params, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        # oracle: plain full-batch descent, then one hidden-layer perturbation
        from twophase.losses import loss_value
        from twophase.network import forward_hidden
        w = p0.to_flat()
        for _ in range(T):
            cur = Params(spec, w)
            trace = forward_hidden(cur, ds.x)
            f = trace.hidden @ cur.weights[-1] + cur.biases[-1]
            g = backprop(cur, trace, loss_grad(SQUARED, f, ds.y))
            g = g + wd * w
            w = w - lr * g
        seeds = np.random.SeedSequence(11).spawn(2)
        oracle = perturb(Params(spec, w), 0.01, seeds[0])
        np.testing.assert_array_equal(params.to_flat(), oracle.to_flat())
        assert len(log.phase2_records()) == 0
        assert log.t_star == T

    def test_hidden_parameters_frozen_in_head_modes(self):
        ds, spec, p0 = _toy_problem(seed=5, bn=True)
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=5, seed=5)
        for mode in ("last_layer_gd", "last_layer_sgd"):
            cfg = TwoPhaseConfig(tau=6, total_steps=40, phase2_mode=mode, seed=5,
                                 sgd_minibatch=5)
            params, log = run_two_phase(p0, ds, base, cfg, SQUARED)
            hidden = spec.hidden_param_count()
            np.testing.assert_array_equal(
                params.to_flat()[:hidden], log.params_at_tau.flat[:hidden]
            )

    def test_bit_identical_reruns(self):
        ds, spec, p0 = _toy_problem(seed=6, bn=True)
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=4, seed=2)
        cfg = TwoPhaseConfig(tau=9, total_steps=30, phase2_mode="last_layer_sgd", seed=2)
        _, log1 = run_two_phase(p0, ds, base, cfg, SQUARED)
        _, log2 = run_two_phase(p0, ds, base, cfg, SQUARED)
        for a, b in zip(log1.records, log2.records):
            assert (a.t, a.phase, a.loss, a.grad_norm) == (b.t, b.phase, b.loss, b.grad_norm)

    def test_feature_rank_error_when_too_narrow(self):
        ds = synth_gen(8, 3, 1, 0.03, "regression", seed=7)
        spec = NetworkSpec((3, 4, 5), 1, sharpness=10.0)  # m_H + 1 = 6 < 8
        base = BaseAlgoConfig(variant="gd", minibatch=8)
        cfg = TwoPhaseConfig(tau=0, total_steps=5, seed=7)
        with pytest.raises(FeatureRankError, match="widen the last hidden layer"):
            run_two_phase(init_params(spec, 7), ds, base, cfg, SQUARED)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feature_collapse_names_step_tau_and_phase_one(self, seed):
        # at learning rate 10 phase 1 saturates the features of a layer wide
        # enough (m_H + 1 = 19 >= n = 16): the error names step tau and
        # points at phase 1, not at the width
        ds = synth_gen(16, 8, 4, 0.01, "one_hot", seed=seed)
        spec = NetworkSpec((8, 8, 18), 4)
        base = BaseAlgoConfig(learning_rate=10.0, minibatch=8, seed=seed)
        cfg = TwoPhaseConfig(tau=24, total_steps=40, seed=seed)
        with pytest.raises(FeatureRankError) as info:
            run_two_phase(init_params(spec, seed), ds, base, cfg, CROSS_ENTROPY)
        message = str(info.value)
        assert message.startswith("step 24 (phase 2): ")
        assert "m_H + 1 = 19 >= n" in message and "smaller learning rate" in message
        assert "widen" not in message

    def test_feature_collapse_after_a_loss_rise_gives_the_ratio(self):
        # CI tiny.json at learning rate 10: phase 1 ends at 3.91x its
        # initial loss with every last-layer unit off on every sample, and
        # is above its initial loss from step 1, 23 steps before tau
        ds = synth_gen(16, 8, 4, 0.01, "one_hot", seed=0)
        spec = NetworkSpec((8, 8, 18), 4)
        base = BaseAlgoConfig(learning_rate=10.0, minibatch=8, seed=0)
        cfg = TwoPhaseConfig(tau=24, total_steps=40, seed=0)
        with pytest.raises(FeatureRankError) as info:
            run_two_phase(init_params(spec, 0), ds, base, cfg, CROSS_ENTROPY)
        message = str(info.value)
        assert "phase 1 ended at 3.91x its initial loss" in message
        assert "18 of 18 last-layer units are inactive on every sample" in message
        assert message.endswith("the loss rose in phase 1: try a smaller learning rate "
                                 "(the loss first exceeded its initial value at step 1)")

    def test_feature_collapse_without_a_loss_rise_counts_inactive_units(self):
        # no phase 1 (tau 0) and 10 of 18 last-layer units pushed far below
        # zero, which the kick cannot revive: the rank falls short with the
        # loss unchanged, so the advice is neither the width nor the rate
        ds = synth_gen(16, 8, 4, 0.01, "one_hot", seed=0)
        spec = NetworkSpec((8, 8, 18), 4)
        params = init_params(spec, 0)
        params.biases[-2][:, :10] = -1e3
        base = BaseAlgoConfig(learning_rate=0.01, minibatch=8)
        cfg = TwoPhaseConfig(tau=0, total_steps=5)
        with pytest.raises(FeatureRankError) as info:
            run_two_phase(params, ds, base, cfg, CROSS_ENTROPY)
        message = str(info.value)
        assert message.startswith("step 0 (phase 2): ")
        assert "phase 1 ended at 1x its initial loss" in message
        assert "10 of 18 last-layer units are inactive on every sample" in message
        assert "another seed or a smaller sharpness" in message
        assert "widen" not in message and "learning rate" not in message
        assert "first exceeded" not in message

    def test_depth_one_rejected(self):
        ds = synth_gen(4, 3, 1, 0.03, "regression", seed=8)
        spec = NetworkSpec((3, 6), 1)
        base = BaseAlgoConfig(variant="gd", minibatch=4)
        cfg = TwoPhaseConfig(tau=0, total_steps=3)
        with pytest.raises(ValueError, match="two hidden layers"):
            run_two_phase(init_params(spec, 0), ds, base, cfg, SQUARED)

    def test_minibatch_larger_than_dataset_rejected(self):
        ds, spec, p0 = _toy_problem()
        base = BaseAlgoConfig(variant="sgd_momentum", minibatch=64)
        cfg = TwoPhaseConfig(tau=0, total_steps=3)
        with pytest.raises(ValueError, match="minibatch"):
            run_two_phase(p0, ds, base, cfg, SQUARED)

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
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True)
        # descent at step 1/L_H: the loss never rises (beyond rounding)
        losses = [log.loss_at_tau] + [rec.loss for rec in log.phase2_records()]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert log.final_loss <= 1e-6
        # suboptimality stays under the descent ceiling at every step
        from twophase.bounds import SLACK_REL, gd_bound, solve_last_layer_optimum
        opt = solve_last_layer_optimum(SQUARED, features_at_tau(ds.x, log), ds.y,
                                       log.params_at_tau.head_block())
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
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        aug = features_at_tau(ds.x, log).matrix
        z = log.params_at_tau.head_block()
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
        params, log = run_two_phase(p0, ds, base, cfg, SQUARED,
                                    monitor_every=5)
        for rec in log.phase2_records():
            assert rec.ntk_rank is not None
            assert rec.ntk_rank >= 6 or rec.rank_event is not None

    def test_record_sink_called_per_step(self):
        ds, spec, p0 = _toy_problem(seed=12)
        seen = []
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=4, total_steps=11, seed=12)
        run_two_phase(p0, ds, base, cfg, SQUARED, record_sink=seen.append)
        assert [r.t for r in seen] == list(range(1, 12))

    def test_run_with_a_sink_keeps_nothing_per_step(self):
        # records handed to a sink are not kept: traced memory between the
        # records of steps 200 and 2000, across both phases, stays flat
        ds, spec, p0 = _toy_problem(seed=12)
        seen = {200: None, 2000: None}

        def sink(rec):
            if rec.t in seen:
                seen[rec.t] = tracemalloc.get_traced_memory()[0]

        cfg = TwoPhaseConfig(tau=1000, total_steps=2000, seed=12)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            _, log = run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10),
                                   cfg, SQUARED, record_sink=sink)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert not log.records
        assert seen[2000] - seen[200] < 64 * 1024

    @pytest.mark.parametrize("bounds", [False, True], ids=["bounds_off", "bounds_on"])
    @pytest.mark.parametrize("mode", _MODES)
    def test_t_star_tracks_running_argmin(self, mode, bounds):
        # t* is the earliest argmin of the loss over tau and the phase-2
        # records and G^2 the largest squared phase-2 gradient norm, kept as
        # the records are emitted, so a run whose records go to a sink keeps
        # the same numbers.  The lazy run is the CI lazy config at seed 7,
        # whose loss rises after its minimum
        def run(sink=None):
            if mode == "lazy_full":
                return _ci_lazy_run(7, bounds, sink)[1]
            ds, spec, p0 = _toy_problem(seed=13)
            cfg = TwoPhaseConfig(tau=5, total_steps=60, phase2_mode=mode, sgd_minibatch=4,
                                 seed=13)
            return run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10),
                                 cfg, SQUARED, bounds=bounds, record_sink=sink)[1]

        log, seen = run(), []
        phase2 = {r.t: r.loss for r in log.phase2_records()}
        phase2[log.tau] = log.loss_at_tau
        best_t = min(phase2, key=lambda t: (phase2[t], t))
        assert log.t_star == best_t
        assert log.loss_at_t_star == phase2[best_t]
        assert log.max_sq_grad_phase2 == pytest.approx(
            max(r.grad_norm ** 2 for r in log.phase2_records()), rel=1e-12)
        if mode == "lazy_full":
            assert log.t_star < log.total_steps and log.final_loss > log.loss_at_t_star
            assert log.rank_events
        streamed = run(seen.append)
        assert len(seen) == log.total_steps and not streamed.records
        numbers = ("best_loss", "final_loss", "t_star", "loss_at_t_star",
                   "max_sq_grad_phase2", "constants", "violations")
        assert ([getattr(streamed, name) for name in numbers]
                == [getattr(log, name) for name in numbers])

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
            run_two_phase(p0, ds, base, cfg, SQUARED)
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
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED, monitor_every=1)
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
            fresh = forward_hidden(params, ds.x[idx])
            up = loss_grad(CROSS_ENTROPY, forward_output(params, fresh), ds.y[idx])
            return backprop(params, fresh, up)

        full = forward_hidden(params, ds.x)
        forward_output(params, full)
        for idx in (rng.permutation(128)[:64], rng.permutation(128)[:64], np.arange(64, 128)):
            sliced = trainer._rows(full, idx)
            up = loss_grad(CROSS_ENTROPY, sliced.output, ds.y[idx])
            assert np.array_equal(backprop(params, sliced, up), fresh_gradient(idx))
        order = rng.permutation(128)
        work = Workspace(spec, 128)
        epoch = forward_hidden(params, ds.x[order], work=work)
        forward_output(params, epoch)
        _, residual = trainer._terms(CROSS_ENTROPY, epoch.output, ds.y[order])
        for rows in (slice(0, 64), slice(64, 128), slice(40, 88)):
            sliced = trainer._rows(epoch, rows)
            assert np.shares_memory(sliced.post[-1], work.post[-1])
            got = backprop(params, sliced,
                           trainer._mean_gradient(CROSS_ENTROPY, residual[rows]))
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
            run_two_phase(init_params(spec, seed=18), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=seen.append)
        assert not seen

    def test_lazy_run_decomposes_each_kernel_once(self, monkeypatch):
        # one Cholesky factorization per kernel certifies its rank at the
        # reference threshold as well, which its bound settles with no
        # spectrum; one more proves the features' rank at tau, and Rbar
        # reads the rank of the verdict compute_ntk made
        counts, snaps = {"eigvalsh": 0, "cholesky": 0, "svd": 0}, []
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
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True)
        assert np.isfinite(log.constants["r_bar"])
        assert len(snaps) == 11
        assert counts == {"eigvalsh": 0, "cholesky": len(snaps) + 1, "svd": 0}

    @pytest.mark.parametrize("config, svds", [
        # CI head.json: [h, 1] is 12 x 15, its rank counted, not proved
        ({"loss": "squared", "monitor_every": 5,
          "data": {"n": 12, "m_x": 4, "m_y": 2, "kind": "regression"},
          "network": {"sharpness": 10.0}, "base": {"variant": "gd", "minibatch": 12},
          "two_phase": {"tau": 20, "total_steps": 40, "phase2_mode": "last_layer_gd"}}, 1),
        # certify_ce's train, shortened: one-hot targets need only the rank
        ({"loss": "cross_entropy",
          "data": {"n": 32, "m_x": 8, "m_y": 4, "c_min": 0.01, "kind": "one_hot"},
          "network": {"hidden_widths": [8, 36], "sharpness": 10.0},
          "base": {"variant": "gd", "learning_rate": 0.01, "weight_decay": 1e-05},
          "two_phase": {"total_steps": 100, "tau_fraction": 0.6, "noise_scale": 0.001,
                        "phase2_mode": "last_layer_sgd", "sgd_minibatch": 8}}, 0),
    ], ids=["head_json", "certify_ce"])
    def test_features_at_tau_are_decomposed_once(self, monkeypatch, config, svds):
        # from the pass at tau to the certificate: one Gram and one Cholesky
        # factorization of [h, 1] rank it, and the head solve reads that
        # verdict, whose thin SVD a counted rank has already taken
        counts, live = {"cholesky": 0, "svd": 0}, [False]
        for name in counts:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += live[0]
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        at_tau, certificate = trainer._at_tau, trainer.Certificate

        def spied_at_tau(*args):
            live[0] = True
            return at_tau(*args)

        def spied_certificate(*args):
            cert = certificate(*args)
            live[0] = False
            return cert

        monkeypatch.setattr(trainer, "_at_tau", spied_at_tau)
        monkeypatch.setattr(trainer, "Certificate", spied_certificate)
        cfg = cli._merge(DEFAULT_CONFIG, dict(config, seed=0, bounds=True))
        ds = cli._build_dataset(cfg)
        _, log = cli._train_once(cfg, ds, cli._build_spec(cfg, ds), record_sink=lambda rec: None)
        assert log.constants["certificate"] == ("exact" if svds else "vacuous")
        assert counts == {"cholesky": 1, "svd": svds}

    def test_lazy_step_factors_once_and_solves_nothing(self, monkeypatch):
        # squared loss with bounds on: the residual borders the Cholesky
        # factorization of the rank test, which then gives the step's
        # distance too, so a lazy step makes one factorization, no solve and
        # no spectrum
        counts = {"cholesky": 0, "solve": 0, "svd": 0, "eigvalsh": 0}
        for name in counts:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        per_step = []

        def sink(rec):
            if rec.phase == 2:
                per_step.append(dict(counts))
                counts.update(cholesky=0, solve=0, svd=0, eigvalsh=0)

        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True, record_sink=sink)
        # the first step's count includes those of the features' rank and
        # the reference kernel at tau
        step = {"cholesky": 1, "solve": 0, "svd": 0, "eigvalsh": 0}
        assert per_step == [dict(step, cholesky=3)] + [step] * 9

    @pytest.mark.parametrize("mode", ["lazy_full", "last_layer_gd"])
    def test_run_whose_factorizations_succeed_takes_no_spectrum(self, monkeypatch, mode):
        # every rank verdict, monitored ones and the features' at tau
        # included, is proved by a factorization; the lazy reference
        # threshold is settled by its bound, and squared loss builds no
        # centering basis, so neither run calls an SVD or eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum was computed")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        if mode == "lazy_full":
            ds, spec, p0 = _toy_problem(seed=19)
            kind, base = SQUARED, BaseAlgoConfig(variant="gd", minibatch=10)
            cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode=mode,
                                 lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        else:  # one-hot cross-entropy, as head_gd_ce, with its rank-only optimum
            ds = synth_gen(16, 4, 3, 0.03, "one_hot", seed=19)
            spec = NetworkSpec((4, 8, 18), 3, sharpness=10.0)
            p0, kind = init_params(spec, seed=19), CROSS_ENTROPY
            base = BaseAlgoConfig(variant="sgd_momentum", minibatch=8, seed=19)
            cfg = TwoPhaseConfig(tau=12, total_steps=20, phase2_mode=mode, seed=19)
        _, log = run_two_phase(p0, ds, base, cfg, kind, monitor_every=2, bounds=True)
        ranks = [r for r in log.records if r.feature_rank is not None]
        assert len(ranks) == (6 if mode == "lazy_full" else 10)
        assert all(r.ntk_rank == ds.y.size for r in ranks)

    @pytest.mark.parametrize("lipschitz, workspaces", [(50.0, 1), (None, 2)])
    def test_one_workspace_per_lazy_run(self, monkeypatch, lipschitz, workspaces):
        # the reference at tau, its backprop and every candidate write into
        # the run's workspace; no pass or kernel makes one of its own, and
        # without lazy_lipschitz the estimate's nine gradients share one more
        made = []
        init = network.Workspace.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        ds, spec, p0 = _toy_problem(seed=19)
        monkeypatch.setattr(network.Workspace, "__init__", counting)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=lipschitz, seed=19)
        run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True)
        assert len(made) == workspaces

    def test_lazy_retry_cap_names_step_and_phase(self, monkeypatch):
        # every candidate's verdict is one below the reference's rank, so
        # the first phase-2 step halves its rate LAZY_MAX_RETRIES times and
        # gives up
        compute_ntk = trainer.compute_ntk

        def short(kernel, reference=None, rhs=None, work=None):
            snap = compute_ntk(kernel, reference, rhs, work)
            if reference is not None:
                snap.rank = reference.rank - 1
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", short)
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        seen = []
        with pytest.raises(RankPreservationError,
                           match=r"^step 4 \(phase 2\): .*after 10 rate halvings"):
            run_two_phase(p0, ds, base, cfg, SQUARED, record_sink=seen.append)
        assert [r.t for r in seen] == [1, 2, 3]

    def test_lazy_kernel_below_full_rank_names_step_and_phase(self, monkeypatch):
        # a reference kernel below full rank: Rbar is undefined from tau on.
        # An accepted verdict has at least the reference's rank, so only the
        # reference can fail, and the spy lowers its rank alone
        compute_ntk = trainer.compute_ntk

        def short_reference(kernel, reference=None, rhs=None, work=None):
            snap = compute_ntk(kernel, reference, rhs, work)
            if reference is None:
                snap.rank -= 1
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", short_reference)
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        seen = []
        with pytest.raises(RankDeficientError,
                           match=r"^step 3 \(phase 2\): kernel has numerical rank 19 < 20"):
            run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True,
                          record_sink=seen.append)
        assert [r.t for r in seen] == [1, 2, 3]

    def test_lazy_record_reads_the_rank_its_verdict_used(self, monkeypatch):
        # step 5's first two candidates fail their factorizations and are
        # counted at max(the reference threshold, their own stock
        # tolerance): 17 and 19, where the reference threshold alone would
        # count the rounding noise between the two and give 19 and 20; the
        # third is proved full rank, and the record reads that verdict's
        # rank
        compute_ntk, ranks = trainer.compute_ntk, []

        def keeping(kernel, reference=None, rhs=None, work=None):
            snap = compute_ntk(kernel, reference, rhs, work)
            if reference is not None:
                ranks.append((snap.proved, snap.rank,
                              snap.count_above(max(reference.tolerance, snap.tolerance)),
                              snap.count_above(reference.tolerance)))
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", keeping)
        ds, spec, p0 = _toy_problem(seed=2, bn=True)
        cfg = TwoPhaseConfig(tau=3, total_steps=5, phase2_mode="lazy_full",
                             lazy_eta_bar=0.5, seed=2)
        _, log = run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10),
                               cfg, SQUARED)
        step = log.records[-1]
        assert step.t == 5 and step.rank_event == "rank_drop_halved_eta_bar_to_1.250e-01"
        assert [t for t, _ in log.rank_events] == [5, 5]
        assert ranks[1:] == [(False, 17, 17, 19), (False, 19, 19, 20), (True, 20, 20, 20)]
        assert step.ntk_rank == 20

    def test_candidate_verdict_survives_a_last_bit_flip(self, monkeypatch):
        # the frozen-BN toy diverges from step 5, whose first candidate's
        # kernel peaks near 1.2e9: its factorization fails, and its
        # eigenvalues are counted above its own rounding noise, not at the
        # reference threshold inside it.  So flipping the last bit of every
        # kernel the rank test sees, the reference at tau's included, leaves
        # every verdict and the failure as they were
        compute_ntk = trainer.compute_ntk

        def outcome(flip):
            def flipping(kernel, reference=None, rhs=None, work=None):
                if flip:
                    kernel[...] = (kernel.view(np.int64) ^ 1).view(np.float64)
                return compute_ntk(kernel, reference, rhs, work)

            monkeypatch.setattr(trainer, "compute_ntk", flipping)
            ds, spec, p0 = _toy_problem(seed=2, bn=True)
            cfg = TwoPhaseConfig(tau=3, total_steps=23, phase2_mode="lazy_full",
                                 lazy_eta_bar=0.5, seed=2)
            seen = []
            with pytest.raises((RankPreservationError, RankDeficientError)) as failure:
                run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                              SQUARED, bounds=True, record_sink=seen.append)
            return ([(r.t, r.ntk_rank, r.rank_event) for r in seen],
                    type(failure.value), str(failure.value))

        assert outcome(flip=True) == outcome(flip=False)

    @pytest.mark.parametrize("bounds", [True, False])
    def test_lazy_r_bar_only_with_bounds(self, monkeypatch, bounds):
        # one linearized distance per kernel of tau and every step when the
        # ceilings are on, and none when they are off
        calls = []
        distance = twophase.bounds._linearized_distance

        def counting(*args):
            calls.append(1)
            return distance(*args)

        monkeypatch.setattr(twophase.bounds, "_linearized_distance", counting)
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED, bounds=bounds)
        assert len(calls) == (13 - 3 + 1 if bounds else 0)
        assert (log.constants.get("r_bar") is not None) == bounds
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
        run_two_phase(p0, ds, base, cfg, CROSS_ENTROPY)
        assert len(built) <= 3

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd", "lazy_full"])
    def test_record_numbers_are_python_floats(self, mode):
        # as phase 1 stores them, so every mode's records serialize alike
        ds, spec, p0 = _toy_problem(seed=19)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode=mode, sgd_minibatch=4,
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED, bounds=True)
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
                run_two_phase(p0, ds, base, cfg, SQUARED)


    def test_divergent_lazy_step_names_step_and_phase(self):
        # the step 2 * eta_bar / L overflows the candidate parameters
        ds, spec, p0 = _toy_problem(seed=16)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        cfg = TwoPhaseConfig(tau=2, total_steps=6, phase2_mode="lazy_full",
                             lazy_lipschitz=1e-300, seed=16)
        with pytest.raises(FloatingPointError, match=r"step 3 \(phase 2\)"):
            run_two_phase(p0, ds, base, cfg, SQUARED)

    def test_noise_scales_of_the_wrong_length_rejected_before_the_first_record(self):
        # one scale per hidden layer: the toy has two, and perturb would
        # only find out at tau
        ds, spec, p0 = _toy_problem(seed=3)
        cfg = TwoPhaseConfig(tau=5, total_steps=8, noise_scale=(1e-3,) * 3, seed=3)
        seen = []
        with pytest.raises(ValueError, match="expected 2 noise scales, got 3"):
            run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                          SQUARED, record_sink=seen.append)
        assert not seen


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


def _data_order_phase_one(params0, ds, base, tau, kind, monitor_every):
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
        trace = forward_hidden(params, rows)
        trace.output = trace.hidden @ params.weights[-1] + params.biases[-1]
        return trace

    def full_pass(gradient):
        trace = forward(x)
        loss, up = _reference_loss(kind, trace.output, y, gradient)
        return trace, loss, (backprop(params, trace, up) if gradient else None)

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
            batch = forward(x[idx]) if any(params.spec.bn_flags) else trainer._rows(trace, idx)
            g = backprop(params, batch, _reference_loss(kind, batch.output, y[idx])[1])
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
            kernels.append(ntk.compute_kernel(params, trace))
            ranks = (certified_rank(append_ones(trace.hidden)).rank,
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

        def keeping(kernel, reference=None, rhs=None, work=None):
            kernels.append(kernel.copy())
            return compute_ntk(kernel, reference, rhs, work)

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
        params, log = run_two_phase(p0, ds, base, cfg, kind, monitor_every=monitor_every)
        initial, want, want_kernels, reference = _data_order_phase_one(
            p0, ds, base, tau, kind, monitor_every)
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
            run_two_phase(init_params(spec, seed=0), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=sink)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert seen["peak"] - seen["start"] < 128 * 141 * 8

    def test_lazy_sq_step_allocates_less_than_one_pass_sized_array(self):
        # a lazy_sq-shaped phase-1 GD step on the run's workspace: after one
        # warm-up, its pass, loss terms, backprop and update raise the traced
        # peak by less than one n x max(m_l) float64 array, so none of the
        # bias add, softplus and backprop makes one of its own
        ds = synth_gen(64, 8, 2, 0.01, "regression", seed=1)
        spec = NetworkSpec((8, 8, 71), 2, sharpness=10.0)
        cfg = TwoPhaseConfig(tau=100, total_steps=200, phase2_mode="lazy_full")
        run = trainer._Run(spec, ds, BaseAlgoConfig(variant="gd"), cfg, SQUARED, 0, None)
        params = init_params(spec, seed=1)

        def step():
            trace = forward_hidden(params, run.x, work=run.work)
            _, residual = trainer._terms(SQUARED, forward_output(params, trace), run.y)
            params.flat -= 0.01 * backprop(params, trace, trainer._mean_gradient(SQUARED, residual),
                                           work=run.work)

        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            step()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - start < 64 * 71 * 8

    @pytest.mark.parametrize("mode", ["last_layer_gd", "last_layer_sgd"])
    def test_unmonitored_head_phase_drops_the_pass_at_tau(self, mode):
        # a head_gd_ce-shaped run with monitoring off: phase 2 reads no pass,
        # so traced memory at the first phase-2 record is below that at
        # record tau by at least one n x m_H float64 array
        ds = synth_gen(128, 8, 4, 0.01, "one_hot", seed=0)
        spec = NetworkSpec((8, 8, 141), 4, sharpness=10.0)
        tau, seen = 60, {}

        def sink(rec):
            if rec.t in (tau, tau + 1):
                seen[rec.t] = tracemalloc.get_traced_memory()[0]

        cfg = TwoPhaseConfig(tau=tau, total_steps=100, phase2_mode=mode)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            run_two_phase(init_params(spec, seed=0), ds, BaseAlgoConfig(minibatch=64), cfg,
                          CROSS_ENTROPY, monitor_every=0, record_sink=sink)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert seen[tau] - seen[tau + 1] >= 128 * 141 * 8

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
            run_two_phase(init_params(spec, seed=3), ds, base, cfg, CROSS_ENTROPY,
                          record_sink=sink)
        finally:
            sys.setprofile(previous)
        assert calls.count("emit") == 80
        assert len(calls) <= 25 * 80, sorted(set(calls))


class TestLipschitzEstimate:
    def test_positive_and_deterministic(self):
        ds, spec, p0 = _toy_problem(seed=14)
        a = estimate_lipschitz(p0, ds.x, ds.y, SQUARED, seed=3)
        b = estimate_lipschitz(p0, ds.x, ds.y, SQUARED, seed=3)
        assert a == b > 0.0

    def test_frozen_stats_of_the_wrong_length_rejected(self):
        # its passes share one workspace, which trusts them, so the
        # statistics are checked on entry
        ds, spec, p0 = _toy_problem(seed=14)
        with pytest.raises(ValueError, match="one entry per hidden layer"):
            estimate_lipschitz(p0, ds.x, ds.y, SQUARED, frozen_stats=[None] * 3)


def _certified_run(mode, seed=19, kind=SQUARED, target="regression", bounds=True):
    """A short run in `mode` on the toy problem, with a fixed lazy L."""
    ds, spec, p0 = _toy_problem(seed=seed)
    if target != "regression":
        ds = synth_gen(10, 4, 2, 0.03, target, seed=seed)
    base = BaseAlgoConfig(variant="gd", minibatch=10)
    cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode=mode, lazy_eta_bar=0.05,
                         lazy_lipschitz=50.0, sgd_rate_scale=0.05, sgd_minibatch=4, seed=seed)
    return run_two_phase(p0, ds, base, cfg, kind, bounds=bounds)


class TestCertificate:
    @pytest.mark.parametrize("mode", _MODES)
    def test_bounds_off_leaves_no_certificate(self, mode):
        _, log = _certified_run(mode, bounds=False)
        assert log.constants == {} and log.violations is None
        assert all(r.bound is None and r.suboptimality is None for r in log.records)

    def test_phase_one_records_carry_no_ceiling(self):
        _, log = _certified_run("last_layer_gd")
        assert all(r.bound is None and r.suboptimality is None
                   for r in log.records if r.phase == 1)
        assert all(isinstance(r.bound, float) and isinstance(r.suboptimality, float)
                   for r in log.phase2_records())

    @pytest.mark.parametrize("mode, status, keys, violations", [
        ("last_layer_gd", "exact", {"g_squared", "r_squared"}, 0),
        ("last_layer_sgd", "expectation", {"g_squared", "r_squared"}, None),
        ("lazy_full", "estimated", {"l_estimate", "diagnostic", "r_bar", "r_bar_kind"}, None),
    ], ids=_MODES)
    def test_constants_by_mode(self, mode, status, keys, violations):
        _, log = _certified_run(mode)
        assert set(log.constants) == keys | {"loss_star", "certificate"}
        assert log.constants["certificate"] == status
        assert log.violations == violations
        assert log.constants["loss_star"] == pytest.approx(0.0, abs=1e-12)

    def test_exact_ceiling_counts_each_exceedance(self, monkeypatch):
        # a zero ceiling: every step whose suboptimality clears the slack
        # is one violation
        monkeypatch.setattr(bounds, "gd_bound", lambda *args: 0.0)
        _, log = _certified_run("last_layer_gd")
        phase2 = log.phase2_records()
        exceeded = sum(r.suboptimality > SLACK_REL for r in phase2)
        assert all(r.bound == 0.0 for r in phase2)
        assert log.violations == exceeded > 0

    def test_expectation_ceiling_counts_no_exceedance(self, monkeypatch):
        # one run above a ceiling on the expected suboptimality is no violation
        monkeypatch.setattr(bounds, "sgd_bound", lambda *args: 0.0)
        _, log = _certified_run("last_layer_sgd")
        assert any(r.suboptimality > SLACK_REL for r in log.phase2_records())
        assert log.violations is None

    def test_unattained_optimum_is_vacuous_and_counts_nothing(self, monkeypatch):
        # one-hot cross-entropy on full-rank features: R^2 is inf, so no step
        # gets a ceiling, even one that would be exceeded
        monkeypatch.setattr(bounds, "gd_bound", lambda *args: 0.0)
        _, log = _certified_run("last_layer_gd", kind=CROSS_ENTROPY, target="one_hot")
        assert log.constants["certificate"] == "vacuous"
        assert log.constants["r_squared"] is None
        assert log.violations is None
        assert all(r.bound is None and r.suboptimality is None for r in log.phase2_records())

    def test_params_at_tau_is_the_kicked_phase_one_end(self):
        # a run that stops at tau returns the kicked parameters; a longer one
        # keeps a copy of them that its head phase leaves alone
        ds, spec, p0 = _toy_problem(seed=8)
        base = BaseAlgoConfig(variant="gd", minibatch=10)
        short = TwoPhaseConfig(tau=6, total_steps=6, seed=8)
        kicked, _ = run_two_phase(p0, ds, base, short, SQUARED)
        cfg = TwoPhaseConfig(tau=6, total_steps=30, phase2_mode="last_layer_gd", seed=8)
        final, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        np.testing.assert_array_equal(log.params_at_tau.flat, kicked.flat)
        assert not np.array_equal(final.head_block(), kicked.head_block())
        assert not np.shares_memory(final.flat, log.params_at_tau.flat)


def _reference_lazy_phase(spec, ds, kind, log, cfg):
    """The lazy phase from the perturbed parameters log.params_at_tau, at
    the rate of cfg.lazy_lipschitz or else of estimate_lipschitz there,
    written out independently of the trainer: allocating passes and
    backprops, each candidate's kernel factored at the tolerance of the
    reference kernel at tau and, if that fails, counted above the larger of
    that tolerance and its own, and eta_bar halved on every rejection.
    Returns (loss, grad_norm, ntk_rank, rank_event) per step and the rank
    events."""
    x, y, frozen = ds.x, ds.y, log.frozen_stats
    lipschitz = cfg.lazy_lipschitz or max(
        estimate_lipschitz(log.params_at_tau, x, y, kind, frozen, seed=cfg.seed), 1e-12)

    def evaluate(params):
        trace = forward_hidden(params, x, frozen)
        trace.output = trace.hidden @ params.weights[-1] + params.biases[-1]
        loss, up = _reference_loss(kind, trace.output, y)
        return trace, loss, backprop(params, trace, up)

    params = log.params_at_tau
    trace, _, g = evaluate(params)
    reference = ntk.compute_ntk(ntk.compute_kernel(params, trace))
    eta_bar, records, events = cfg.lazy_eta_bar, [], []
    for t in range(cfg.tau + 1, cfg.total_steps + 1):
        event = None
        while True:
            cand = Params(spec, params.flat - (2.0 * eta_bar / lipschitz) * g)
            trace, loss, cand_g = evaluate(cand)
            snap = certified_rank(ntk.compute_kernel(cand, trace), reference.tolerance,
                                  gram=True)
            rank = (snap.rank if snap.proved
                    else snap.count_above(max(reference.tolerance, snap.tolerance)))
            if rank >= reference.rank:
                break
            eta_bar /= 2.0
            event = f"rank_drop_halved_eta_bar_to_{eta_bar:.3e}"
            events.append((t, event))
        records.append((loss, math.sqrt(float((g * g).sum())), rank, event))
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
        _, log = run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
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

        def checking(params, trace, t, phase, reference=None, **kwargs):
            seen.append((t, trace.output is not None))
            return snapshot(params, trace, t, phase, reference, **kwargs)

        monkeypatch.setattr(trainer, "_snapshot", checking)
        ds, spec, p0 = _toy_problem(seed=2)
        cfg = TwoPhaseConfig(tau=3, total_steps=23, phase2_mode="lazy_full", lazy_eta_bar=0.5,
                             seed=2)
        _, log = run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                               SQUARED)
        candidates = [ok for t, ok in seen if t > cfg.tau]
        assert len(candidates) == 20 + len(log.rank_events)
        assert all(candidates)

    def test_a_kernel_below_the_reference_threshold_is_counted_there(self, monkeypatch):
        # step 4's first candidate kernel, scaled by 1e-12, has its own
        # stock threshold far below the reference's: its factorization at
        # the reference's threshold fails, and its rank is the eigvalsh
        # count above the reference's tolerance, not above its own (full),
        # so the step is rejected and retried at half the rate
        compute_ntk, verdicts = trainer.compute_ntk, []

        def scaling(kernel, reference=None, rhs=None, work=None):
            if reference is not None and not verdicts:
                kernel *= 1e-12
            snap = compute_ntk(kernel, reference, rhs, work)
            if reference is not None:
                above = int(np.count_nonzero(np.linalg.eigvalsh(kernel) > reference.tolerance))
                own = snap.count_above(snap.tolerance)
                verdicts.append((snap.proved, snap.rank, own, above))
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", scaling)
        ds, spec, p0 = _toy_problem(seed=19)
        cfg = TwoPhaseConfig(tau=3, total_steps=13, phase2_mode="lazy_full",
                             lazy_eta_bar=0.05, lazy_lipschitz=50.0, seed=19)
        _, log = run_two_phase(p0, ds, BaseAlgoConfig(variant="gd", minibatch=10), cfg,
                               SQUARED)
        proved, rank, own, above = verdicts[0]
        assert not proved and own == 20 and rank == above < 20
        assert log.rank_events == [(4, "rank_drop_halved_eta_bar_to_2.500e-02")]
        assert all(proved and rank == 20 for proved, rank, _, _ in verdicts[1:])
        assert [r.ntk_rank for r in log.phase2_records()] == [20] * 10

    def test_each_verdict_is_the_count_at_the_reference_threshold(self, tmp_path, monkeypatch):
        # the squared-loss lazy config of the CI entry-point checks, at seed
        # 7: candidates whose factorizations fail are counted above
        # max(the reference's tolerance, their own), eigvalsh's count, and
        # some are rejected; a proved verdict is full rank, and each record
        # reads the rank of the verdict its step accepted
        compute_ntk, verdicts, eps = trainer.compute_ntk, [], np.finfo(np.float64).eps

        def checking(kernel, reference=None, rhs=None, work=None):
            snap = compute_ntk(kernel, reference, rhs, work)
            if reference is not None:
                values = np.linalg.eigvalsh(kernel)
                top = max(np.linalg.eigvalsh(reference.matrix)[-1], values[-1], 0.0)
                count = int(np.count_nonzero(values > kernel.shape[0] * eps * top))
                verdicts.append((snap.proved, snap.rank, snap.size if snap.proved else count,
                                 reference.rank))
            return snap

        monkeypatch.setattr(trainer, "compute_ntk", checking)
        config = tmp_path / "lazy.json"
        config.write_text(json.dumps(_CI_LAZY))
        out = tmp_path / "lazy"
        assert cli.main(["train", "--config", str(config), "--seed", "7",
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "run.log.jsonl").read_text().splitlines()]
        events = json.loads((out / "summary.json").read_text())["rank_events"]
        assert not all(proved for proved, *_ in verdicts)
        assert all(rank == want for _, rank, want, _ in verdicts)
        accepted = [rank for _, rank, _, reference in verdicts if rank >= reference]
        assert len(verdicts) - len(accepted) == len(events) > 0
        assert [r["ntk_rank"] for r in records if r["phase"] == 2] == accepted
