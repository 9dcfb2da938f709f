"""Optimum solves, the three rate-bound formulas, and report assembly."""

import numpy as np
import pytest

from twophase.bounds import (
    BoundConstants,
    check_bounds,
    estimate_R_bar,
    gd_bound,
    inv_sqrt_schedule,
    lazy_bound,
    r_squared_expectation,
    sgd_bound,
    solve_last_layer_optimum,
)
from twophase.data import synth_gen
from twophase.linalg import min_norm_solve
from twophase.losses import CROSS_ENTROPY, SQUARED
from twophase.network import NetworkSpec, init_params
from twophase.ntk import compute_jacobian
from twophase.trainer import BaseAlgoConfig, TwoPhaseConfig, nu_mask, run_two_phase


class TestLastLayerOptimum:
    def test_square_invertible_interpolates_exactly(self, rng):
        h = rng.standard_normal((5, 4))  # [h, 1] is square 5x5
        y = rng.standard_normal((5, 2))
        opt = solve_last_layer_optimum(SQUARED, h, y, np.zeros((5, 2)))
        assert opt.loss_star <= 1e-20
        assert not opt.approximate

    def test_optimal_anchor_gives_zero_distance(self, rng):
        h = rng.standard_normal((4, 6))
        aug = np.hstack([h, np.ones((4, 1))])
        z_star = min_norm_solve(aug, rng.standard_normal((4, 2)), np.zeros((7, 2)))
        opt = solve_last_layer_optimum(SQUARED, h, aug @ z_star, z_star)
        assert opt.r_squared <= 1e-16

    def test_residual_invariant(self, rng):
        h = rng.standard_normal((6, 8))
        y = rng.standard_normal((6, 3))
        opt = solve_last_layer_optimum(SQUARED, h, y, rng.standard_normal((9, 3)))
        assert opt.residual <= 1e-8 * (1 + np.linalg.norm(y))

    def test_distance_matches_refined_grid_oracle(self, rng):
        # n=8, m_H=9: two null-space directions per output column
        n, m_h = 8, 9
        h = rng.standard_normal((n, m_h))
        y = rng.standard_normal((n, 1))
        anchor = rng.standard_normal((m_h + 1, 1))
        opt = solve_last_layer_optimum(SQUARED, h, y, anchor)
        aug = np.hstack([h, np.ones((n, 1))])
        _, _, vt = np.linalg.svd(aug)
        null = vt[n:].T  # (m_h + 1) x 2
        particular = np.linalg.pinv(aug) @ y
        center = np.zeros(2)
        width = 8.0
        best = np.inf
        for _ in range(4):  # coarse-to-fine refinement
            s1 = np.linspace(center[0] - width, center[0] + width, 81)
            s2 = np.linspace(center[1] - width, center[1] + width, 81)
            g1, g2 = np.meshgrid(s1, s2, indexing="ij")
            cand = particular[:, :, None] + null[:, 0:1, None] * g1.ravel() \
                + null[:, 1:2, None] * g2.ravel()
            dist = ((cand - anchor[:, :, None]) ** 2).sum(axis=(0, 1))
            k = int(np.argmin(dist))
            best = float(dist[k])
            center = np.array([g1.ravel()[k], g2.ravel()[k]])
            width /= 20.0
        assert opt.r_squared == pytest.approx(best, rel=1e-6)

    def test_cross_entropy_iterative_attains_entropy_floor(self, rng):
        # soft targets keep the minimizer finite: optimal loss is the mean entropy
        n, m_h, m_y = 4, 5, 3
        h = rng.standard_normal((n, m_h))
        y = np.abs(rng.standard_normal((n, m_y))) + 0.2
        y /= y.sum(axis=1, keepdims=True)
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y, np.zeros((m_h + 1, m_y)),
                                       grad_tol=1e-10, max_steps=200_000)
        assert opt.approximate
        entropy = float(-(y * np.log(y)).sum() / n)
        assert opt.loss_star == pytest.approx(entropy, abs=1e-6)
        assert opt.grad_norm <= 1e-9


class TestBoundFormulas:
    def test_gd_zero_distance(self):
        assert gd_bound(0.0, 5.0, 10, 3) == 0.0

    def test_gd_hand_value(self):
        assert gd_bound(1.0, 6.0, 8, 7) == pytest.approx(3.0)

    def test_gd_inverse_time_law(self):
        assert gd_bound(2.0, 4.0, 21, 1) == pytest.approx(gd_bound(2.0, 4.0, 41, 1) * 2)

    def test_gd_requires_progress(self):
        with pytest.raises(ValueError):
            gd_bound(1.0, 1.0, 5, 5)

    def test_sgd_noiseless_constant_schedule(self):
        t, tau, eta = 12, 2, 0.05
        sched = np.full(t - tau + 1, eta)
        want = 1.5 / (2 * eta * (t - tau + 1))
        assert sgd_bound(1.5, 0.0, sched, t, tau) == pytest.approx(want)

    def test_sgd_inv_sqrt_schedule_decays(self):
        r2, g2 = 4.0, 2.0
        vals = [sgd_bound(r2, g2, inv_sqrt_schedule(0.01, 0, t), t, 0)
                for t in (10, 1000, 100_000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05 * vals[0]

    def test_sgd_partial_sums_match_accumulation_oracle(self):
        tau, t = 5, 1005
        sched = inv_sqrt_schedule(0.01, tau, t)
        s = sq = 0.0
        for k in range(tau, t + 1):
            e = 0.01 / np.sqrt(k - tau + 1)
            s += e
            sq += e * e
        want = (3.0 + 2.0 * sq) / (2.0 * s)
        got = sgd_bound(3.0, 2.0, sched, t, tau)
        assert abs(got - want) <= 1e-12 * want

    def test_sgd_validation(self):
        with pytest.raises(ValueError, match="zero"):
            sgd_bound(1.0, 1.0, [0.0, 0.0], 1, 0)
        with pytest.raises(ValueError, match="entries"):
            sgd_bound(1.0, 1.0, [0.1], 5, 0)

    def test_lazy_zero_gap(self):
        assert lazy_bound(10.0, 3.0, 0.5, 0.5, 0.5, 9, 4) == 0.0

    def test_lazy_inverse_sqrt_law(self):
        a = lazy_bound(10.0, 3.0, 1.0, 0.0, 0.5, 4, 0)    # t - tau + 1 = 5
        b = lazy_bound(10.0, 3.0, 1.0, 0.0, 0.5, 19, 0)   # t - tau + 1 = 20
        assert a == pytest.approx(2.0 * b)

    def test_lazy_eta_bar_validation(self):
        with pytest.raises(ValueError, match="eta_bar"):
            lazy_bound(1.0, 1.0, 1.0, 0.0, 1.2, 5, 0)

    def test_step_arrays_match_scalar_calls(self):
        steps = np.arange(4, 41)
        sched = inv_sqrt_schedule(0.01, 3, 40)
        np.testing.assert_array_equal(
            gd_bound(1.7, 5.3, steps, 3), [gd_bound(1.7, 5.3, t, 3) for t in steps])
        np.testing.assert_array_equal(
            sgd_bound(1.7, 2.2, sched, steps, 3),
            [sgd_bound(1.7, 2.2, sched[:t - 2], t, 3) for t in steps])
        np.testing.assert_array_equal(
            lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, steps, 3),
            [lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, t, 3) for t in steps])
        with pytest.raises(ValueError, match="t > tau"):
            gd_bound(1.0, 1.0, steps, 4)

    def test_re_evaluation_bit_identical(self):
        # the formulas are pure arithmetic, no iteration or state
        sched = inv_sqrt_schedule(0.01, 3, 40)
        assert gd_bound(1.7, 5.3, 19, 3) == gd_bound(1.7, 5.3, 19, 3)
        assert sgd_bound(1.7, 2.2, sched, 40, 3) == sgd_bound(1.7, 2.2, sched, 40, 3)
        assert lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, 9, 2) == \
            lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, 9, 2)


def _interpolating_setup(seed=0):
    ds = synth_gen(4, 3, 2, 0.05, "regression", seed=seed)
    spec = NetworkSpec((3, 6, 6), 2, sharpness=10.0)
    params = init_params(spec, seed=seed)
    from twophase.network import forward_hidden
    h = forward_hidden(spec, params, ds.x).hidden
    aug = np.hstack([h, np.ones((4, 1))])
    z = min_norm_solve(aug, ds.y, np.zeros((7, 2)))
    params.set_head_block(z)
    return ds, spec, params


class TestEstimateRBar:
    def test_feasible_anchor_gives_zero(self):
        ds, spec, params = _interpolating_setup()
        jac = compute_jacobian(spec, params, ds.x)
        assert estimate_R_bar([(params, jac)], ds.y, SQUARED) <= 1e-8

    def test_singleton_matches_direct_solve(self, rng):
        ds, spec, params = _interpolating_setup(seed=1)
        params.weights[-1][:] = params.weights[-1] + rng.standard_normal(params.weights[-1].shape)
        jac = compute_jacobian(spec, params, ds.x)
        got = estimate_R_bar([(params, jac)], ds.y, SQUARED)
        anchor = (nu_mask(params) * params.to_flat()).reshape(-1, 1)
        omega = min_norm_solve(jac, ds.y.reshape(-1, 1), anchor)
        assert got == pytest.approx(float(np.linalg.norm(anchor - omega)), rel=1e-12)

    def test_three_step_trajectory_matches_recomputation_oracle(self, rng):
        ds, spec, params = _interpolating_setup(seed=2)
        traj = []
        for _ in range(3):
            p = params.copy()
            p.weights[-1][:] = p.weights[-1] + 0.3 * rng.standard_normal(p.weights[-1].shape)
            traj.append((p, compute_jacobian(spec, p, ds.x)))
        got = estimate_R_bar(traj, ds.y, SQUARED)
        worst = 0.0
        for p, jac in traj:
            anchor = (nu_mask(p) * p.to_flat()).reshape(-1, 1)
            pinv = np.linalg.pinv(jac)
            omega = anchor + pinv @ (ds.y.reshape(-1, 1) - jac @ anchor)
            worst = max(worst, float(np.linalg.norm(anchor - omega)))
        assert got == pytest.approx(worst, rel=1e-9)

    def test_cross_entropy_takes_linearized_descent(self):
        # soft targets, J full row rank: the linearized minimizers are the w
        # with J w = vec(log Y) + a per-sample constant, and descent from the
        # anchor converges to the one nearest it
        ds, spec, params = _interpolating_setup(seed=3)
        jac = compute_jacobian(spec, params, ds.x)
        y = np.abs(ds.y) + 0.5
        y /= y.sum(axis=1, keepdims=True)
        got = estimate_R_bar([(params, jac)], y, CROSS_ENTROPY, max_steps=20_000)
        n, m_y = y.shape
        anchor = (nu_mask(params) * params.to_flat()).reshape(-1, 1)
        pinv = np.linalg.pinv(jac)
        gap = np.log(y).reshape(-1, 1) - jac @ anchor
        shifts = np.kron(np.eye(n), np.ones((m_y, 1)))
        c, *_ = np.linalg.lstsq(pinv @ shifts, -pinv @ gap, rcond=None)
        want = float(np.linalg.norm(pinv @ (gap + shifts @ c)))
        assert got == pytest.approx(want, rel=1e-7)


class TestCheckBounds:
    def _gd_log(self, seed=0, mode="last_layer_gd"):
        ds = synth_gen(10, 4, 2, 0.03, "regression", seed=seed)
        spec = NetworkSpec((4, 8, 12), 2, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=10, seed=seed)
        cfg = TwoPhaseConfig(tau=10, total_steps=110, phase2_mode=mode, sgd_minibatch=4,
                             seed=seed)
        _, log = run_two_phase(spec, init_params(spec, seed), ds, base, cfg, SQUARED)
        return ds, log

    def test_noiseless_gd_zero_violations(self):
        ds, log = self._gd_log()
        opt = solve_last_layer_optimum(SQUARED, log.features_at_tau, ds.y, log.head_at_tau)
        rep = check_bounds(log, BoundConstants(
            mode="last_layer_gd", r_squared=opt.r_squared,
            loss_star=opt.loss_star, l_h=log.l_h))
        assert rep.violations == 0
        assert len(rep.entries) == 100
        assert not rep.diagnostic
        assert rep.bound_at(11) == pytest.approx(opt.r_squared * log.l_h / 2.0)

    def test_zero_distance_run_stays_at_optimum(self):
        # zero head and zero targets: the anchor is already the minimizer
        ds = synth_gen(6, 3, 2, 0.03, "regression", seed=4)
        ds.y[:] = 0.0
        spec = NetworkSpec((3, 6, 8), 2, sharpness=10.0)
        p0 = init_params(spec, seed=4)
        p0.weights[-1][:] = 0.0
        p0.biases[-1][:] = 0.0
        base = BaseAlgoConfig(variant="gd", minibatch=6, seed=4)
        cfg = TwoPhaseConfig(tau=0, total_steps=50, phase2_mode="last_layer_gd", seed=4)
        _, log = run_two_phase(spec, p0, ds, base, cfg, SQUARED)
        opt = solve_last_layer_optimum(SQUARED, log.features_at_tau, ds.y, log.head_at_tau)
        assert opt.r_squared <= 1e-18
        for rec in log.phase2_records():
            assert rec.loss - opt.loss_star <= 1e-9

    def test_mode_mismatch_rejected(self):
        _, log = self._gd_log(seed=5)
        with pytest.raises(ValueError, match="mode"):
            check_bounds(log, BoundConstants(mode="last_layer_sgd", r_squared=1.0,
                                             g_squared=1.0, sgd_rate_scale=0.01))

    def test_missing_constants_rejected(self):
        _, log = self._gd_log(seed=6)
        with pytest.raises(ValueError, match="needs"):
            check_bounds(log, BoundConstants(mode="last_layer_gd"))

    @staticmethod
    def _running_min_gaps(log, loss_star):
        running = np.minimum.accumulate(
            [log.loss_at_tau] + [rec.loss for rec in log.phase2_records()])
        return running[1:] - loss_star

    def test_sgd_report_is_the_closed_form_at_every_step(self):
        ds, log = self._gd_log(seed=9, mode="last_layer_sgd")
        opt = solve_last_layer_optimum(SQUARED, log.features_at_tau, ds.y, log.head_at_tau)
        g2, tau = log.max_sq_grad_phase2, log.tau
        rep = check_bounds(log, BoundConstants(
            mode="last_layer_sgd", r_squared=opt.r_squared, loss_star=opt.loss_star,
            g_squared=g2, sgd_rate_scale=0.01))
        assert [e.t for e in rep.entries] == list(range(tau + 1, tau + 101))
        for e, gap in zip(rep.entries, self._running_min_gaps(log, opt.loss_star)):
            assert e.bound == sgd_bound(opt.r_squared, g2,
                                        inv_sqrt_schedule(0.01, tau, e.t), e.t, tau)
            assert e.measured == gap
        assert rep.violations == sum(e.violated for e in rep.entries) == 0

    def _lazy_report(self):
        ds = synth_gen(6, 4, 1, 0.03, "regression", seed=7)
        spec = NetworkSpec((4, 8, 8), 1, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=6, seed=7)
        cfg = TwoPhaseConfig(tau=4, total_steps=14, phase2_mode="lazy_full",
                             lazy_eta_bar=0.3, seed=7)
        _, log = run_two_phase(spec, init_params(spec, 7), ds, base, cfg, SQUARED,
                               monitor_every=2, keep_trajectory=True)
        r_bar = estimate_R_bar([(p, j) for _, p, j in log.trajectory], ds.y, SQUARED)
        constants = BoundConstants(
            mode="lazy_full", loss_star=0.0,
            l_estimate=log.eta_schedule["lipschitz"], r_bar=r_bar,
            eta_bar=log.eta_schedule["eta_bar"])
        return log, constants, check_bounds(log, constants)

    def test_lazy_report_is_diagnostic(self):
        _, _, rep = self._lazy_report()
        assert rep.diagnostic

    def test_lazy_report_is_the_closed_form_at_every_step(self):
        log, c, rep = self._lazy_report()
        assert [e.t for e in rep.entries] == list(range(5, 15))
        for e, gap in zip(rep.entries, self._running_min_gaps(log, 0.0)):
            assert e.bound == lazy_bound(c.l_estimate, c.r_bar, log.loss_at_tau, 0.0,
                                         c.eta_bar, e.t, log.tau)
            assert e.measured == gap

    def test_r_squared_expectation_deterministic(self):
        ds = synth_gen(5, 3, 1, 0.05, "regression", seed=8)
        spec = NetworkSpec((3, 6, 6), 1, sharpness=10.0)
        p = init_params(spec, seed=8)
        m1, vals1 = r_squared_expectation(spec, p, 1e-3, ds.x, ds.y, SQUARED, draws=6, seed=2)
        m2, _ = r_squared_expectation(spec, p, 1e-3, ds.x, ds.y, SQUARED, draws=6, seed=2)
        assert m1 == m2
        assert vals1.shape == (6,)
        assert np.all(vals1 >= 0.0)
