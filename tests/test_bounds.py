"""Optimum solves, the three rate-bound formulas, and the ceilings a run
streams with its records."""

import sys

import numpy as np
import pytest

from conftest import features_at_tau, jacobian, masked_flat, outputs

import twophase.bounds as bounds
import twophase.trainer as trainer
from twophase.bounds import (
    SLACK_REL,
    Certificate,
    gd_bound,
    lazy_bound,
    sgd_bound,
    solve_last_layer_optimum,
)
from twophase.data import synth_gen
from twophase.linalg import RankDeficientError, append_ones, min_norm_solve
from twophase.losses import CROSS_ENTROPY, SQUARED, loss_grad, loss_value
from twophase.network import NetworkSpec, forward_hidden, init_params
from twophase.ntk import compute_ntk
from twophase.trainer import (
    BaseAlgoConfig,
    StepRecord,
    TwoPhaseConfig,
    compute_L_H,
    run_two_phase,
)


def _distance(snap, f, y, kind):
    # the linearized distance at one kernel, as Certificate.observe takes it
    return bounds._linearized_distance(snap, f, y, kind, bounds._centering_basis(y.shape[1]))


class TestLastLayerOptimum:
    def test_square_invertible_interpolates_exactly(self, rng):
        h = rng.standard_normal((5, 4))  # [h, 1] is square 5x5
        y = rng.standard_normal((5, 2))
        opt = solve_last_layer_optimum(SQUARED, h, y, np.zeros((5, 2)))
        assert opt.loss_star <= 1e-20
        gap = np.hstack([h, np.ones((5, 1))]) @ opt.head - y
        assert np.linalg.norm(gap) <= 1e-10 * (1 + np.linalg.norm(y))

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
        gap = np.hstack([h, np.ones((6, 1))]) @ opt.head - y
        assert np.linalg.norm(gap) <= 1e-8 * (1 + np.linalg.norm(y))

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
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y, np.zeros((m_h + 1, m_y)))
        assert opt.steps == 0
        entropy = float(-(y * np.log(y)).sum() / n)
        assert opt.loss_star == pytest.approx(entropy, abs=1e-6)
        aug = np.hstack([h, np.ones((n, 1))])
        grad = aug.T @ loss_grad(CROSS_ENTROPY, aug @ opt.head, y)
        assert np.linalg.norm(grad) <= 1e-9


def _count_loss_grad(monkeypatch):
    # count calls through every twophase module that binds loss_grad
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return loss_grad(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("twophase") and getattr(module, "loss_grad", None) is loss_grad:
            monkeypatch.setattr(module, "loss_grad", counting)
    return calls


def _soft_targets(rng, n, m_y):
    y = np.abs(rng.standard_normal((n, m_y))) + 0.3
    return y / y.sum(axis=1, keepdims=True)


def _descent_reference(h, y, anchor, tol=1e-13, max_steps=400_000):
    # plain head gradient descent at step 1/L_H, run to convergence
    n = h.shape[0]
    aug = np.hstack([h, np.ones((n, 1))])
    step = 1.0 / ((h * h).sum() / n + 1.0)
    z = anchor.copy()
    for _ in range(max_steps):
        logits = aug @ z
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = aug.T @ (p - y) / n
        if np.linalg.norm(g) < tol:
            return z
        z = z - step * g
    raise AssertionError("reference descent did not converge")


class TestCrossEntropyOptimum:
    def test_one_hot_full_rank_is_vacuous_without_iterating(self, rng, monkeypatch):
        # the certify_ce shape: [h, 1] is 32 x 37 with rank 32
        n, m_h, m_y = 32, 36, 4
        h = rng.standard_normal((n, m_h))
        y = np.eye(m_y)[rng.integers(0, m_y, n)]
        calls = _count_loss_grad(monkeypatch)
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y,
                                       rng.standard_normal((m_h + 1, m_y)))
        assert opt.r_squared == np.inf
        assert opt.loss_star == 0.0 and not np.signbit(opt.loss_star)
        assert opt.steps == 0 and opt.head is None
        assert not calls

    @pytest.mark.parametrize("n,m_h,m_y", [(3, 6, 2), (4, 9, 3), (5, 11, 4),
                                           (6, 14, 3), (2, 7, 5), (8, 17, 2)])
    def test_soft_targets_match_descent_limit(self, rng, monkeypatch, n, m_h, m_y):
        h = rng.standard_normal((n, m_h))
        y = _soft_targets(rng, n, m_y)
        anchor = rng.standard_normal((m_h + 1, m_y))
        want = _descent_reference(h, y, anchor)
        calls = _count_loss_grad(monkeypatch)
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y, anchor)
        assert not calls and opt.steps == 0
        assert np.linalg.norm(opt.head - want) <= 1e-7 * np.linalg.norm(want)
        assert opt.r_squared == pytest.approx(float(((want - anchor) ** 2).sum()),
                                              rel=1e-7)
        assert opt.loss_star == pytest.approx(float(-(y * np.log(y)).sum() / n),
                                              rel=1e-12)
        aug = np.hstack([h, np.ones((n, 1))])
        assert loss_value(CROSS_ENTROPY, aug @ opt.head, y) == \
            pytest.approx(opt.loss_star, rel=1e-10)

    def test_single_output_is_already_optimal(self, rng):
        # one output: softmax is 1 = y for every head, so the anchor is a minimizer
        anchor = rng.standard_normal((6, 1))
        opt = solve_last_layer_optimum(CROSS_ENTROPY, rng.standard_normal((4, 5)),
                                       np.ones((4, 1)), anchor)
        assert opt.r_squared == 0.0 and opt.loss_star == 0.0 and opt.steps == 0
        np.testing.assert_array_equal(opt.head, anchor)

    def test_targets_are_validated(self, rng):
        with pytest.raises(ValueError, match="sums to"):
            solve_last_layer_optimum(CROSS_ENTROPY, rng.standard_normal((3, 5)),
                                     np.full((3, 2), 0.7), np.zeros((6, 2)))

    def test_anchor_shape_is_validated(self, rng):
        # [h, 1] has 6 columns and Y 2, so the anchor must be 6 x 2; the flat
        # head is not read as one
        with pytest.raises(ValueError, match=r"anchor has shape \(5, 2\), expected \(6, 2\)"):
            solve_last_layer_optimum(SQUARED, rng.standard_normal((3, 5)),
                                     rng.standard_normal((3, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match=r"anchor has shape \(12,\), expected \(6, 2\)"):
            solve_last_layer_optimum(SQUARED, rng.standard_normal((3, 5)),
                                     rng.standard_normal((3, 2)), np.zeros(12))

    @pytest.mark.parametrize("targets", ["soft", "one_hot"])
    def test_rank_deficient_features_raise(self, rng, monkeypatch, targets):
        # n > m_H + 1: [h, 1] cannot have full row rank, and without it a zero
        # target does not imply that the infimum is unattained
        n, m_h, m_y = 9, 4, 3
        h = rng.standard_normal((n, m_h))
        y = _soft_targets(rng, n, m_y) if targets == "soft" else \
            np.eye(m_y)[rng.integers(0, m_y, n)]
        calls = _count_loss_grad(monkeypatch)
        with pytest.raises(RankDeficientError, match="rank 5 < 9"):
            solve_last_layer_optimum(CROSS_ENTROPY, h, y, np.zeros((m_h + 1, m_y)))
        assert not calls

    @pytest.mark.parametrize("m_y", [2, 4, 10])
    @pytest.mark.parametrize("n,m_h", [(5, 7), (32, 36), (64, 70)])
    def test_soft_targets_match_kronecker_lift(self, rng, n, m_h, m_y):
        # reference: project each sample's outputs onto an orthonormal basis B
        # of the directions orthogonal to the ones vector and solve the lifted
        # system kron([h, 1], B) vec(Z) = vec(log Y B^T) nearest the anchor
        h = rng.standard_normal((n, m_h))
        y = _soft_targets(rng, n, m_y)
        anchor = rng.standard_normal((m_h + 1, m_y))
        aug = np.hstack([h, np.ones((n, 1))])
        basis = np.linalg.svd(np.ones((1, m_y)))[2][1:]
        lifted = np.kron(aug, basis)
        rhs = (np.log(y) @ basis.T).reshape(-1, 1)
        step, *_ = np.linalg.lstsq(lifted, rhs - lifted @ anchor.reshape(-1, 1), rcond=None)
        want = anchor + step.reshape(anchor.shape)
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y, anchor)
        assert np.linalg.norm(opt.head - want) <= 1e-10 * np.linalg.norm(want)
        assert opt.r_squared == pytest.approx(float(((want - anchor) ** 2).sum()),
                                              rel=1e-10)

    def test_residual_is_of_the_solved_constraints(self, rng):
        # logits match log Y up to one free constant per sample: the residual
        # projected onto the directions orthogonal to the ones vector vanishes
        n, m_h, m_y = 5, 9, 3
        h = rng.standard_normal((n, m_h))
        y = _soft_targets(rng, n, m_y)
        opt = solve_last_layer_optimum(CROSS_ENTROPY, h, y,
                                       rng.standard_normal((m_h + 1, m_y)))
        gap = np.hstack([h, np.ones((n, 1))]) @ opt.head - np.log(y)
        assert np.abs(gap).max() > 1e-3  # the per-sample constants are free
        assert np.linalg.norm(gap - gap.mean(axis=1, keepdims=True)) <= 1e-10


class TestOneDecomposition:
    """Every head optimum is one Cholesky factorization of the Gram of
    [h, 1], which proves its rank, and one SVD of [h, 1] where a solve needs
    the pseudo-inverse, with no lifted system."""

    @staticmethod
    def _problem(rng, targets):
        n, m_h = 6, 8
        m_y = 1 if targets == "single" else 3
        if targets == "squared":
            y = rng.standard_normal((n, m_y))
        elif targets == "one_hot":
            y = np.eye(m_y)[rng.integers(0, m_y, n)]
        else:
            y = _soft_targets(rng, n, m_y)
        kind = SQUARED if targets == "squared" else CROSS_ENTROPY
        return kind, rng.standard_normal((n, m_h)), y, rng.standard_normal((m_h + 1, m_y))

    @pytest.mark.parametrize("targets", ["squared", "soft", "one_hot", "single"])
    def test_one_svd_per_solve(self, rng, monkeypatch, targets):
        # one-hot and single-output targets need only the rank, which the
        # factorization proves; the solves take one SVD besides
        counts = {"svd": 0, "cholesky": 0, "eigvalsh": 0}
        for name in counts:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        solve_last_layer_optimum(*self._problem(rng, targets))
        solves = targets in ("squared", "soft")
        assert counts == {"svd": 1 if solves else 0, "cholesky": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("targets", ["squared", "soft", "one_hot", "single"])
    def test_no_kronecker_product(self, rng, monkeypatch, targets):
        def refuse(*args, **kwargs):
            raise AssertionError("bounds called np.kron")

        kind, h, y, anchor = self._problem(rng, targets)
        ds, spec, params = _interpolating_setup(seed=3)
        jac = jacobian(params, ds.x)
        snap, f = compute_ntk(jac @ jac.T), outputs(params, ds.x)
        lazy_y = ds.y if kind is SQUARED else _soft_targets(rng, *ds.y.shape)
        monkeypatch.setattr(np, "kron", refuse)
        solve_last_layer_optimum(kind, h, y, anchor)
        _distance(snap, f, lazy_y, kind)


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
        k = t - tau + 1
        want = 1.5 / (2 * eta * k)
        assert sgd_bound(1.5, 0.0, eta * k, eta * eta * k) == pytest.approx(want)

    def test_sgd_inv_sqrt_schedule_decays(self):
        r2, g2 = 4.0, 2.0
        vals = []
        for t in (10, 1000, 100_000):
            eta = 0.01 / np.sqrt(np.arange(1, t + 2))
            vals.append(sgd_bound(r2, g2, eta.sum(), (eta * eta).sum()))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05 * vals[0]

    def test_sgd_partial_sums_match_accumulation_oracle(self):
        # the running sums a run keeps are sequential, as np.cumsum is
        tau, t = 5, 1005
        eta = 0.01 / np.sqrt(np.arange(1, t - tau + 2))
        s = sq = 0.0
        for k in range(tau, t + 1):
            e = 0.01 / np.sqrt(k - tau + 1)
            s += e
            sq += e * e
        assert s == np.cumsum(eta)[-1] and sq == np.cumsum(eta * eta)[-1]
        assert sgd_bound(3.0, 2.0, s, sq) == (3.0 + 2.0 * sq) / (2.0 * s)

    def test_sgd_validation(self):
        with pytest.raises(ValueError, match="positive"):
            sgd_bound(1.0, 1.0, 0.0, 0.0)

    def test_lazy_zero_gap(self):
        assert lazy_bound(10.0, 3.0, 0.5, 0.5, 0.5, 9, 4) == 0.0

    def test_lazy_inverse_sqrt_law(self):
        a = lazy_bound(10.0, 3.0, 1.0, 0.0, 0.5, 4, 0)    # t - tau + 1 = 5
        b = lazy_bound(10.0, 3.0, 1.0, 0.0, 0.5, 19, 0)   # t - tau + 1 = 20
        assert a == pytest.approx(2.0 * b)

    def test_lazy_eta_bar_validation(self):
        with pytest.raises(ValueError, match="eta_bar"):
            lazy_bound(1.0, 1.0, 1.0, 0.0, 1.2, 5, 0)

    def test_lazy_requires_t_at_least_tau(self):
        with pytest.raises(ValueError, match="t >= tau, got t=4, tau=5"):
            lazy_bound(1.0, 1.0, 1.0, 0.0, 0.5, 4, 5)

    def test_re_evaluation_bit_identical(self):
        # the formulas are pure arithmetic, no iteration or state
        assert gd_bound(1.7, 5.3, 19, 3) == gd_bound(1.7, 5.3, 19, 3)
        assert sgd_bound(1.7, 2.2, 0.3, 0.02) == sgd_bound(1.7, 2.2, 0.3, 0.02)
        assert lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, 9, 2) == \
            lazy_bound(4.0, 1.5, 2.0, 0.1, 0.3, 9, 2)


def _interpolating_setup(seed=0):
    ds = synth_gen(4, 3, 2, 0.05, "regression", seed=seed)
    spec = NetworkSpec((3, 6, 6), 2, sharpness=10.0)
    params = init_params(spec, seed=seed)
    h = forward_hidden(params, ds.x).hidden
    aug = np.hstack([h, np.ones((4, 1))])
    z = min_norm_solve(aug, ds.y, np.zeros((7, 2)))
    params.head_block()[...] = z
    return ds, spec, params


class TestEstimateRBar:
    def test_feasible_anchor_gives_zero(self):
        ds, spec, params = _interpolating_setup()
        jac = jacobian(params, ds.x)
        f = outputs(params, ds.x)
        assert _distance(compute_ntk(jac @ jac.T), f, ds.y, SQUARED) <= 1e-8

    def test_singleton_matches_direct_solve(self, rng):
        ds, spec, params = _interpolating_setup(seed=1)
        params.weights[-1][:] = params.weights[-1] + rng.standard_normal(params.weights[-1].shape)
        jac = jacobian(params, ds.x)
        got = _distance(compute_ntk(jac @ jac.T), outputs(params, ds.x), ds.y, SQUARED)
        anchor = masked_flat(params).reshape(-1, 1)
        omega = min_norm_solve(jac, ds.y.reshape(-1, 1), anchor)
        assert got == pytest.approx(float(np.linalg.norm(anchor - omega)), rel=1e-12)

    def test_three_step_trajectory_matches_recomputation_oracle(self, rng):
        ds, spec, params = _interpolating_setup(seed=2)
        traj = []
        for _ in range(3):
            p = params.copy()
            p.weights[-1][:] = p.weights[-1] + 0.3 * rng.standard_normal(p.weights[-1].shape)
            traj.append((p, jacobian(p, ds.x)))
        got = max(_distance(compute_ntk(jac @ jac.T), outputs(p, ds.x), ds.y, SQUARED)
                  for p, jac in traj)
        worst = 0.0
        for p, jac in traj:
            anchor = masked_flat(p).reshape(-1, 1)
            pinv = np.linalg.pinv(jac)
            omega = anchor + pinv @ (ds.y.reshape(-1, 1) - jac @ anchor)
            worst = max(worst, float(np.linalg.norm(anchor - omega)))
        assert got == pytest.approx(worst, rel=1e-9)

    def test_cross_entropy_takes_linearized_descent(self):
        # soft targets, J full row rank: the linearized minimizers are the w
        # with J w = vec(log Y) + a per-sample constant, and descent from the
        # anchor converges to the one nearest it
        ds, spec, params = _interpolating_setup(seed=3)
        jac = jacobian(params, ds.x)
        y = np.abs(ds.y) + 0.5
        y /= y.sum(axis=1, keepdims=True)
        got = _distance(compute_ntk(jac @ jac.T), outputs(params, ds.x), y,
                        CROSS_ENTROPY)
        n, m_y = y.shape
        anchor = masked_flat(params).reshape(-1, 1)
        pinv = np.linalg.pinv(jac)
        gap = np.log(y).reshape(-1, 1) - jac @ anchor
        shifts = np.kron(np.eye(n), np.ones((m_y, 1)))
        c, *_ = np.linalg.lstsq(pinv @ shifts, -pinv @ gap, rcond=None)
        want = float(np.linalg.norm(pinv @ (gap + shifts @ c)))
        assert got == pytest.approx(want, rel=1e-7)


    def test_cross_entropy_zero_target_is_infinite(self, monkeypatch):
        ds, spec, params = _interpolating_setup(seed=3)
        jac = jacobian(params, ds.x)
        y = np.eye(2)[[0, 1, 1, 0]]
        calls = _count_loss_grad(monkeypatch)
        f = outputs(params, ds.x)
        assert _distance(compute_ntk(jac @ jac.T), f, y, CROSS_ENTROPY) == np.inf
        assert not calls

    def test_cross_entropy_single_output_is_zero(self):
        # one output: softmax is 1 = y at every w, so w itself is a minimizer
        got = _distance(compute_ntk(np.eye(4)), np.arange(4.0).reshape(4, 1),
                        np.ones((4, 1)), CROSS_ENTROPY)
        assert got == 0.0

    @pytest.mark.parametrize("kind", [SQUARED, CROSS_ENTROPY], ids=lambda k: k.name)
    def test_rank_deficient_jacobian_raises(self, monkeypatch, kind):
        # a repeated sample repeats its Jacobian rows; with a zero target the
        # infimum may still be attained, so the rank test comes first
        ds, spec, params = _interpolating_setup(seed=3)
        x = ds.x.copy()
        x[3] = x[0]
        jac = jacobian(params, x)
        y = np.eye(2)[[0, 1, 1, 0]]
        calls = _count_loss_grad(monkeypatch)
        with pytest.raises(RankDeficientError, match="rank 6 < 8"):
            _distance(compute_ntk(jac @ jac.T), outputs(params, x), y, kind)
        assert not calls


class TestCheckBounds:
    """The bound fields each phase-2 record carries when it is emitted, against
    the closed form recomputed from the run's constants and running sums."""

    def _run(self, seed=0, mode="last_layer_gd", monkeypatch=None):
        """A bounds-on run; with monkeypatch, also the phase-2 squared gradient
        norms the trainer checked, by step."""
        gsq = {}
        if monkeypatch is not None:
            real = trainer._finite

            def spy(value, what, t, phase):
                if what == "gradient norm" and phase == 2:
                    gsq[t] = value
                return real(value, what, t, phase)

            monkeypatch.setattr(trainer, "_finite", spy)
        ds = synth_gen(10, 4, 2, 0.03, "regression", seed=seed)
        spec = NetworkSpec((4, 8, 12), 2, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=10, seed=seed)
        cfg = TwoPhaseConfig(tau=10, total_steps=110, phase2_mode=mode, sgd_minibatch=4,
                             seed=seed)
        _, log = run_two_phase(init_params(spec, seed), ds, base, cfg, SQUARED,
                               bounds=True)
        opt = solve_last_layer_optimum(SQUARED, features_at_tau(ds.x, log), ds.y,
                                       log.params_at_tau.head_block())
        return opt, log, gsq

    def test_noiseless_gd_zero_violations(self):
        opt, log, _ = self._run()
        phase2 = log.phase2_records()
        assert len(phase2) == 100
        for rec in phase2:
            assert rec.bound == gd_bound(opt.r_squared, log.l_h, rec.t, log.tau)
            assert rec.suboptimality == rec.loss - opt.loss_star
            assert rec.suboptimality <= rec.bound + SLACK_REL * (1.0 + rec.bound)
        assert log.violations == 0
        assert log.constants == {"g_squared": log.max_sq_grad_phase2,
                                 "r_squared": opt.r_squared, "loss_star": opt.loss_star,
                                 "certificate": "exact"}
        assert phase2[0].bound == pytest.approx(opt.r_squared * log.l_h / 2.0)

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
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        opt = solve_last_layer_optimum(SQUARED, features_at_tau(ds.x, log), ds.y,
                                       log.params_at_tau.head_block())
        assert opt.r_squared <= 1e-18
        for rec in log.phase2_records():
            assert rec.loss - opt.loss_star <= 1e-9

    @staticmethod
    def _running_min_gaps(log, loss_star):
        running = np.minimum.accumulate(
            [log.loss_at_tau] + [rec.loss for rec in log.phase2_records()])
        return running[1:] - loss_star

    def test_sgd_report_is_the_closed_form_at_every_step(self, monkeypatch):
        # G^2 is the largest squared gradient so far, and the step-size sums
        # are np.cumsum of the schedule eta_k = 0.01 / sqrt(k - tau + 1)
        opt, log, gsq = self._run(seed=9, mode="last_layer_sgd", monkeypatch=monkeypatch)
        tau = log.tau
        phase2 = log.phase2_records()
        assert [rec.t for rec in phase2] == list(range(tau + 1, tau + 101))
        eta = 0.01 / np.sqrt(np.arange(1, 102))
        sums, sq_sums = np.cumsum(eta), np.cumsum(eta * eta)
        g2 = np.maximum.accumulate([gsq[rec.t] for rec in phase2])
        assert g2[-1] == log.max_sq_grad_phase2 == log.constants["g_squared"]
        for rec, gap, g2_t in zip(phase2, self._running_min_gaps(log, opt.loss_star), g2):
            assert rec.bound == sgd_bound(opt.r_squared, g2_t, sums[rec.t - tau],
                                          sq_sums[rec.t - tau])
            assert rec.suboptimality == gap
        # a ceiling on the expected suboptimality: one run's exceedances
        # are not violations
        assert log.violations is None
        assert log.constants["certificate"] == "expectation"

    def _lazy_run(self, monkeypatch):
        """A bounds-on lazy run and the per-step linearized distances its
        Rbar is the running max of (tau first)."""
        distances = []
        real = bounds._linearized_distance

        def spy(*args):
            distances.append(real(*args))
            return distances[-1]

        monkeypatch.setattr(bounds, "_linearized_distance", spy)
        ds = synth_gen(6, 4, 1, 0.03, "regression", seed=7)
        spec = NetworkSpec((4, 8, 8), 1, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=6, seed=7)
        cfg = TwoPhaseConfig(tau=4, total_steps=14, phase2_mode="lazy_full",
                             lazy_eta_bar=0.3, seed=7)
        _, log = run_two_phase(init_params(spec, 7), ds, base, cfg, SQUARED,
                               monitor_every=2, bounds=True)
        return log, distances

    def test_lazy_report_is_diagnostic(self, monkeypatch):
        log, distances = self._lazy_run(monkeypatch)
        assert log.violations is None
        assert log.constants["diagnostic"] is True
        assert log.constants["certificate"] == "estimated"
        assert log.constants["r_bar"] == max(distances)

    def test_lazy_r_bar_is_the_bordered_upper_bound(self, monkeypatch):
        # squared loss: each step's distance is sqrt(r^T (K - 4 m I)^-1 r),
        # r = vec(f - Y) bordering the factorization that certified K's rank
        # at level m = max(floor, rows eps trace K), floor the reference
        # tolerance after tau; so Rbar is their max, and at least the exact
        # distances sqrt(r^T K^+ r)
        bordered = []
        real = trainer.compute_ntk

        def keeping(kernel, reference=None, rhs=None, work=None):
            if rhs is not None:
                bordered.append((kernel.copy(), reference, rhs.copy()))
            return real(kernel, reference, rhs, work)

        monkeypatch.setattr(trainer, "compute_ntk", keeping)
        ds = synth_gen(10, 4, 2, 0.03, "regression", seed=11)
        spec = NetworkSpec((4, 8, 12), 2, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=10, seed=11)
        cfg = TwoPhaseConfig(tau=4, total_steps=14, phase2_mode="lazy_full",
                             lazy_eta_bar=0.3, seed=11)
        _, log = run_two_phase(init_params(spec, 11), ds, base, cfg, SQUARED,
                               monitor_every=3, bounds=True)
        assert len(bordered) == 11 + len(log.rank_events)
        rows, eps = ds.y.size, np.finfo(np.float64).eps
        tolerance = rows * eps * np.linalg.eigvalsh(bordered[0][0])[-1]
        shifted, exact = [], []
        for i, (k, reference, r) in enumerate(bordered):
            # after tau each verdict is made against the reference, whose
            # tolerance is the floor
            assert (reference is None) == (i == 0)
            floor = reference.tolerance if i else 0.0
            assert floor == (tolerance if i else 0.0)
            level = max(floor, rows * eps * np.trace(k))
            shifted.append(np.sqrt(r @ np.linalg.solve(k - 4.0 * level * np.eye(rows), r)))
            exact.append(np.sqrt(r @ np.linalg.pinv(k) @ r))
        # a rejected candidate's distance does not count
        assert not log.rank_events
        assert log.constants["r_bar"] == pytest.approx(max(shifted), rel=1e-9)
        assert log.constants["r_bar"] >= max(exact)
        assert log.constants["r_bar_kind"] == "upper_bound"

    def test_lazy_report_is_the_closed_form_at_every_step(self, monkeypatch):
        log, distances = self._lazy_run(monkeypatch)
        phase2 = log.phase2_records()
        assert [rec.t for rec in phase2] == list(range(5, 15))
        r_bars = np.maximum.accumulate(distances)[1:]
        assert len(r_bars) == len(phase2) and r_bars[-1] == log.constants["r_bar"]
        # no rank event halved the rate, so every step was taken at the
        # configured eta_bar
        assert not log.rank_events
        lipschitz, eta_bar = log.constants["l_estimate"], 0.3
        for rec, gap, r_bar in zip(phase2, self._running_min_gaps(log, 0.0), r_bars):
            assert rec.bound == lazy_bound(lipschitz, r_bar, log.loss_at_tau, 0.0,
                                           eta_bar, rec.t, log.tau)
            assert rec.suboptimality == gap


class TestCertificate:
    """A Certificate built directly from the constants at tau of a small
    squared-loss head problem, fed records by hand."""

    TAU = 3

    def _make(self, rng, mode, kind=SQUARED, y=None):
        """(certificate, the head optimum it rests on or None, L_H)."""
        h = rng.standard_normal((4, 6))
        aug = append_ones(h)
        y = rng.standard_normal((4, 2)) if y is None else y
        head = rng.standard_normal((7, 2))
        cfg = TwoPhaseConfig(tau=self.TAU, total_steps=13, phase2_mode=mode,
                             sgd_rate_scale=0.05, lazy_eta_bar=0.3)
        l_h = compute_L_H(kind, h)
        loss_tau = loss_value(kind, aug @ head, y)
        cert = Certificate(cfg, kind, y, aug, head, l_h, loss_tau, 50.0)
        opt = None if mode == "lazy_full" else solve_last_layer_optimum(kind, h, y, head)
        return cert, opt, l_h

    @staticmethod
    def _record(t, loss):
        return StepRecord(t=t, phase=2, loss=loss, grad_norm=0.0)

    def test_exact_ceiling_is_gd_bound(self, rng):
        cert, opt, l_h = self._make(rng, "last_layer_gd")
        for t in (4, 5, 9, 13):
            ceiling = gd_bound(opt.r_squared, l_h, t, self.TAU)
            rec = self._record(t, opt.loss_star + 0.5 * ceiling)
            cert.check(rec, opt.loss_star, 0.25)  # head GD's gap is at rec.loss
            assert rec.bound == ceiling
            assert rec.suboptimality == rec.loss - opt.loss_star
        assert cert.violations == 0

    def test_record_above_the_exact_ceiling_counts_one_violation(self, rng):
        cert, opt, l_h = self._make(rng, "last_layer_gd")
        ceiling = gd_bound(opt.r_squared, l_h, 5, self.TAU)
        above = self._record(5, opt.loss_star + 2.0 * ceiling + 1.0)
        cert.check(above, above.loss, 0.25)
        assert cert.violations == 1
        below = self._record(6, opt.loss_star)
        cert.check(below, below.loss, 0.25)
        assert cert.violations == 1

    def test_expectation_counts_none_and_sums_the_schedule(self, rng):
        # the ceiling at step t takes the sums of eta_k = 0.05 / sqrt(k - tau + 1)
        # over k = tau..t and the G^2 it is handed, at the running minimum
        cert, opt, _ = self._make(rng, "last_layer_sgd")
        eta = 0.05 / np.sqrt(np.arange(1, 12))
        sums, sq_sums = np.cumsum(eta), np.cumsum(eta * eta)
        for t, g_squared in zip(range(4, 14), np.linspace(0.5, 2.0, 10)):
            rec = self._record(t, opt.loss_star + 1e3)
            cert.check(rec, opt.loss_star + 1e3, g_squared)
            assert rec.bound == sgd_bound(opt.r_squared, g_squared, sums[t - self.TAU],
                                          sq_sums[t - self.TAU])
            assert rec.suboptimality > rec.bound
        assert cert.violations is None
        assert cert.constants["g_squared"] == 2.0

    def test_one_hot_cross_entropy_is_vacuous(self, rng):
        # no finite head attains the infimum: no ceiling, nothing counted
        one_hot = np.eye(2)[[0, 1, 1, 0]]
        cert, opt, _ = self._make(rng, "last_layer_gd", kind=CROSS_ENTROPY, y=one_hot)
        assert opt.r_squared == np.inf and not cert.attained
        rec = self._record(4, 5.0)
        cert.check(rec, rec.loss, 0.25)
        assert rec.bound is None and rec.suboptimality is None
        assert cert.violations is None
        assert cert.constants == {"g_squared": 0.25, "r_squared": None, "loss_star": 0.0,
                                  "certificate": "vacuous"}

    @pytest.mark.parametrize("mode, status, keys", [
        ("last_layer_gd", "exact", {"g_squared", "r_squared"}),
        ("last_layer_sgd", "expectation", {"g_squared", "r_squared"}),
        ("lazy_full", "estimated", {"l_estimate", "diagnostic", "r_bar", "r_bar_kind"}),
    ])
    def test_constants_by_status(self, rng, mode, status, keys):
        cert, _, _ = self._make(rng, mode)
        rec = self._record(4, 1.0)
        cert.check(rec, rec.loss, 0.25)
        constants = cert.constants
        assert set(constants) == keys | {"loss_star", "certificate"}
        assert constants["certificate"] == status
        assert constants["loss_star"] == pytest.approx(0.0, abs=1e-12)
        if mode == "lazy_full":
            assert constants["l_estimate"] == 50.0 and constants["diagnostic"] is True
            assert constants["r_bar_kind"] == "upper_bound"
        else:
            assert constants["g_squared"] == 0.25

    def test_lazy_r_bar_is_the_running_max_of_observed_distances(self, rng):
        cert, _, _ = self._make(rng, "lazy_full")
        y, distances = cert.y, []
        for t in (3, 4, 5):
            jac = rng.standard_normal((8, 20))
            snap, f = compute_ntk(jac @ jac.T), rng.standard_normal((4, 2))
            cert.observe(snap, f, t, 0.3)
            distances.append(_distance(snap, f, y, SQUARED))
        assert cert.constants["r_bar"] == max(distances)
        low = compute_ntk(np.ones((8, 8)))  # rank 1 < 8 rows
        with pytest.raises(RankDeficientError, match=r"^step 6 \(phase 2\)"):
            cert.observe(low, np.zeros((4, 2)), 6, 0.3)
