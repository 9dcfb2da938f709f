"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Desk-scale protocols replace full-scale image benchmarks; every
tolerance is pinned here, not deferred.
"""

import time

import numpy as np
import pytest

from conftest import (
    compute_jacobian,
    fd_jacobian,
    fd_loss_grad,
    features_at_tau,
    features_verdict,
    jacobian,
    masked_flat,
    max_rel_err,
    outputs,
    random_small_config,
)

import twophase.bounds as bounds
from twophase.bounds import SLACK_REL, gd_bound, sgd_bound, solve_last_layer_optimum
from twophase.data import synth_gen
from twophase.expressivity import (
    check_expressivity,
    construct_witness,
    dominance_margins,
    expressivity_trials,
)
from twophase.linalg import certified_rank, min_norm_solve
from twophase.losses import CROSS_ENTROPY, SQUARED, loss_grad
from twophase.network import (
    NetworkSpec,
    backprop,
    forward_hidden,
    forward_output,
    init_params,
    softplus,
)
from twophase.ntk import compute_ntk
from twophase.trainer import BaseAlgoConfig, TwoPhaseConfig, run_two_phase


def report(number, description, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_head_gd_rate_exactness():
    """Head-GD suboptimality stays under R^2 L_H / (2 (t - tau)) at every
    step, with a non-increasing loss, across 24 random configurations; each
    record streams the closed form from the optimum at tau."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = 0
    monotone = True
    configs = 0
    for n in (8, 16, 32):
        for tau in (0, 50):
            for rep in range(4):
                m_h = int(np.ceil(1.1 * n))
                m_x = n // 2
                m_y = int(rng.integers(1, 3))
                sharp = float(rng.choice([1.0, 10.0]))
                ds = synth_gen(n, m_x, m_y, 0.05, "regression",
                               seed=int(rng.integers(1_000_000)))
                spec = NetworkSpec((m_x, m_x, m_h), m_y, sharpness=sharp)
                base = BaseAlgoConfig(variant="gd", minibatch=n, seed=rep)
                cfg = TwoPhaseConfig(tau=tau, total_steps=tau + 300,
                                     phase2_mode="last_layer_gd", seed=rep)
                _, log = run_two_phase(init_params(spec, rep), ds, base, cfg, SQUARED,
                                       bounds=True)
                opt = solve_last_layer_optimum(SQUARED, features_at_tau(ds.x, log),
                                               ds.y, log.params_at_tau.head_block())
                for r in log.phase2_records():
                    assert r.bound == gd_bound(opt.r_squared, log.l_h, r.t, tau)
                    assert r.suboptimality == r.loss - opt.loss_star
                    violations += r.suboptimality > r.bound + SLACK_REL * (1.0 + r.bound)
                assert log.violations == sum(
                    r.suboptimality > r.bound + SLACK_REL * (1.0 + r.bound)
                    for r in log.phase2_records())
                losses = [log.loss_at_tau] + [r.loss for r in log.phase2_records()]
                monotone &= all(b <= a + 1e-12 * (1 + abs(a))
                                for a, b in zip(losses, losses[1:]))
                configs += 1
    elapsed = time.perf_counter() - started
    ok = configs >= 20 and violations == 0 and monotone and elapsed < 120.0
    report(1, f"head-GD bound, {configs} configs, {violations} violations, "
              f"monotone={monotone}, {elapsed:.1f}s", ok)


def test_criterion_2_sgd_monte_carlo():
    """Mean running-min suboptimality over 10 seeds stays under the SGD bound
    at every checkpoint, and the bound decays below 0.1x its initial value."""
    started = time.perf_counter()
    n, m_x, m_y, m_h = 16, 8, 2, 64
    tau, horizon = 200, 10_000
    ds = synth_gen(n, m_x, m_y, 0.05, "regression", seed=42)
    spec = NetworkSpec((m_x, 16, m_h), m_y, sharpness=10.0)
    p0 = init_params(spec, seed=0)
    base = BaseAlgoConfig(variant="gd", minibatch=n, seed=0)
    running, r2s, g2 = [], [], 0.0
    for seed in range(10):
        cfg = TwoPhaseConfig(tau=tau, total_steps=tau + horizon,
                             phase2_mode="last_layer_sgd", sgd_rate_scale=0.01,
                             sgd_minibatch=8, seed=seed)
        _, log = run_two_phase(p0, ds, base, cfg, SQUARED)
        opt = solve_last_layer_optimum(SQUARED, features_at_tau(ds.x, log), ds.y,
                                       log.params_at_tau.head_block())
        assert opt.loss_star <= 1e-12
        r2s.append(opt.r_squared)
        g2 = max(g2, log.max_sq_grad_phase2)
        rm = np.minimum.accumulate([log.loss_at_tau]
                                   + [r.loss for r in log.phase2_records()])
        running.append(rm[1:])
    mean_rm = np.mean(running, axis=0)
    r2 = float(np.mean(r2s))  # Monte-Carlo stand-in for the expectation form
    # sums over k = tau..t of the schedule eta_k = 0.01 / sqrt(k - tau + 1)
    eta = 0.01 / np.sqrt(np.arange(1, horizon + 2))
    sums, sq_sums = np.cumsum(eta), np.cumsum(eta * eta)
    checks_ok = True
    for t in range(tau + 250, tau + horizon + 1, 250):
        b = sgd_bound(r2, g2, sums[t - tau], sq_sums[t - tau])
        checks_ok &= mean_rm[t - tau - 1] <= b + 1e-9 * (1 + b)
    b_first = sgd_bound(r2, g2, sums[1], sq_sums[1])
    b_last = sgd_bound(r2, g2, sums[horizon], sq_sums[horizon])
    decay_ok = b_last < 0.1 * b_first
    elapsed = time.perf_counter() - started
    ok = checks_ok and decay_ok and elapsed < 300.0
    report(2, f"SGD Monte-Carlo bound over 10 seeds, decay {b_last / b_first:.4f}, "
              f"{elapsed:.1f}s", ok)


def test_criterion_3_probabilistic_expressivity():
    """100/100 random Gaussian draws reach full feature row rank on
    qualifying architectures (depths 2 and 3, last hidden width >= n)."""
    n, m_x = 8, 4
    total = passed = 0
    for seed in range(5):
        ds = synth_gen(n, m_x, 1, 0.05, "regression", seed=seed)
        for widths in ((m_x, m_x, 9), (m_x, m_x, m_x, 9)):
            spec = NetworkSpec(widths, 1, sharpness=1.0)
            assert min(widths[1:-1]) >= min(m_x, n) and widths[-1] >= n
            trials = expressivity_trials(spec, ds.x, trials=10, init_scale=1.0,
                                         seed=1000 + seed)
            frac = sum(rep.passed for rep in trials) / 10  # as `verify` reports it
            passed += int(round(frac * 10))
            total += 10
    report(3, f"feature rank full in {passed}/{total} random draws",
           total == 100 and passed == 100)


def test_criterion_4_witness_construction():
    """Witness weights certified (strict dominance, rank n) on 50 random
    distinguishable datasets covering narrow and wide input regimes."""
    rng = np.random.default_rng(404)
    successes = 0
    for i in range(50):
        narrow = i % 2 == 0
        if narrow:
            m_x = int(rng.integers(2, 5))
            n = int(rng.integers(m_x + 1, 10))
        else:
            n = int(rng.integers(2, 6))
            m_x = int(rng.integers(n, n + 4))
        depth = int(rng.choice([2, 3]))
        ds = synth_gen(n, m_x, 1, 0.05, "regression", seed=int(rng.integers(1_000_000)))
        if narrow:
            widths = (m_x,) + (m_x,) * (depth - 1) + (n,)
        else:
            widths = (m_x,) + (max(n, m_x),) * (depth - 1) + (n,)
        spec = NetworkSpec(widths, 1, sharpness=100.0)
        params = construct_witness(spec, ds.x)
        h = forward_hidden(params, ds.x).hidden
        dominant = bool(np.all(dominance_margins(h, n) > 0.0))
        ranked = check_expressivity(params, ds.x).passed
        successes += int(dominant and ranked)
    report(4, f"witness certified on {successes}/50 datasets", successes == 50)


def test_criterion_5_gradient_correctness():
    """Backpropagation and Jacobian rows match central finite differences
    (step 1e-5) within 1e-5 relative error on 50 random configurations."""
    rng = np.random.default_rng(505)
    worst_grad = worst_jac = 0.0
    for _ in range(50):
        spec, params, x = random_small_config(rng, allow_bn=True)
        y = rng.standard_normal((x.shape[0], spec.output_dim))
        trace = forward_hidden(params, x)
        g = backprop(params, trace, loss_grad(SQUARED, forward_output(params, trace), y))
        worst_grad = max(worst_grad, max_rel_err(g, fd_loss_grad(params, x, y, SQUARED)))
        jac = compute_jacobian(params, trace)
        worst_jac = max(worst_jac, max_rel_err(jac, fd_jacobian(params, x)))
    ok = worst_grad < 1e-5 and worst_jac < 1e-5
    report(5, f"max rel err: gradient {worst_grad:.2e}, jacobian {worst_jac:.2e}", ok)


def test_criterion_6_ntk_structure():
    """Kernel rank equals n * m_y right after perturbation and never drops
    along head-only second phases, over 10 runs."""
    full_rank_ok = preserved_ok = True
    for seed in range(10):
        n, m_x, m_y = 8, 4, 2
        ds = synth_gen(n, m_x, m_y, 0.03, "regression", seed=600 + seed)
        spec = NetworkSpec((m_x, 8, 10), m_y, sharpness=10.0)
        base = BaseAlgoConfig(variant="gd", minibatch=n, seed=seed)
        cfg = TwoPhaseConfig(tau=20, total_steps=170, phase2_mode="last_layer_gd",
                             seed=seed)
        _, log = run_two_phase(init_params(spec, seed), ds, base, cfg, SQUARED)
        p_tau = log.params_at_tau
        jac = jacobian(p_tau, ds.x, log.frozen_stats)
        ref = compute_ntk(jac @ jac.T)
        full_rank_ok &= ref.rank == n * m_y
        # head GD is deterministic: a run cut at step t ends at step t's params
        for t in range(20 + 25, 171, 25):
            p_t, _ = run_two_phase(init_params(spec, seed), ds, base,
                                   TwoPhaseConfig(tau=20, total_steps=t, seed=seed),
                                   SQUARED)
            jac = jacobian(p_t, ds.x, log.frozen_stats)
            preserved_ok &= compute_ntk(jac @ jac.T, reference=ref).rank >= ref.rank
    ok = full_rank_ok and preserved_ok
    report(6, f"kernel rank full at tau: {full_rank_ok}; preserved along "
              f"head-only phase: {preserved_ok}", ok)


def test_criterion_7_softplus_envelope():
    """0 <= softplus - relu <= ln(2)/sharpness on a 1e5-point grid, with the
    sharp-approximation gap at most 6.94e-3 at sharpness 100."""
    z = np.linspace(-50.0, 50.0, 100_001)
    relu = np.maximum(z, 0.0)
    ok = True
    gap100 = None
    for sharp in (1.0, 10.0, 100.0):
        gap = softplus(z, sharp) - relu
        ok &= bool(np.all(gap >= 0.0) and np.all(gap <= np.log(2.0) / sharp + 1e-15))
        if sharp == 100.0:
            gap100 = float(gap.max())
            ok &= gap100 <= 6.94e-3
    report(7, f"envelope verified; max gap at sharpness 100 = {gap100:.4e}", ok)


def test_criterion_8_two_phase_versus_base():
    """Desk-scale protocol: two-phase training keeps the final loss within
    5% of the base algorithm across 5 seeds, with a monotone second phase."""
    n, m_x, m_y, horizon = 128, 16, 4, 80
    tau = int(np.floor(0.6 * horizon))
    m_h = int(np.ceil(1.1 * n))
    ds = synth_gen(n, m_x, m_y, 0.01, "one_hot", seed=11)
    spec = NetworkSpec((m_x, m_x, m_h), m_y, sharpness=100.0)
    finals_base, finals_two, monotone = [], [], True
    for seed in range(5):
        p0 = init_params(spec, seed=seed)
        base = BaseAlgoConfig(variant="sgd_momentum", learning_rate=0.01,
                              momentum=0.9, minibatch=64, weight_decay=1e-5,
                              seed=seed)
        _, log_b = run_two_phase(p0, ds, base,
                                 TwoPhaseConfig(tau=horizon, total_steps=horizon,
                                                noise_scale=1e-3, seed=seed),
                                 CROSS_ENTROPY)
        _, log_a = run_two_phase(p0, ds, base,
                                 TwoPhaseConfig(tau=tau, total_steps=horizon,
                                                noise_scale=1e-3,
                                                phase2_mode="last_layer_gd", seed=seed),
                                 CROSS_ENTROPY)
        finals_base.append(log_b.final_loss)
        finals_two.append(log_a.final_loss)
        losses = [log_a.loss_at_tau] + [r.loss for r in log_a.phase2_records()]
        monotone &= all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(losses, losses[1:]))
    ratio = float(np.mean(finals_two) / np.mean(finals_base))
    ok = ratio <= 1.05 and monotone
    report(8, f"two-phase/base final-loss ratio {ratio:.4f} over 5 seeds, "
              f"phase-2 monotone={monotone}", ok)


def test_criterion_9_oracle_equivalence():
    """Min-norm solves and the two distance constants agree with brute-force
    or grid oracles to 1e-6 relative on small instances (d <= 40, n <= 6)."""
    rng = np.random.default_rng(909)

    # min-norm solve against a refined grid over the one-dim null space
    m = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 1))
    anchor = rng.standard_normal((3, 1))
    z = min_norm_solve(certified_rank(m), b, anchor)
    _, _, vt = np.linalg.svd(m)
    null = vt[2].reshape(3, 1)
    particular = np.linalg.pinv(m) @ b
    center, width, best = 0.0, 12.0, np.inf
    for _ in range(4):
        s = np.linspace(center - width, center + width, 20_001)
        d = np.linalg.norm(particular + null * s[None, :] - anchor, axis=0)
        k = int(np.argmin(d))
        best, center = float(d[k]), float(s[k])
        width /= 100.0
    solve_dist = float(np.linalg.norm(z - anchor))
    ok_solve = abs(solve_dist - best) <= 1e-6 * (1.0 + best)

    # head distance against a refined two-dim grid (n=6, m_H=7 so d = 8)
    n, m_h = 6, 7
    h = rng.standard_normal((n, m_h))
    y = rng.standard_normal((n, 1))
    anchor2 = rng.standard_normal((m_h + 1, 1))
    opt = solve_last_layer_optimum(SQUARED, features_verdict(h), y, anchor2)
    aug = np.hstack([h, np.ones((n, 1))])
    _, _, vt2 = np.linalg.svd(aug)
    null2 = vt2[n:].T
    part2 = np.linalg.pinv(aug) @ y
    center2, width2, best2 = np.zeros(2), 10.0, np.inf
    for _ in range(4):
        s1 = np.linspace(center2[0] - width2, center2[0] + width2, 121)
        s2 = np.linspace(center2[1] - width2, center2[1] + width2, 121)
        g1, g2 = np.meshgrid(s1, s2, indexing="ij")
        cand = part2 + null2 @ np.vstack([g1.ravel(), g2.ravel()])
        dist = ((cand - anchor2) ** 2).sum(axis=0)
        k = int(np.argmin(dist))
        best2 = float(dist[k])
        center2 = np.array([g1.ravel()[k], g2.ravel()[k]])
        width2 /= 30.0
    ok_r2 = abs(opt.r_squared - best2) <= 1e-6 * (1.0 + best2)

    # linearized distance against an independent pseudoinverse recomputation
    ds = synth_gen(4, 3, 1, 0.05, "regression", seed=99)
    spec = NetworkSpec((3, 3, 4), 1, sharpness=10.0)  # d = 12 + 16 + 5 = 33
    assert spec.param_count() <= 40
    traj = []
    for k in range(3):
        p = init_params(spec, seed=k)
        traj.append((p, jacobian(p, ds.x)))
    basis = bounds._centering_basis(ds.y.shape[1])
    got = max(bounds._linearized_distance(compute_ntk(jac @ jac.T), outputs(p, ds.x),
                                          ds.y, SQUARED, basis)
              for p, jac in traj)
    worst = 0.0
    for p, jac in traj:
        a = masked_flat(p).reshape(-1, 1)
        omega = a + np.linalg.pinv(jac) @ (ds.y.reshape(-1, 1) - jac @ a)
        worst = max(worst, float(np.linalg.norm(a - omega)))
    ok_rbar = abs(got - worst) <= 1e-6 * (1.0 + worst)

    ok = ok_solve and ok_r2 and ok_rbar
    report(9, f"oracle gaps: solve {abs(solve_dist - best):.2e}, "
              f"head distance {abs(opt.r_squared - best2):.2e}, "
              f"linearized {abs(got - worst):.2e}", ok)
