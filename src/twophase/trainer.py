"""Two-phase training: base first-order phase, Gaussian kick, rank-safe phase.

Phase 1 runs the unmodified base algorithm (full-batch gradient descent or
minibatch SGD with momentum and weight decay) on all parameters.  At step
tau every hidden-layer parameter receives independent Gaussian noise; the
output head is left untouched.  Phase 2 then continues in one of three
modes:

* last_layer_gd   -- exact gradient descent on the head only, step 1/L_H,
                     where L_H is the smoothness constant of the frozen-
                     feature head problem.  Loss is non-increasing.
* last_layer_sgd  -- unbiased minibatch gradients on the head with the
                     square-summable schedule a / sqrt(t - tau + 1).
* lazy_full       -- uniform rate 2*eta_bar/L on all parameters, with a
                     kernel-rank check each step; a step that would drop
                     the rank below the post-perturbation reference is
                     rejected and the rate halved.

Batch-normalization statistics are frozen at tau for the whole second
phase, so the head problem is convex in every mode and the feature matrix
is genuinely fixed under head-only updates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import append_ones, numerical_rank
from .losses import LossKind, loss_grad, loss_value
from .network import (
    NetworkSpec,
    Params,
    backprop,
    batch_statistics,
    forward_hidden,
)
from .ntk import assert_rank_preserved, compute_jacobian, compute_ntk

__all__ = [
    "BaseAlgoConfig",
    "TwoPhaseConfig",
    "StepRecord",
    "TrainLog",
    "FeatureRankError",
    "RankPreservationError",
    "nu_mask",
    "perturb",
    "compute_L_H",
    "estimate_lipschitz",
    "run_two_phase",
]

PHASE2_MODES = ("last_layer_gd", "last_layer_sgd", "lazy_full")


class FeatureRankError(RuntimeError):
    """Features lost row rank right after perturbation.

    This has probability zero over the Gaussian draw when the expressivity
    condition holds, so seeing it means the architecture is too small
    (m_H + 1 < n), the rank tolerance is off, or the noise collapsed into a
    degenerate regime; try a wider last hidden layer or another seed.
    """


class RankPreservationError(RuntimeError):
    """Lazy-phase step rejected repeatedly; rate halving hit its retry cap."""


@dataclass
class BaseAlgoConfig:
    """First-phase algorithm: plain GD or minibatch SGD with momentum."""

    variant: str = "sgd_momentum"
    learning_rate: float = 0.01
    momentum: float = 0.9
    minibatch: int = 64
    weight_decay: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("gd", "sgd_momentum"):
            raise ValueError(f"unknown base variant {self.variant!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass
class TwoPhaseConfig:
    """Split point, noise scales, and the second-phase mode and schedule."""

    tau: int
    total_steps: int
    noise_scale: float | tuple = 1e-3
    phase2_mode: str = "last_layer_gd"
    sgd_rate_scale: float = 0.01
    sgd_minibatch: int = 64
    sgd_sampling: str = "with_replacement"
    lazy_eta_bar: float = 0.5
    lazy_lipschitz: float | None = None
    lazy_max_retries: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.tau <= self.total_steps:
            raise ValueError(f"need 0 <= tau <= total_steps, got {self.tau}, {self.total_steps}")
        if self.phase2_mode not in PHASE2_MODES:
            raise ValueError(f"unknown phase2_mode {self.phase2_mode!r}")
        scales = np.atleast_1d(np.asarray(self.noise_scale, dtype=np.float64))
        if np.any(scales <= 0):
            raise ValueError("noise scales must be positive (non-degenerate Gaussian)")
        if self.sgd_rate_scale <= 0:
            raise ValueError("sgd_rate_scale must be positive")
        if self.sgd_sampling not in ("with_replacement", "epoch_shuffle"):
            raise ValueError(f"unknown sgd_sampling {self.sgd_sampling!r}")
        if self.phase2_mode == "lazy_full" and not 0.0 < self.lazy_eta_bar < 1.0:
            raise ValueError("lazy_eta_bar must lie in (0, 1)")

    @classmethod
    def from_fraction(cls, tau_fraction: float, total_steps: int, **kwargs) -> "TwoPhaseConfig":
        if not 0.0 <= tau_fraction <= 1.0:
            raise ValueError("tau_fraction must lie in [0, 1]")
        return cls(tau=int(np.floor(tau_fraction * total_steps)),
                   total_steps=total_steps, **kwargs)


@dataclass
class StepRecord:
    t: int
    phase: int
    loss: float
    grad_norm: float
    feature_rank: int | None = None
    ntk_rank: int | None = None
    bound: float | None = None
    suboptimality: float | None = None
    rank_event: str | None = None
    wall_time: float = 0.0


@dataclass
class TrainLog:
    """One record per update, plus the constants phase 2 was run with."""

    records: list = field(default_factory=list)
    tau: int = 0
    total_steps: int = 0
    phase2_mode: str = ""
    loss_initial: float = 0.0
    loss_at_tau: float | None = None
    l_h: float | None = None
    features_at_tau: np.ndarray | None = None
    head_at_tau: np.ndarray | None = None
    params_at_tau_flat: np.ndarray | None = None
    frozen_stats: list | None = None
    eta_schedule: dict = field(default_factory=dict)
    max_sq_grad_phase2: float = 0.0
    t_star: int | None = None
    loss_at_t_star: float | None = None
    final_loss: float = 0.0
    rank_events: list = field(default_factory=list)
    trajectory: list = field(default_factory=list)

    def phase2_records(self) -> list:
        return [r for r in self.records if r.phase == 2]

    def best_recorded_loss(self) -> float:
        return min(r.loss for r in self.records) if self.records else self.loss_initial


def nu_mask(obj) -> np.ndarray:
    """0/1 vector over the flat layout: zeros on hidden (and BN) parameters,
    ones on the output head.  Accepts a NetworkSpec or a Params."""
    spec = obj.spec if isinstance(obj, Params) else obj
    if not isinstance(spec, NetworkSpec):
        raise TypeError(f"expected NetworkSpec or Params, got {type(obj).__name__}")
    mask = np.zeros(spec.param_count())
    mask[spec.hidden_param_count():] = 1.0
    return mask


def _noise_scales(cfg_scale, depth: int) -> np.ndarray:
    scales = np.atleast_1d(np.asarray(cfg_scale, dtype=np.float64))
    if scales.size == 1:
        scales = np.full(depth, scales[0])
    if scales.size != depth:
        raise ValueError(f"expected {depth} noise scales, got {scales.size}")
    if np.any(scales <= 0):
        raise ValueError("noise scales must be positive")
    return scales


def perturb(params: Params, sigma, seed) -> Params:
    """Add independent N(0, sigma_h^2) noise to every hidden-layer parameter
    (weights, biases, BN scale/shift); the head block is returned bit-identical."""
    scales = _noise_scales(sigma, params.depth)
    rng = np.random.default_rng(seed)
    out = params.copy()
    for l in range(params.depth):
        s = scales[l]
        out.weights[l][:] += s * rng.standard_normal(out.weights[l].shape)
        out.biases[l][:] += s * rng.standard_normal(out.biases[l].shape)
        if out.bn_scale[l] is not None:
            out.bn_scale[l][:] += s * rng.standard_normal(out.bn_scale[l].shape)
            out.bn_shift[l][:] += s * rng.standard_normal(out.bn_shift[l].shape)
    return out


def compute_L_H(kind: LossKind, h) -> float:
    """Smoothness constant of the frozen-feature head problem:
    (L_ell / n) * sum_i (||h_i||^2 + 1)."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    return float(kind.lipschitz * ((h * h).sum() / n + 1.0))


def _finite(value, what: str, t, phase):
    """`value` (a float or an array), or FloatingPointError naming step t and
    the phase if it holds a NaN or an infinity."""
    if math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all():
        return value
    raise FloatingPointError(
        f"{what} not finite at step {t} (phase {phase}); training diverged, "
        "try a smaller step size"
    )


def _loss_and_gradient(spec, params, x, y, kind, frozen_stats=None,
                       t=None, phase=None, gradient=True):
    """Full-batch loss at `params` and (unless gradient=False) its gradient
    over the flat layout, from one forward pass.  Predictions and loss are
    checked finite; t and phase only label the error."""
    trace = forward_hidden(spec, params, x, frozen_stats)
    f = _finite(trace.hidden @ params.weights[-1] + params.biases[-1],
                "predictions", t, phase)
    loss = _finite(loss_value(kind, f, y), "loss", t, phase)
    if not gradient:
        return loss, None
    return loss, backprop(spec, params, x, loss_grad(kind, f, y), trace=trace)


def _next_batch(state: dict, size: int, rng) -> np.ndarray:
    """Next `size` indices of a shuffled pass over the data; a pass that runs
    short is replaced by a fresh permutation from `rng`."""
    idx = state["order"][state["pos"] : state["pos"] + size]
    if idx.size < size:
        state["order"] = rng.permutation(state["order"].size)
        state["pos"] = 0
        idx = state["order"][:size]
    state["pos"] += size
    return idx


def estimate_lipschitz(spec, params, x, y, kind, frozen_stats=None,
                       probes: int = 8, radius: float = 1e-2, seed: int = 0) -> float:
    """Empirical lower bound on the gradient Lipschitz constant near `params`:
    max over random probe directions of ||grad(w + d) - grad(w)|| / ||d||."""
    rng = np.random.default_rng(seed)
    _, g0 = _loss_and_gradient(spec, params, x, y, kind, frozen_stats)
    best = 0.0
    for _ in range(probes):
        delta = rng.standard_normal(params.flat.size)
        delta *= radius / np.linalg.norm(delta)
        probe = Params(spec, params.flat + delta)
        _, g1 = _loss_and_gradient(spec, probe, x, y, kind, frozen_stats)
        best = max(best, float(np.linalg.norm(g1 - g0) / radius))
    return best


@np.errstate(over="ignore", invalid="ignore")
def run_two_phase(
    spec: NetworkSpec,
    params0: Params,
    dataset,
    base: BaseAlgoConfig,
    cfg: TwoPhaseConfig,
    kind: LossKind,
    monitor_every: int = 0,
    monitor_ntk: bool = False,
    record_sink=None,
    keep_trajectory: bool = False,
):
    """Run both phases end to end; returns (final Params, TrainLog).

    Emits exactly cfg.total_steps records (one per update).  Raises
    FeatureRankError if the post-perturbation feature matrix is not full
    row rank, RankPreservationError if lazy-phase rate halving cannot
    restore the kernel rank within the retry cap, and FloatingPointError
    naming the step and phase if predictions, the loss, the gradient norm
    or a lazy-phase Jacobian stop being finite.  Overflow warnings are
    silenced for the whole run: every non-finite value that matters ends up
    in one of those checks.
    """
    if spec.depth < 2:
        raise ValueError("two-phase training requires at least two hidden layers")
    x, y = dataset.x, dataset.y
    n = x.shape[0]
    if base.variant == "sgd_momentum" and base.minibatch > n:
        raise ValueError(f"minibatch {base.minibatch} exceeds dataset size {n}")
    tau, total = cfg.tau, cfg.total_steps
    log = TrainLog(tau=tau, total_steps=total, phase2_mode=cfg.phase2_mode)

    def emit(record):
        log.records.append(record)
        if record_sink is not None:
            record_sink(record)

    def monitored(t_done):
        return monitor_every > 0 and t_done % monitor_every == 0

    # Phase 1 updates params.flat in place.  Under GD the gradient for step
    # t + 1 comes from the same forward pass as the loss recorded at step t.
    params = params0.copy()
    w = params.flat
    full_batch = base.variant == "gd"
    log.loss_initial, g = _loss_and_gradient(spec, params, x, y, kind, t=0, phase=1,
                                             gradient=full_batch and tau > 0)
    rng_base = np.random.default_rng(base.seed)
    velocity = np.zeros_like(w)
    order_state = {"order": np.arange(n), "pos": n}  # forces initial shuffle

    t0 = time.perf_counter()
    for t in range(1, tau + 1):
        if not full_batch:
            idx = _next_batch(order_state, base.minibatch, rng_base)
            xb, yb = x[idx], y[idx]
            trace = forward_hidden(spec, params, xb)
            fb = _finite(trace.hidden @ params.weights[-1] + params.biases[-1],
                         "minibatch predictions", t, 1)
            g = backprop(spec, params, xb, loss_grad(kind, fb, yb), trace=trace)
        if base.weight_decay:
            g += base.weight_decay * w
        gnorm = _finite(float(np.linalg.norm(g)), "gradient norm", t, 1)
        if full_batch:
            w -= base.learning_rate * g
        else:
            velocity *= base.momentum
            velocity += g
            w -= base.learning_rate * velocity
        loss, g = _loss_and_gradient(spec, params, x, y, kind, t=t, phase=1,
                                     gradient=full_batch and t < tau)
        rec = StepRecord(t=t, phase=1, loss=loss, grad_norm=gnorm,
                         wall_time=time.perf_counter() - t0)
        if monitored(t):
            rec.feature_rank = numerical_rank(
                append_ones(forward_hidden(spec, params, x).hidden))
            if monitor_ntk:
                rec.ntk_rank = compute_ntk(compute_jacobian(spec, params, x), step=t).rank
        emit(rec)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    params = perturb(params, cfg.noise_scale, seeds[0])

    if tau == total:
        log.loss_at_tau, _ = _loss_and_gradient(spec, params, x, y, kind, t=tau, phase=2,
                                                gradient=False)
        log.final_loss = log.records[-1].loss if log.records else log.loss_initial
        log.t_star = tau
        log.loss_at_t_star = log.loss_at_tau
        return params, log

    frozen = batch_statistics(forward_hidden(spec, params, x)) if any(spec.bn_flags) else None
    log.frozen_stats = frozen
    h = forward_hidden(spec, params, x, frozen).hidden
    aug = append_ones(h)
    feat_rank = numerical_rank(aug)
    if feat_rank < n:
        raise FeatureRankError(
            f"features after perturbation have rank {feat_rank} < n = {n}; "
            "widen the last hidden layer (need m_H + 1 >= n) or change the seed"
        )
    log.l_h = compute_L_H(kind, h)
    log.features_at_tau = h.copy()
    z = params.head_block().copy()
    log.head_at_tau = params.flat[spec.hidden_param_count():].copy()
    log.params_at_tau_flat = params.to_flat()
    pred = _finite(aug @ z, "predictions", tau, 2)
    log.loss_at_tau = _finite(loss_value(kind, pred, y), "loss", tau, 2)

    rng_p2 = np.random.default_rng(seeds[1])
    best_loss, best_t = log.loss_at_tau, tau

    if cfg.phase2_mode in ("last_layer_gd", "last_layer_sgd"):
        head_gd = cfg.phase2_mode == "last_layer_gd"
        if head_gd:
            log.eta_schedule = {"mode": "constant_over_l_h", "value": 1.0 / log.l_h}
        else:
            log.eta_schedule = {"mode": "inv_sqrt", "scale": cfg.sgd_rate_scale}
        b = min(cfg.sgd_minibatch, n)
        sgd_order = {"order": np.arange(n), "pos": n}
        for t in range(tau + 1, total + 1):
            if head_gd:
                g = aug.T @ loss_grad(kind, pred, y)
                z = z - (1.0 / log.l_h) * g
            else:
                if cfg.sgd_sampling == "with_replacement":
                    idx = rng_p2.integers(0, n, size=b)
                else:
                    idx = _next_batch(sgd_order, b, rng_p2)
                g = aug[idx].T @ loss_grad(kind, aug[idx] @ z, y[idx])
                z = z - (cfg.sgd_rate_scale / np.sqrt(t - tau)) * g
            gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
            log.max_sq_grad_phase2 = max(log.max_sq_grad_phase2, gsq)
            pred = _finite(aug @ z, "predictions", t, 2)
            cur = _finite(loss_value(kind, pred, y), "loss", t, 2)
            if cur < best_loss:
                best_loss, best_t = cur, t
            rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=np.sqrt(gsq),
                             wall_time=time.perf_counter() - t0)
            if monitored(t - tau):
                rec.feature_rank = feat_rank
                if monitor_ntk:
                    params.set_head_block(z)
                    jac = compute_jacobian(spec, params, x, frozen)
                    snap = compute_ntk(jac, step=t)
                    rec.ntk_rank = snap.rank
                    if keep_trajectory:
                        log.trajectory.append((t, params.copy(), jac))
            emit(rec)
        params.set_head_block(z)
    else:
        lipschitz = cfg.lazy_lipschitz
        if lipschitz is None:
            lipschitz = estimate_lipschitz(spec, params, x, y, kind, frozen,
                                           seed=cfg.seed)
            lipschitz = max(lipschitz, 1e-12)
        eta_bar = cfg.lazy_eta_bar
        log.eta_schedule = {"mode": "lazy_uniform", "eta_bar": eta_bar,
                            "lipschitz": lipschitz}
        ref_jac = compute_jacobian(spec, params, x, frozen)
        reference = compute_ntk(ref_jac, step=tau)
        if keep_trajectory:
            log.trajectory.append((tau, params.copy(), ref_jac))
        # candidates are written into a second buffer, swapped in on acceptance
        _, g = _loss_and_gradient(spec, params, x, y, kind, frozen, t=tau, phase=2)
        cand = params.copy()
        for t in range(tau + 1, total + 1):
            gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
            accepted = False
            event = None
            for attempt in range(cfg.lazy_max_retries + 1):
                np.subtract(params.flat, (2.0 * eta_bar / lipschitz) * g, out=cand.flat)
                jac = _finite(compute_jacobian(spec, cand, x, frozen), "Jacobian", t, 2)
                snap = compute_ntk(jac, step=t)
                if assert_rank_preserved(reference, snap):
                    accepted = True
                    break
                eta_bar /= 2.0
                event = f"rank_drop_halved_eta_bar_to_{eta_bar:.3e}"
                log.rank_events.append((t, event))
            if not accepted:
                raise RankPreservationError(
                    f"step {t}: kernel rank stayed below {reference.rank} "
                    f"after {cfg.lazy_max_retries} rate halvings"
                )
            params, cand = cand, params
            log.max_sq_grad_phase2 = max(log.max_sq_grad_phase2, gsq)
            cur, g = _loss_and_gradient(spec, params, x, y, kind, frozen, t=t, phase=2,
                                        gradient=t < total)
            if cur < best_loss:
                best_loss, best_t = cur, t
            rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=np.sqrt(gsq),
                             ntk_rank=snap.rank, rank_event=event,
                             wall_time=time.perf_counter() - t0)
            if monitored(t - tau):
                rec.feature_rank = numerical_rank(
                    append_ones(forward_hidden(spec, params, x, frozen).hidden))
                if keep_trajectory:
                    log.trajectory.append((t, params.copy(), jac))
            emit(rec)

    log.final_loss = log.records[-1].loss
    log.t_star = best_t
    log.loss_at_t_star = best_loss
    return params, log
