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

The data are checked once, when run_two_phase starts, and the step loop then
calls the unchecked loss kernel of `losses`.  Every forward pass the run
scores goes through one helper, _evaluate: the pass, its predictions, loss
and residual, of which backprop gives the gradient.  It serves each
phase-1 pass, the pass at tau, each lazy candidate (scored before its
kernel is built) and estimate_lipschitz; a head step, whose features are
fixed, scores [h, 1] z alone.  Each phase-1 step makes one full-batch pass.  That pass gives the step's loss, the next
step's batch and, on a monitored step, the feature rank and the kernel.
The pass runs on the rows of X in the order of the current epoch, so the
next batch is a contiguous row slice of it (views, not copies) and its
gradient in f a slice of the pass's residual: a GD epoch is one batch of
all n rows in data order, a momentum-SGD epoch a permutation cut into
minibatches.  The loss is summed back in data order, and a monitored step
puts the pass back in data order, so every record equals that of a pass in
data order bit for bit.  The one exception is momentum SGD under
training-mode batch normalization, whose batch statistics couple the rows:
there the pass stays in data order and each minibatch gets a pass of its
own.  Every phase-1 pass and backprop, the passes at tau, each monitored
kernel, the lazy reference's kernel and backprop at tau and each lazy
candidate's pass, backprop and kernel write into one network.Workspace
allocated per run, so no array of the pass's or the kernel's size is
allocated per step;
the workspace binds its views once, and its passes trust X, Y and the
upstream derived from them, which are checked once on entry.  Every kernel
comes from ntk.compute_kernel, summed layer by layer from that pass, and
its rank from one Cholesky factorization (ntk.compute_ntk); under squared
loss with bounds on, that factorization is bordered by the residual and
also gives the step's linearized distance, an upper bound, so a lazy step
solves nothing else.

With bounds on, the constants of the mode's rate ceiling are fixed at tau,
and each phase-2 record gets its ceiling and measured suboptimality from
the closed form in `bounds` and the running sums and maxima up to its step,
before it is emitted; nothing is filled in after training.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    SLACK_REL,
    _centering_basis,
    _linearized_distance,
    gd_bound,
    lazy_bound,
    loss_infimum,
    sgd_bound,
    solve_last_layer_optimum,
)
from .linalg import RankDeficientError, append_ones, as_matrix, numerical_rank
from .losses import LossKind, _loss, _mean_gradient, _mean_loss, _terms, check_targets
from .network import (
    ForwardTrace,
    NetworkSpec,
    Params,
    Workspace,
    backprop,
    batch_statistics,
    forward_hidden,
    forward_output,
)
from .ntk import assert_rank_preserved, compute_kernel, compute_ntk

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
LAZY_MAX_RETRIES = 10  # rate halvings a lazy step may take before it fails
LIPSCHITZ_PROBES = 8  # random directions estimate_lipschitz probes,
LIPSCHITZ_RADIUS = 1e-2  # each of this length


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be a positive finite number")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be a nonnegative finite number")


@dataclass
class TwoPhaseConfig:
    """Split point, noise scales, and the second-phase mode and schedule."""

    tau: int
    total_steps: int
    noise_scale: float | tuple = 1e-3
    phase2_mode: str = "last_layer_gd"
    sgd_rate_scale: float = 0.01
    sgd_minibatch: int = 64
    lazy_eta_bar: float = 0.5
    lazy_lipschitz: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.tau <= self.total_steps:
            raise ValueError(f"need 0 <= tau <= total_steps, got {self.tau}, {self.total_steps}")
        if self.phase2_mode not in PHASE2_MODES:
            raise ValueError(f"unknown phase2_mode {self.phase2_mode!r}")
        _noise_scales(self.noise_scale, np.size(self.noise_scale))  # positive and finite
        if not 0.0 < self.sgd_rate_scale < math.inf:
            raise ValueError("sgd_rate_scale must be a positive finite number")
        if self.sgd_minibatch < 1:
            raise ValueError("sgd_minibatch must be >= 1")
        if self.lazy_lipschitz is not None and not 0.0 < self.lazy_lipschitz < math.inf:
            raise ValueError("lazy_lipschitz must be a positive finite number or None")
        if self.phase2_mode == "lazy_full" and not 0.0 < self.lazy_eta_bar < 1.0:
            raise ValueError("lazy_eta_bar must lie in (0, 1)")

    @classmethod
    def from_fraction(cls, tau_fraction: float, total_steps: int, **kwargs) -> "TwoPhaseConfig":
        """tau = floor(tau_fraction * total_steps), exact for the decimal
        tau_fraction is written as (0.29 at 100 steps gives 29, where the
        float product 28.999999999999996 would floor to 28)."""
        if not 0.0 <= tau_fraction <= 1.0:
            raise ValueError("tau_fraction must lie in [0, 1]")
        # the shortest decimal of the float, as digits / 10**places in
        # integers; repr writes a fraction below 1e-4 as 'd.ddde-XX'
        mantissa, _, exponent = repr(float(tau_fraction)).partition("e")
        whole, _, decimals = mantissa.partition(".")
        places = len(decimals) - int(exponent or 0)
        return cls(tau=int(whole + decimals) * total_steps // 10**places,
                   total_steps=total_steps, **kwargs)


@dataclass
class StepRecord:
    """One update; wall_time is the seconds from the start of phase 1."""

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
    """A run's outcome: one record per update unless a record sink took
    them, the constants phase 2 was run with and, with bounds on, those its
    ceilings rest on (`constants`, as summary.json reports them) and the
    count of steps above an exact ceiling.  best_loss, final_loss and
    phase_seconds are kept as records are emitted, so they need no records:
    the least and the last recorded loss (loss_initial before the first),
    and the seconds of phase 1 (the wall time of record tau, 0.0 at tau 0)
    and of phase 2 (from there to the last record)."""

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
    best_loss: float = 0.0
    final_loss: float = 0.0
    phase_seconds: dict = field(default_factory=lambda: {"1": 0.0, "2": 0.0})
    rank_events: list = field(default_factory=list)
    r_bar: float | None = None
    constants: dict = field(default_factory=dict)
    violations: int | None = None

    def phase2_records(self) -> list:
        return [r for r in self.records if r.phase == 2]


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
    if not np.all((scales > 0) & (scales < np.inf)):
        raise ValueError("noise_scale must be positive and finite (non-degenerate Gaussian)")
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


def _snapshot(spec, params, x, frozen, trace, t, phase, floor=0.0, rhs=None, work=None):
    """compute_ntk, bordered by `rhs` if given, of the tangent kernel at
    `trace`, the forward pass of `params` on x, written into `work` if
    given; FloatingPointError naming step t and the phase if the kernel is
    not finite."""
    kernel = _finite(compute_kernel(spec, params, x, frozen, trace=trace, work=work),
                     "kernel", t, phase)
    return compute_ntk(kernel, floor=floor, rhs=rhs, work=work)


def _distance(snap, trace, y, kind, basis, t):
    """_linearized_distance at step t of phase 2, whose RankDeficientError
    names the step and phase."""
    try:
        return _linearized_distance(snap, trace.output, y, kind, basis)
    except RankDeficientError as exc:
        raise RankDeficientError(f"step {t} (phase 2): {exc}") from None


def _checked_data(spec, kind, x, y):
    """X and Y as finite float64 matrices, Y with valid targets of kind and
    one row of spec.output_dim per row of X; ValueError otherwise."""
    x = as_matrix(x, "X")
    y = check_targets(kind, y)
    if y.shape != (x.shape[0], spec.output_dim):
        raise ValueError(f"targets have shape {y.shape}, expected "
                         f"{(x.shape[0], spec.output_dim)}")
    return x, y


def _evaluate(spec, params, x, y, kind, t, phase, frozen_stats=None, work=None,
              order=slice(None)):
    """(trace, loss, residual) at `params`: one forward pass on x, into
    `work` if given, with trace.output set; the mean loss over the rows in
    `order` of the pass; and the residual rows, of which backprop of
    _mean_gradient over the trace gives a gradient.  x and y must be checked
    (_checked_data).  Predictions and loss are checked finite; t and phase
    only label the error."""
    trace = forward_hidden(spec, params, x, frozen_stats, work=work)
    f = _finite(forward_output(spec, params, x, trace=trace), "predictions", t, phase)
    terms, residual = _terms(kind, f, y)
    return trace, _finite(_mean_loss(kind, terms[order]), "loss", t, phase), residual


def _rows(trace, rows) -> ForwardTrace:
    """Rows `rows` of a forward trace, output included: views for a slice,
    copies for an index array.  The rows must be the whole pass if it ran
    under training-mode batch normalization, whose batch statistics couple
    them; in any other pass each row depends on its own sample alone."""
    return ForwardTrace(trace.inputs[rows], [z[rows] for z in trace.affine], trace.bn_cache,
                        [h[rows] for h in trace.post], output=trace.output[rows])


def estimate_lipschitz(spec, params, x, y, kind, frozen_stats=None, seed: int = 0) -> float:
    """Empirical lower bound on the gradient Lipschitz constant near `params`:
    max over LIPSCHITZ_PROBES random directions d, each of length
    LIPSCHITZ_RADIUS, of ||grad(w + d) - grad(w)|| / ||d||."""
    x, y = _checked_data(spec, kind, x, y)
    rng = np.random.default_rng(seed)

    def gradient(point):
        trace, _, residual = _evaluate(spec, point, x, y, kind, None, None, frozen_stats)
        return backprop(spec, point, x, _mean_gradient(kind, residual), trace=trace)

    g0 = gradient(params)
    best = 0.0
    for _ in range(LIPSCHITZ_PROBES):
        delta = rng.standard_normal(params.flat.size)
        delta *= LIPSCHITZ_RADIUS / np.linalg.norm(delta)
        g1 = gradient(Params(spec, params.flat + delta))
        best = max(best, float(np.linalg.norm(g1 - g0) / LIPSCHITZ_RADIUS))
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
    record_sink=None,
    bounds: bool = False,
):
    """Run both phases end to end; returns (final Params, TrainLog).

    Raises ValueError before the first record unless X is finite, Y holds
    valid targets of `kind`, one row of m_y per sample, and cfg.noise_scale
    is one scale or one per hidden layer; the step loop does not check X
    and Y again.  Each phase-1 step makes one full-batch forward
    pass in epoch order, of which the next step's batch is a slice (unless
    training-mode BN couples the rows of a momentum-SGD minibatch), and
    which a monitored step reuses; record.wall_time counts from the start
    of phase 1.

    Emits exactly cfg.total_steps records (one per update), each to
    `record_sink` if one is given and to log.records otherwise, so a run
    with a sink keeps no per-step state; log.best_loss, log.final_loss and
    log.phase_seconds are kept either way.  Every `monitor_every` steps of
    a phase (0: never; below 0, ValueError) a record also carries the
    feature rank and the kernel rank; a lazy step's kernel rank is counted
    at the reference threshold its rank test used.

    With `bounds`, every phase-2 record carries its ceiling and measured
    suboptimality before it is emitted, so a run cut short leaves complete
    records.  The constants are fixed at tau: R^2 and loss* of the head
    optimum, or for lazy mode loss* = the loss infimum with the Lipschitz
    estimate and the configured eta_bar.  GD compares each step's loss; SGD
    and lazy compare the running minimum from tau on, with G^2 the largest
    squared head gradient so far, the step-size sums running from tau, and
    log.r_bar the running max of the linearized distance
    (bounds.estimate_R_bar) over the kernels of tau and every step so far,
    from the bordered factorization of each rank test under squared loss,
    and so an upper bound (log.constants["r_bar_kind"]).  A lazy kernel
    below full rank n * m_y leaves Rbar undefined and raises
    RankDeficientError naming its step and phase.  An optimum that is not
    attained (R^2 or Rbar inf) leaves the bound fields None; log.constants
    names the certificate, and log.violations counts the steps above an
    exact (head) ceiling.  Raises FeatureRankError if the post-perturbation
    feature matrix is not full row rank, RankPreservationError if lazy-phase
    rate halving cannot restore the kernel rank within the retry cap, and
    FloatingPointError naming the step and phase if predictions, the loss,
    the gradient norm or a tangent kernel stop being finite.  Overflow
    warnings are silenced for the whole run: every non-finite value that
    matters ends up in one of those checks.
    """
    if spec.depth < 2:
        raise ValueError("two-phase training requires at least two hidden layers")
    if monitor_every < 0:
        raise ValueError(f"monitor_every must be >= 0 (0: never), got {monitor_every}")
    _noise_scales(cfg.noise_scale, spec.depth)
    x, y = _checked_data(spec, kind, dataset.x, dataset.y)
    n = x.shape[0]
    if base.variant == "sgd_momentum" and base.minibatch > n:
        raise ValueError(f"minibatch {base.minibatch} exceeds dataset size {n}")
    tau, total = cfg.tau, cfg.total_steps
    log = TrainLog(tau=tau, total_steps=total, phase2_mode=cfg.phase2_mode)

    def emit(record):
        # the summary numbers go with each record, which then goes to the
        # sink or, without one, to the log, so a streamed run keeps none
        if record.t == 1 or record.loss < log.best_loss:
            log.best_loss = record.loss
        log.final_loss = record.loss
        seconds = log.phase_seconds
        if record.phase == 1:
            seconds["1"] = record.wall_time
        seconds["2"] = record.wall_time - seconds["1"]
        if record_sink is None:
            log.records.append(record)
        else:
            record_sink(record)

    def monitored(t_done):
        return monitor_every > 0 and t_done % monitor_every == 0

    # Phase 1 updates params.flat in place, and every pass and backprop of
    # its steps writes into one workspace.  The full-batch pass that gives
    # the loss recorded at step t is at the parameters step t + 1 starts
    # from, so step t + 1's batch is a row slice of it, taken in the order
    # of the epoch step t + 1 draws from.  Training-mode BN couples the rows
    # through the batch statistics, so under momentum SGD the pass stays in
    # data order and the minibatch gets a pass of its own.
    params = params0.copy()
    w = params.flat
    full_batch = base.variant == "gd"
    own_pass = not full_batch and any(spec.bn_flags)
    work = Workspace(spec, n)
    rng_base = np.random.default_rng(base.seed)
    velocity = np.zeros_like(w)
    size = n if full_batch else base.minibatch
    inverse = slice(None)  # the pass's rows back in data order
    xs, ys = x, y  # the pass's rows: x[order], y[order] when permuted
    pos = n  # forces the initial epoch

    t0 = time.perf_counter()
    for t in range(tau + 1):
        if t:
            if own_pass:
                idx = order[pos : pos + size]
                batch, _, rows = _evaluate(spec, params, x[idx], y[idx], kind, t, 1, work=work)
            else:
                batch, rows = _rows(trace, slice(pos, pos + size)), residual[pos : pos + size]
            pos += size
            g = backprop(spec, params, batch.inputs, _mean_gradient(kind, rows), trace=batch,
                         work=work)
            if base.weight_decay:
                g += base.weight_decay * w
            gnorm = _finite(math.sqrt(g @ g), "gradient norm", t, 1)
            if full_batch:
                w -= base.learning_rate * g
            else:
                velocity *= base.momentum
                velocity += g
                w -= base.learning_rate * velocity
        if t < tau and pos + size > n:
            # an epoch that runs short is replaced by a fresh one, whose
            # permutation is drawn before the pass that step t + 1 slices
            pos = 0
            if not full_batch:
                order = rng_base.permutation(n)
                if not own_pass:
                    inverse = np.argsort(order)
                    xs, ys = x[order], y[order]
        trace, loss, residual = _evaluate(spec, params, xs, ys, kind, t, 1, work=work,
                                          order=inverse)
        if not t:
            log.loss_initial = log.best_loss = log.final_loss = loss
            continue
        rec = StepRecord(t=t, phase=1, loss=loss, grad_norm=gnorm,
                         wall_time=time.perf_counter() - t0)
        if monitored(t):
            # rank and kernel of the pass in data order
            full = _rows(trace, inverse)
            rec.feature_rank = numerical_rank(append_ones(full.hidden))
            rec.ntk_rank = _snapshot(spec, params, x, None, full, t, 1, work=work).rank
        emit(rec)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    params = perturb(params, cfg.noise_scale, seeds[0])

    if tau == total:
        log.loss_at_tau = _evaluate(spec, params, x, y, kind, tau, 2, work=work)[1]
        log.t_star = tau
        log.loss_at_t_star = log.loss_at_tau
        return params, log

    # the passes at tau write into the workspace too: nothing reads the
    # phase-1 trace again, the statistics are copies, head steps write only
    # the workspace's kernel arrays, and lazy candidates overwrite the pass
    # only after tau's reference kernel, backprop and distance are done
    frozen = (batch_statistics(forward_hidden(spec, params, x, work=work))
              if any(spec.bn_flags) else None)
    log.frozen_stats = frozen
    trace, _, residual = _evaluate(spec, params, x, y, kind, tau, 2, frozen, work=work)
    h = trace.hidden
    aug = append_ones(h)
    feat_rank = numerical_rank(aug)
    if feat_rank < n:
        raise FeatureRankError(
            f"features after perturbation have rank {feat_rank} < n = {n}; "
            "widen the last hidden layer (need m_H + 1 >= n) or change the seed"
        )
    log.l_h = compute_L_H(kind, h)
    log.features_at_tau = aug[:, :-1]
    z = params.head_block().copy()
    log.head_at_tau = params.flat[spec.hidden_param_count():].copy()
    log.params_at_tau_flat = params.to_flat()
    # the loss at tau is that of [h, 1] z, as at every head step (the pass's
    # h W + b can differ in the last bit), whose gradient head GD takes next
    head_gd = cfg.phase2_mode == "last_layer_gd"
    pred = _finite(aug @ z, "predictions", tau, 2)
    loss, dpred = _loss(kind, pred, y)
    log.loss_at_tau = _finite(loss, "loss", tau, 2)

    rng_p2 = np.random.default_rng(seeds[1])
    best_loss, best_t = log.loss_at_tau, tau
    head_mode = cfg.phase2_mode != "lazy_full"
    attained = False  # the optimum is attained: a finite ceiling at every step

    def certify(rec, ceiling, reached):
        rec.bound, rec.suboptimality = ceiling, reached - loss_star
        if head_mode and rec.suboptimality > ceiling + SLACK_REL * (1.0 + ceiling):
            log.violations += 1

    if head_mode:
        if head_gd:
            log.eta_schedule = {"mode": "constant_over_l_h", "value": 1.0 / log.l_h}
        else:
            log.eta_schedule = {"mode": "inv_sqrt", "scale": cfg.sgd_rate_scale}
        if bounds:
            opt = solve_last_layer_optimum(kind, h, y, log.head_at_tau)
            r_squared, loss_star = opt.r_squared, opt.loss_star
            attained = math.isfinite(r_squared)
            log.violations = 0 if attained else None
            # sums of the ceiling's schedule eta_k = scale / sqrt(k - tau + 1)
            eta_sum, eta_sq_sum = cfg.sgd_rate_scale, cfg.sgd_rate_scale * cfg.sgd_rate_scale
        b = min(cfg.sgd_minibatch, n)
        for t in range(tau + 1, total + 1):
            if head_gd:
                g = aug.T @ dpred
                z -= (1.0 / log.l_h) * g
            else:
                idx = rng_p2.integers(0, n, size=b)
                g = aug[idx].T @ _loss(kind, aug[idx] @ z, y[idx])[1]
                z -= (cfg.sgd_rate_scale / math.sqrt(t - tau)) * g
            gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
            log.max_sq_grad_phase2 = max(log.max_sq_grad_phase2, gsq)
            pred = _finite(aug @ z, "predictions", t, 2)
            cur, dpred = _loss(kind, pred, y)
            cur = _finite(cur, "loss", t, 2)
            if cur < best_loss:
                best_loss, best_t = cur, t
            rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=math.sqrt(gsq),
                             wall_time=time.perf_counter() - t0)
            if monitored(t - tau):
                # only the head moved, so the tau pass is the features' pass
                rec.feature_rank = feat_rank
                params.set_head_block(z)
                rec.ntk_rank = _snapshot(spec, params, x, frozen, trace, t, 2, work=work).rank
            if attained and head_gd:
                certify(rec, gd_bound(r_squared, log.l_h, t, tau), cur)
            elif attained:
                eta = cfg.sgd_rate_scale / math.sqrt(t - tau + 1)
                eta_sum += eta
                eta_sq_sum += eta * eta
                certify(rec, sgd_bound(r_squared, log.max_sq_grad_phase2, eta_sum,
                                       eta_sq_sum), best_loss)
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
        # one forward trace per parameter point gives its kernel, loss,
        # gradient and distance to the linearized minimizers; a step's rank
        # test is certified at the reference threshold too, so accepting it
        # needs no spectrum.  Under squared loss with bounds on, the
        # residual borders that factorization, which then gives the
        # distance too.  Every pass, backprop and kernel writes into the
        # phase-1 workspace, so the reference's threshold is taken now,
        # before the first candidate's kernel overwrites the reference's
        bordered = bounds and kind.name == "squared"
        reference = _snapshot(spec, params, x, frozen, trace, tau, 2,
                              rhs=residual.reshape(-1) if bordered else None, work=work)
        threshold = reference.tolerance
        g = backprop(spec, params, x, _mean_gradient(kind, residual), trace=trace, work=work)
        if bounds:
            loss_star = loss_infimum(kind, y)
            basis = _centering_basis(y.shape[1])
            log.r_bar = max(0.0, _distance(reference, trace, y, kind, basis, tau))
            attained = math.isfinite(log.r_bar)
        # candidates are written into a second buffer, swapped in on acceptance
        cand = params.copy()
        for t in range(tau + 1, total + 1):
            gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
            event = None
            for _ in range(LAZY_MAX_RETRIES + 1):
                np.subtract(params.flat, (2.0 * eta_bar / lipschitz) * g, out=cand.flat)
                trace, cur, residual = _evaluate(spec, cand, x, y, kind, t, 2, frozen,
                                                 work=work)
                snap = _snapshot(spec, cand, x, frozen, trace, t, 2, threshold,
                                 rhs=residual.reshape(-1) if bordered else None, work=work)
                if assert_rank_preserved(reference, snap):
                    break
                eta_bar /= 2.0
                event = f"rank_drop_halved_eta_bar_to_{eta_bar:.3e}"
                log.rank_events.append((t, event))
            else:
                raise RankPreservationError(
                    f"step {t} (phase 2): kernel rank stayed below {reference.rank} "
                    f"after {LAZY_MAX_RETRIES} rate halvings"
                )
            params, cand = cand, params
            log.max_sq_grad_phase2 = max(log.max_sq_grad_phase2, gsq)
            if t < total:
                g = backprop(spec, params, x, _mean_gradient(kind, residual), trace=trace,
                             work=work)
            if bounds:
                log.r_bar = max(log.r_bar, _distance(snap, trace, y, kind, basis, t))
            if cur < best_loss:
                best_loss, best_t = cur, t
            rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=math.sqrt(gsq),
                             ntk_rank=snap.rank_at(threshold), rank_event=event,
                             wall_time=time.perf_counter() - t0)
            if monitored(t - tau):
                rec.feature_rank = numerical_rank(append_ones(trace.hidden))
            if attained:
                certify(rec, lazy_bound(lipschitz, log.r_bar, log.loss_at_tau, loss_star,
                                        cfg.lazy_eta_bar, t, tau), best_loss)
            emit(rec)

    if bounds:
        if head_mode:
            log.constants = {"g_squared": log.max_sq_grad_phase2,
                             "r_squared": r_squared if attained else None}
        else:
            log.constants = {"l_estimate": lipschitz, "diagnostic": True,
                             "r_bar": log.r_bar if attained else None,
                             "r_bar_kind": "upper_bound" if bordered else "exact"}
        log.constants["loss_star"] = loss_star
        # the lazy ceiling rests on an estimated Lipschitz constant, so it
        # is a diagnostic and counts no violations
        log.constants["certificate"] = (("exact" if head_mode else "estimated")
                                        if attained else "vacuous")
    log.t_star = best_t
    log.loss_at_t_star = best_loss
    return params, log
