"""Two-phase training: base first-order phase, Gaussian kick, rank-safe phase.

run_two_phase checks its inputs once (_Run), then runs four phases:

* _phase_one   -- the unmodified base algorithm (full-batch GD, or minibatch
                  SGD with momentum and weight decay) on every parameter.
* _at_tau      -- independent Gaussian noise on every hidden-layer parameter,
                  the head untouched; batch-norm statistics frozen for the
                  rest of the run, so the head problem is convex; and the
                  pass at tau, whose features [h, 1] must have full row rank.
                  Phase 2 holds that pass only where it reads it: lazy_full,
                  and a head mode that monitors; an unmonitored head phase
                  holds only [h, 1] and the head.
* _head_phase  -- last_layer_gd: head GD at step 1/L_H, L_H the smoothness
                  constant of the frozen-feature head problem, so the loss
                  is non-increasing; last_layer_sgd: unbiased minibatch head
                  gradients at the square-summable rate a / sqrt(t - tau).
                  Both step the head in place, in params.head_block().
* _lazy_phase  -- lazy_full: every parameter at the uniform rate
                  2 eta_bar / L; a step that would drop the kernel rank below
                  the reference at tau is rejected and the rate halved.

Every pass, backprop and kernel writes into the run's one network.Workspace,
so no array of a pass's or a kernel's size is allocated per step.  Every
rank (the features' at tau and when monitored, a kernel's) comes from
linalg.certified_rank, the package's one rank rule: one Cholesky
factorization proves a full rank, and a spectrum is computed only when a
factorization fails, so a run whose factorizations all succeed computes no
SVD or eigenvalues.

The phases only take steps: _Run.emit, the one path of a finished record,
stamps it, keeps the log's running numbers (TrainLog) and, with bounds on,
has the bounds.Certificate made at tau set its ceiling, then sinks it.

The configs a run takes (BaseAlgoConfig, TwoPhaseConfig) and its numeric
failures (FeatureRankError, RankPreservationError) live in
twophase.protocol; this module re-exports them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import Certificate
from .linalg import EPS, append_ones, as_matrix, numerical_rank
from .losses import LossKind, _loss, _mean_gradient, _mean_loss, _terms, check_targets
from .network import (
    ForwardTrace,
    Params,
    Workspace,
    _validate_forward_shapes,
    backprop,
    batch_statistics,
    forward_hidden,
    forward_output,
)
from .ntk import compute_kernel, compute_ntk
from .protocol import (
    PHASE2_MODES,
    BaseAlgoConfig,
    FeatureRankError,
    RankPreservationError,
    TwoPhaseConfig,
    _noise_scales,
)

# BaseAlgoConfig, TwoPhaseConfig and the two errors (and PHASE2_MODES)
# are protocol's, re-exported so that twophase.trainer.X still resolves
__all__ = [
    "BaseAlgoConfig",
    "TwoPhaseConfig",
    "StepRecord",
    "TrainLog",
    "FeatureRankError",
    "RankPreservationError",
    "perturb",
    "compute_L_H",
    "estimate_lipschitz",
    "run_two_phase",
]

LAZY_MAX_RETRIES = 10  # rate halvings a lazy step may take before it fails
LIPSCHITZ_PROBES = 8  # random directions estimate_lipschitz probes,
LIPSCHITZ_RADIUS = 1e-2  # each of this length


@dataclass
class StepRecord:
    """One update; wall_time, the seconds from the start of phase 1, is
    stamped when the record is emitted."""

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
    them; a copy of the perturbed parameters at tau and the batch
    statistics frozen there (None when tau == total_steps); and, with
    bounds on, the certificate's `constants` and `violations`
    (bounds.Certificate).  Kept as records are emitted: best_loss and
    final_loss, the least and the last recorded loss (loss_initial before
    the first); phase_seconds, phase 1's (the wall time of record tau, 0.0
    at tau 0) and phase 2's (to the last record); from tau, t_star and
    loss_at_t_star, the earliest argmin and the min of the loss, and G^2,
    max_sq_grad_phase2, the largest squared phase-2 gradient norm."""

    records: list = field(default_factory=list)
    tau: int = 0
    total_steps: int = 0
    phase2_mode: str = ""
    loss_initial: float = 0.0
    loss_at_tau: float | None = None
    l_h: float | None = None
    params_at_tau: Params | None = None
    frozen_stats: list | None = None
    max_sq_grad_phase2: float = 0.0
    t_star: int | None = None
    loss_at_t_star: float | None = None
    best_loss: float = 0.0
    final_loss: float = 0.0
    phase_seconds: dict = field(default_factory=lambda: {"1": 0.0, "2": 0.0})
    rank_events: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    violations: int | None = None

    def phase2_records(self) -> list:
        return [r for r in self.records if r.phase == 2]


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


def _snapshot(params, trace, t, phase, reference=None, rhs=None, work=None):
    """compute_ntk, against the `reference` verdict if given and bordered by
    `rhs` if given, of the tangent kernel at `trace`, a forward pass of
    `params`, written into `work` if given; FloatingPointError naming step t
    and the phase if the kernel is not finite."""
    kernel = _finite(compute_kernel(params, trace, work=work), "kernel", t, phase)
    return compute_ntk(kernel, reference, rhs=rhs, work=work)


def _checked_data(spec, kind, x, y):
    """X and Y as finite float64 matrices, Y with valid targets of kind and
    one row of spec.output_dim per row of X; ValueError otherwise."""
    x = as_matrix(x, "X")
    y = check_targets(kind, y)
    if y.shape != (x.shape[0], spec.output_dim):
        raise ValueError(f"targets have shape {y.shape}, expected "
                         f"{(x.shape[0], spec.output_dim)}")
    return x, y


def _evaluate(params, x, y, kind, t, phase, frozen_stats=None, work=None, order=slice(None)):
    """(trace, loss, residual) at `params`: one forward pass on x, into
    `work` if given, with trace.output set; the mean loss over the rows in
    `order` of the pass; and the residual rows, of which backprop of
    _mean_gradient over the trace gives a gradient.  x and y must be checked
    (_checked_data).  Predictions and loss are checked finite; t and phase
    only label the error."""
    trace = forward_hidden(params, x, frozen_stats, work=work)
    f = _finite(forward_output(params, trace), "predictions", t, phase)
    terms, residual = _terms(kind, f, y)
    return trace, _finite(_mean_loss(kind, terms[order]), "loss", t, phase), residual


def _rows(trace, rows) -> ForwardTrace:
    """Rows `rows` of a forward trace, output included: views for a slice,
    copies for an index array.  The rows must be the whole pass if it ran
    under training-mode batch normalization, whose batch statistics couple
    them; in any other pass each row depends on its own sample alone."""
    return ForwardTrace(trace.inputs[rows], [z[rows] for z in trace.affine], trace.bn_cache,
                        [h[rows] for h in trace.post], output=trace.output[rows])


def estimate_lipschitz(params, x, y, kind, frozen_stats=None, seed: int = 0) -> float:
    """Empirical lower bound on the gradient Lipschitz constant near `params`:
    max over LIPSCHITZ_PROBES random directions d, each of length
    LIPSCHITZ_RADIUS, of ||grad(w + d) - grad(w)|| / ||d||, every gradient
    written into one Workspace."""
    spec = params.spec
    x, y = _checked_data(spec, kind, x, y)
    _validate_forward_shapes(params, x, frozen_stats)  # the passes below trust them
    rng = np.random.default_rng(seed)
    work = Workspace(spec, x.shape[0])

    def gradient(point):
        trace, _, res = _evaluate(point, x, y, kind, None, None, frozen_stats, work=work)
        return backprop(point, trace, _mean_gradient(kind, res), work=work)

    g0 = gradient(params).copy()
    best = 0.0
    for _ in range(LIPSCHITZ_PROBES):
        delta = rng.standard_normal(params.flat.size)
        delta *= LIPSCHITZ_RADIUS / np.linalg.norm(delta)
        g1 = gradient(Params(spec, params.flat + delta))
        best = max(best, float(np.linalg.norm(g1 - g0) / LIPSCHITZ_RADIUS))
    return best


class _Run:
    """What every phase reads: the checked data, spec, kind and configs, the
    run's one Workspace (None from tau on where phase 2 reads no pass:
    _at_tau), its TrainLog, the seeds of the kick and of head
    SGD, the Certificate (None without bounds), `emit`, `monitored` and
    `first_rise`, the first phase-1 step above the initial loss or None."""

    def __init__(self, spec, dataset, base, cfg, kind, monitor_every, record_sink):
        if spec.depth < 2:
            raise ValueError("two-phase training requires at least two hidden layers")
        if monitor_every < 0:
            raise ValueError(f"monitor_every must be >= 0 (0: never), got {monitor_every}")
        _noise_scales(cfg.noise_scale, spec.depth)
        self.x, self.y = _checked_data(spec, kind, dataset.x, dataset.y)
        n = self.x.shape[0]
        if base.variant == "sgd_momentum" and base.minibatch > n:
            raise ValueError(f"minibatch {base.minibatch} exceeds dataset size {n}")
        self.spec, self.kind, self.base, self.cfg = spec, kind, base, cfg
        self.monitor_every, self.cert, self.first_rise = monitor_every, None, None
        self.log = TrainLog(tau=cfg.tau, total_steps=cfg.total_steps, phase2_mode=cfg.phase2_mode)
        self.sink = self.log.records.append if record_sink is None else record_sink
        self.seeds = np.random.SeedSequence(cfg.seed).spawn(2)
        self.work = Workspace(spec, n)
        self.t0 = time.perf_counter()

    def emit(self, record, gsq=None):
        """Stamp `record`, keep the running numbers (`gsq`: a phase-2
        record's squared gradient norm) and its ceiling, then sink it."""
        log = self.log
        record.wall_time = time.perf_counter() - self.t0
        if record.t == 1 or record.loss < log.best_loss:
            log.best_loss = record.loss
        log.final_loss = record.loss
        seconds = log.phase_seconds
        if record.phase == 1:
            seconds["1"] = record.wall_time
            if record.loss > log.loss_initial and self.first_rise is None:
                self.first_rise = record.t
        else:
            log.max_sq_grad_phase2 = max(log.max_sq_grad_phase2, gsq)
            if record.loss < log.loss_at_t_star:
                log.t_star, log.loss_at_t_star = record.t, record.loss
            if self.cert is not None:
                self.cert.check(record, log.loss_at_t_star, log.max_sq_grad_phase2)
        seconds["2"] = record.wall_time - seconds["1"]
        self.sink(record)

    def monitored(self, t_done):
        return self.monitor_every > 0 and t_done % self.monitor_every == 0


@dataclass
class _AtTau:
    """What phase 2 starts from: the perturbed params, updated in place (the
    head through its head_block() view), the pass at tau and its residual
    (None where phase 2 does not read them: a head mode with monitoring
    off), [h, 1] and its rank, dpred and lazy L; the frozen stats are in
    the log."""

    params: Params
    trace: ForwardTrace | None
    residual: np.ndarray | None
    aug: np.ndarray
    feature_rank: int
    dpred: np.ndarray
    lipschitz: float | None


def _phase_one(run, params0):
    """Phase 1 on a copy of params0, one record per step; returns the Params
    at tau, before the kick.  Each step's one full-batch pass runs in epoch
    order; the next step's batch is a row slice of it, and its loss and a
    monitored step's ranks are taken in data order, bit for bit those of a
    data-order pass.  Training-mode batch norm couples the rows, so there a
    momentum-SGD minibatch gets a pass of its own."""
    spec, x, y, kind, base, work = run.spec, run.x, run.y, run.kind, run.base, run.work
    emit, monitored, tau, n = run.emit, run.monitored, run.cfg.tau, x.shape[0]
    params = params0.copy()
    w = params.flat
    full_batch = base.variant == "gd"
    own_pass = not full_batch and any(spec.bn_flags)
    rng_base = np.random.default_rng(base.seed)
    velocity = np.zeros_like(w)
    size = n if full_batch else base.minibatch
    inverse = slice(None)  # the pass's rows back in data order
    xs, ys = x, y  # the pass's rows: x[order], y[order] when permuted
    pos = n  # forces the initial epoch

    for t in range(tau + 1):
        if t:
            if own_pass:
                idx = order[pos : pos + size]
                batch, _, rows = _evaluate(params, x[idx], y[idx], kind, t, 1, work=work)
            else:
                batch, rows = _rows(trace, slice(pos, pos + size)), residual[pos : pos + size]
            pos += size
            g = backprop(params, batch, _mean_gradient(kind, rows), work=work)
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
        trace, loss, residual = _evaluate(params, xs, ys, kind, t, 1, work=work,
                                          order=inverse)
        if not t:
            run.log.loss_initial = run.log.best_loss = run.log.final_loss = loss
            continue
        rec = StepRecord(t=t, phase=1, loss=loss, grad_norm=gnorm)
        if monitored(t):
            # rank and kernel of the pass in data order
            full = _rows(trace, inverse)
            rec.feature_rank = numerical_rank(append_ones(full.hidden))
            rec.ntk_rank = _snapshot(params, full, t, 1, work=work).rank
        emit(rec)
    return params


def _at_tau(run, params):
    """The hand-off at tau from the perturbed `params`: statistics frozen
    from their pass, the pass under them, whose [h, 1] must have full row
    rank (else FeatureRankError naming step tau), L_H, the loss of [h, 1]
    params.head_block() and its gradient, and lazy L (lazy_lipschitz, else
    estimated); fills the log at tau.  The pass (its trace and residual)
    and run.work are kept only where phase 2 reads them: lazy_full, for
    the reference kernel and the first gradient, and a head mode with
    monitor_every > 0, whose monitored steps rank the kernel of this pass.
    Otherwise all three are dropped before [h, 1] is made and ranked, so
    the head phase holds only [h, 1] and the head; L_H is taken from the h
    of [h, 1], bit for bit the pass's."""
    spec, x, y, kind, cfg, work, log = run.spec, run.x, run.y, run.kind, run.cfg, run.work, run.log
    tau, n = cfg.tau, x.shape[0]
    # the passes at tau write into the workspace too: the statistics are
    # copies, head steps write only its kernel arrays, and lazy candidates
    # overwrite the pass only after the reference at tau is done with it
    frozen = (batch_statistics(forward_hidden(params, x, work=work))
              if any(spec.bn_flags) else None)
    trace, _, residual = _evaluate(params, x, y, kind, tau, 2, frozen, work=work)
    h = trace.hidden
    if cfg.phase2_mode != "lazy_full" and not run.monitor_every:
        trace = residual = work = run.work = None  # phase 2 reads no pass
    # [h, 1] is made, and h let go, before the rank check's Gram and
    # factorization, which then reuse the pass's memory
    aug = append_ones(h)
    del h
    feature_rank = numerical_rank(aug)
    if feature_rank < n:
        raise _feature_rank_error(run, aug, feature_rank)
    log.frozen_stats, log.params_at_tau = frozen, params.copy()
    log.l_h = compute_L_H(kind, aug[:, :-1])
    # the loss at tau is that of [h, 1] z, as at every head step (the pass's
    # h W + b can differ in the last bit), whose gradient head GD takes next
    loss, dpred = _loss(kind, _finite(aug @ params.head_block(), "predictions", tau, 2), y)
    log.loss_at_tau = _finite(loss, "loss", tau, 2)
    log.t_star, log.loss_at_t_star = tau, log.loss_at_tau
    lipschitz = cfg.lazy_lipschitz
    if cfg.phase2_mode == "lazy_full" and lipschitz is None:
        lipschitz = max(estimate_lipschitz(params, x, y, kind, frozen, seed=cfg.seed), 1e-12)
    return _AtTau(params, trace, residual, aug, feature_rank, dpred, lipschitz)


def _feature_rank_error(run, aug, feature_rank) -> FeatureRankError:
    """The error for features [h, 1] at tau of row rank `feature_rank` < n,
    built from what the run saw: the width test m_H + 1 >= n, phase 1's
    loss ratio (last over first) and the last-layer units inactive on every
    sample, those with s h < eps, which bounds their softplus derivative
    logistic(s z) <= s h.  It advises widening only when m_H + 1 < n, and a
    smaller learning rate when the loss rose, then names run.first_rise."""
    spec, log, n = run.spec, run.log, aug.shape[0]
    m_h = spec.widths[-1]
    first, last = log.loss_initial, log.final_loss
    ratio = last / first if first > 0 else (math.inf if last > 0 else 1.0)
    inactive = int(np.count_nonzero(np.all(spec.sharpness * aug[:, :-1] < EPS, axis=0)))
    if m_h + 1 < n:
        advice = f"widen the last hidden layer (m_H + 1 = {m_h + 1} < n)"
    elif ratio > 1.0:
        advice = (f"m_H + 1 = {m_h + 1} >= n, and the loss rose in phase 1: "
                  "try a smaller learning rate")
    else:
        advice = (f"m_H + 1 = {m_h + 1} >= n, so phase 1 collapsed them: "
                  "try another seed or a smaller sharpness")
    if run.first_rise is not None:
        advice += f" (the loss first exceeded its initial value at step {run.first_rise})"
    return FeatureRankError(
        f"step {log.tau} (phase 2): features [h, 1] after perturbation have rank "
        f"{feature_rank} < n = {n}; phase 1 ended at {ratio:.3g}x its initial loss, "
        f"and {inactive} of {m_h} last-layer units are inactive on every sample; {advice}")


def _head_phase(run, at_tau):
    """Phase 2 on the head alone over the features fixed at tau: GD at step
    1/L_H, or with-replacement minibatches at sgd_rate_scale / sqrt(t - tau),
    each step moving the head z = params.head_block(), a view into
    params.flat, in place and scoring [h, 1] z; a monitored step ranks the
    kernel of the tau pass at the current head.  Each record, with its
    squared gradient norm, goes to run.emit.  Returns the final Params."""
    x, y, kind, cfg, work, log = run.x, run.y, run.kind, run.cfg, run.work, run.log
    emit, monitored, tau, n = run.emit, run.monitored, cfg.tau, x.shape[0]
    params, trace, aug, dpred = at_tau.params, at_tau.trace, at_tau.aug, at_tau.dpred
    z = params.head_block()
    head_gd = cfg.phase2_mode == "last_layer_gd"
    l_h, scale, b = log.l_h, cfg.sgd_rate_scale, min(cfg.sgd_minibatch, n)
    rng = np.random.default_rng(run.seeds[1])
    for t in range(tau + 1, cfg.total_steps + 1):
        if head_gd:
            g = aug.T @ dpred
            z -= (1.0 / l_h) * g
        else:
            idx = rng.integers(0, n, size=b)
            g = aug[idx].T @ _loss(kind, aug[idx] @ z, y[idx])[1]
            z -= (scale / math.sqrt(t - tau)) * g
        gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
        pred = _finite(aug @ z, "predictions", t, 2)
        cur, dpred = _loss(kind, pred, y)
        cur = _finite(cur, "loss", t, 2)
        rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=math.sqrt(gsq))
        if monitored(t - tau):
            # only the head moved, so the tau pass is the features' pass
            rec.feature_rank = at_tau.feature_rank
            rec.ntk_rank = _snapshot(params, trace, t, 2, work=work).rank
        emit(rec, gsq)
    return params


def _lazy_phase(run, at_tau):
    """Phase 2 on every parameter at the uniform rate 2 eta_bar / L: each
    candidate is scored, then its kernel's verdict is made against the
    reference verdict at tau (ntk.compute_ntk), and the candidate is
    accepted iff that verdict's rank is at least the reference's; a
    rejected one halves eta_bar, up to LAZY_MAX_RETRIES times (then
    RankPreservationError); run.cert observes the reference and each
    accepted kernel, with its eta_bar, before its record is built.  Returns
    the final Params."""
    x, y, kind, cfg, work, log = run.x, run.y, run.kind, run.cfg, run.work, run.log
    emit, monitored, cert, tau = run.emit, run.monitored, run.cert, cfg.tau
    params, trace, lipschitz = at_tau.params, at_tau.trace, at_tau.lipschitz
    frozen, eta_bar, total = log.frozen_stats, cfg.lazy_eta_bar, cfg.total_steps
    # one pass per parameter point gives its kernel, loss, gradient and
    # distance; a rank test's factorization also certifies the rank at the
    # reference threshold.  The reference keeps a copy of its kernel, which
    # candidates overwrite in the workspace: the threshold's spectrum is
    # taken from it only if its bound does not settle a candidate's level
    # or a candidate's factorization fails
    bordered = cert is not None and cert.bordered
    kernel = _finite(compute_kernel(params, trace, work=work), "kernel", tau, 2)
    reference = compute_ntk(kernel.copy(), rhs=at_tau.residual.reshape(-1) if bordered else None,
                            work=work)
    g = backprop(params, trace, _mean_gradient(kind, at_tau.residual), work=work)
    if cert is not None:
        cert.observe(reference, trace.output, tau, eta_bar)
    # candidates are written into a second buffer, swapped in on acceptance
    cand = params.copy()
    for t in range(tau + 1, total + 1):
        gsq = _finite(float((g * g).sum()), "gradient norm", t, 2)
        event = None
        for _ in range(LAZY_MAX_RETRIES + 1):
            np.subtract(params.flat, (2.0 * eta_bar / lipschitz) * g, out=cand.flat)
            trace, cur, residual = _evaluate(cand, x, y, kind, t, 2, frozen, work=work)
            snap = _snapshot(cand, trace, t, 2, reference,
                             rhs=residual.reshape(-1) if bordered else None, work=work)
            if snap.rank >= reference.rank:
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
        if t < total:
            g = backprop(params, trace, _mean_gradient(kind, residual), work=work)
        if cert is not None:
            cert.observe(snap, trace.output, t, eta_bar)
        rec = StepRecord(t=t, phase=2, loss=cur, grad_norm=math.sqrt(gsq),
                         ntk_rank=snap.rank, rank_event=event)
        if monitored(t - tau):
            rec.feature_rank = numerical_rank(append_ones(trace.hidden))
        emit(rec, gsq)
    return params


@np.errstate(over="ignore", invalid="ignore")
def run_two_phase(params0: Params, dataset, base: BaseAlgoConfig, cfg: TwoPhaseConfig,
                  kind: LossKind, monitor_every: int = 0, record_sink=None,
                  bounds: bool = False):
    """Run both phases end to end; returns (final Params, TrainLog).

    Errors: ValueError before the first record unless params0.spec has two
    or more hidden layers, monitor_every >= 0, X is finite, Y holds valid
    targets of `kind`, one row of m_y per sample, a momentum-SGD minibatch
    fits in n, and cfg.noise_scale is one scale or one per hidden layer.
    Naming the step and phase: FeatureRankError if [h, 1] after the kick
    is not full row rank, RankPreservationError if lazy rate halving
    cannot restore the kernel rank within the retry cap, RankDeficientError
    if, with bounds on, the lazy kernel at tau is below full rank n * m_y, and
    FloatingPointError once predictions, the loss, the gradient norm or a
    tangent kernel are not finite (overflow warnings are silenced).

    Records: exactly cfg.total_steps, one per update, each stamped with its
    wall_time from the start of phase 1 as it is emitted.  Every
    `monitor_every` steps of a phase (0: never) a record also carries the
    feature rank and the kernel rank, a lazy step's that of the verdict its
    rank test accepted; a phase-1 kernel under training-mode BN holds the
    batch statistics constant, as the lazy phase's frozen ones are.  With
    `bounds`, each phase-2 record gets its ceiling and suboptimality (None
    if the optimum is not attained) as it is emitted, before the sink sees
    it, and log.constants and log.violations report the certificate
    (bounds.Certificate).  Phase 2 steps the perturbed Params in place,
    the head through head_block().

    Sink: each record goes to `record_sink` if one is given, else to
    log.records, so a run with a sink keeps no per-step state; the log's
    running numbers (TrainLog) and certificate are kept either way.
    """
    run = _Run(params0.spec, dataset, base, cfg, kind, monitor_every, record_sink)
    params = perturb(_phase_one(run, params0), cfg.noise_scale, run.seeds[0])
    log = run.log
    if cfg.tau == cfg.total_steps:
        log.loss_at_tau = _evaluate(params, run.x, run.y, kind, cfg.tau, 2, work=run.work)[1]
        log.t_star, log.loss_at_t_star = cfg.tau, log.loss_at_tau
        return params, log
    at_tau = _at_tau(run, params)
    if bounds:
        run.cert = Certificate(cfg, kind, run.y, at_tau.aug, log.params_at_tau.head_block(),
                               log.l_h, log.loss_at_tau, at_tau.lipschitz)
    phase_two = _lazy_phase if cfg.phase2_mode == "lazy_full" else _head_phase
    params = phase_two(run, at_tau)
    if bounds:
        log.constants, log.violations = run.cert.constants, run.cert.violations
    return params, log
