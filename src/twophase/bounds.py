"""Rate-bound evaluators for the second phase, and the constants they need.

The three bound formulas are pure arithmetic, and each lives in one
function (gd_bound, sgd_bound, lazy_bound) that takes one step t or an array
of steps and returns one ceiling per step (a NumPy float for one step):

* head gradient descent:   R^2 L_H / (2 (t - tau))
* head SGD:                (R^2 + G^2 sum eta_k^2) / (2 sum eta_k), sums over
                           k = tau..t as sequential prefix sums
* lazy full-parameter:     sqrt(L Rbar^2 (loss_tau - loss_star)
                                / (2 eta_bar (1 - eta_bar))) / sqrt(t - tau + 1)

check_bounds calls its mode's function once over all phase-2 steps and only
compares the ceilings with the measured suboptimality.

R^2 is the squared distance from the post-perturbation head to the nearest
head minimizer of the frozen-feature problem; Rbar does the same per step
against the Jacobian-linearized problem.  Both come from one min-norm solve
whenever the features (or the Jacobian) have full row rank: squared loss
interpolates Y, and cross-entropy matches log Y up to one constant per
sample, which is exact for soft targets.  A cross-entropy target with a zero
entry (one-hot) has an infimum, the mean entropy, that no finite head
attains, so the distance is inf and a bound built on it is vacuous.  Only
rank-deficient cross-entropy problems fall back to gradient descent, whose
result is an estimate.  The lazy bound uses an empirical Lipschitz estimate,
which is a lower bound on the true constant, so reports built from it are
diagnostics rather than certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import append_ones, min_norm_solve, numerical_rank
from .losses import LossKind, check_targets, loss_grad, loss_value
from .network import forward_hidden
from .trainer import TrainLog, compute_L_H, nu_mask, perturb

__all__ = [
    "LastLayerOptimum",
    "BoundConstants",
    "BoundEntry",
    "BoundReport",
    "solve_last_layer_optimum",
    "r_squared_expectation",
    "gd_bound",
    "sgd_bound",
    "inv_sqrt_schedule",
    "lazy_bound",
    "estimate_R_bar",
    "check_bounds",
]


@dataclass
class LastLayerOptimum:
    head: np.ndarray | None   # (m_H + 1) x m_y stacked [W; b]; None if not attained
    loss_star: float
    r_squared: float
    approximate: bool
    residual: float
    grad_norm: float = 0.0
    steps: int = 0


def _anchor_matrix(anchor, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(anchor, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(rows, cols, order="F")
    if a.shape != (rows, cols):
        raise ValueError(f"anchor has shape {a.shape}, expected {(rows, cols)}")
    return a


def _mean_entropy(y: np.ndarray) -> float:
    """Mean row entropy of the targets, with 0 log 0 = 0: the cross-entropy
    infimum over all predictions."""
    total = (y * np.log(np.where(y > 0.0, y, 1.0))).sum()
    return float(-total / y.shape[0]) + 0.0  # + 0.0: one-hot gives 0.0, not -0.0


def _nearest_softmax_minimizer(jac, y, anchor):
    """Point nearest `anchor` among the w for which softmax((jac @ w) as an
    n x m_y matrix) = Y row by row, or None if Y has a zero entry.

    `jac` has one row per (sample, output) pair, sample-major, and full row
    rank.  The minimizers are the w with jac w = vec(log Y) plus one constant
    per sample.  Projecting each sample's m_y rows onto an orthonormal basis
    of the directions orthogonal to the ones vector removes those constants
    and leaves n (m_y - 1) independent rows, so one min-norm solve gives the
    point.  Gradient descent from the anchor converges to the same point,
    because its steps never move the per-sample means of the predictions.
    A zero target makes the infimum unattained: the iterates diverge.
    """
    n, m_y = y.shape
    if np.any(y <= 0.0):
        return None
    if m_y == 1:  # every w predicts softmax = 1 = y
        return anchor.copy()
    basis = np.linalg.svd(np.ones((1, m_y)))[2][1:]  # (m_y - 1) x m_y
    rows = np.einsum("cj,ijd->icd", basis, jac.reshape(n, m_y, -1))
    target = np.log(y) @ basis.T
    return min_norm_solve(rows.reshape(n * (m_y - 1), -1), target.reshape(-1, 1), anchor)


def solve_last_layer_optimum(kind: LossKind, h, y, anchor_last,
                             grad_tol: float = 1e-10,
                             max_steps: int = 1_000_000) -> LastLayerOptimum:
    """Nearest head minimizer of the frozen-feature problem and its distance.

    Squared loss: exact, via the minimum-distance interpolating solve (needs
    full row rank of [h, 1], which the solve enforces).  Cross-entropy with
    [h, 1] of full row rank: exact and without iteration (steps = 0); soft
    targets give the nearest head whose softmax reproduces Y, at loss* = the
    mean entropy of Y, and a target with a zero entry gives r_squared = inf
    and head = None, because the infimum (the mean entropy, 0 for one-hot)
    is not attained.  Cross-entropy with rank-deficient features: gradient
    descent at step 1/L_H from the anchor until the gradient norm drops
    below grad_tol or max_steps, returned with approximate=True.
    """
    h = np.asarray(h, dtype=np.float64)
    y = check_targets(kind, y)
    a = append_ones(h)
    anchor = _anchor_matrix(anchor_last, a.shape[1], y.shape[1])
    if kind.name == "squared":
        z = min_norm_solve(a, y, anchor)
        residual = float(np.linalg.norm(a @ z - y))
        return LastLayerOptimum(
            head=z,
            loss_star=loss_value(kind, a @ z, y),
            r_squared=float(((z - anchor) ** 2).sum()),
            approximate=False,
            residual=residual,
        )
    if numerical_rank(a) == a.shape[0]:
        # row-major vec(Z) = kron(a, I) maps onto the sample-major predictions
        z = _nearest_softmax_minimizer(np.kron(a, np.eye(y.shape[1])), y,
                                       anchor.reshape(-1, 1))
        if z is None:
            return LastLayerOptimum(head=None, loss_star=_mean_entropy(y),
                                    r_squared=np.inf, approximate=False,
                                    residual=np.inf)
        z = z.reshape(anchor.shape)
        return LastLayerOptimum(
            head=z,
            loss_star=_mean_entropy(y),
            r_squared=float(((z - anchor) ** 2).sum()),
            approximate=False,
            residual=float(np.linalg.norm(a @ z - y)),
        )
    l_h = compute_L_H(kind, h)
    z = anchor.copy()
    gnorm = np.inf
    steps = 0
    for steps in range(1, max_steps + 1):
        g = a.T @ loss_grad(kind, a @ z, y)
        gnorm = float(np.linalg.norm(g))
        if gnorm < grad_tol:
            break
        z = z - g / l_h
    return LastLayerOptimum(
        head=z,
        loss_star=loss_value(kind, a @ z, y),
        r_squared=float(((z - anchor) ** 2).sum()),
        approximate=True,
        residual=float(np.linalg.norm(a @ z - y)),
        grad_norm=gnorm,
        steps=steps,
    )


def r_squared_expectation(spec, params_at_tau, sigma, x, y, kind: LossKind,
                          draws: int = 16, seed: int = 0):
    """Monte-Carlo average of R^2 over fresh hidden-layer perturbations.

    The head anchor does not depend on the noise, but the feature matrix
    (and with it the minimizer set) does; this averages the per-draw
    distances.  Returns (mean, per-draw array).
    """
    anchor = params_at_tau.head_block()
    children = np.random.SeedSequence(seed).spawn(draws)
    values = np.empty(draws)
    for i, child in enumerate(children):
        p = perturb(params_at_tau, sigma, child)
        h = forward_hidden(spec, p, x).hidden
        opt = solve_last_layer_optimum(kind, h, y, anchor)
        values[i] = opt.r_squared
    return float(values.mean()), values


def gd_bound(r_squared: float, l_h: float, t, tau: int):
    """Suboptimality ceiling for exact head GD at step 1/L_H, at step `t` or
    at each entry of an array of steps."""
    steps = np.asarray(t)
    if steps.min() <= tau:
        raise ValueError(f"bound defined for t > tau, got t={steps.min()}, tau={tau}")
    return r_squared * l_h / (2.0 * (steps - tau))


def inv_sqrt_schedule(scale: float, tau: int, t: int) -> np.ndarray:
    """eta_k = scale / sqrt(k - tau + 1) for k = tau..t inclusive."""
    if t < tau:
        raise ValueError("need t >= tau")
    return scale / np.sqrt(np.arange(1, t - tau + 2, dtype=np.float64))


def sgd_bound(r_squared: float, g_squared: float, eta_bars, t, tau: int):
    """Expected-suboptimality ceiling at the running argmin for head SGD, at
    step `t` or at each entry of an array of steps.

    `eta_bars` lists the step sizes for k = tau..max(t) inclusive.  The sums
    over [tau, t] are sequential prefix sums of that one schedule.
    """
    steps = np.asarray(t)
    if steps.min() < tau:
        raise ValueError(f"bound defined for t >= tau, got t={steps.min()}, tau={tau}")
    eta = np.asarray(eta_bars, dtype=np.float64)
    span = int(steps.max()) - tau + 1
    if eta.size != span:
        raise ValueError(f"schedule has {eta.size} entries, expected {span}")
    if np.any(eta < 0):
        raise ValueError("step sizes must be nonnegative")
    denom = 2.0 * np.cumsum(eta)[steps - tau]
    if np.any(denom == 0.0):
        raise ValueError("schedule sums to zero on [tau, t]")
    return (r_squared + g_squared * np.cumsum(eta * eta)[steps - tau]) / denom


def lazy_bound(l_estimate: float, r_bar: float, loss_tau: float, loss_star: float,
               eta_bar: float, t, tau: int):
    """Suboptimality ceiling at the running argmin for the uniform-rate phase,
    at step `t` or at each entry of an array of steps."""
    if not 0.0 < eta_bar < 1.0:
        raise ValueError(f"eta_bar must lie in (0, 1), got {eta_bar}")
    steps = np.asarray(t)
    if steps.min() < tau:
        raise ValueError(f"bound defined for t >= tau, got t={steps.min()}, tau={tau}")
    gap = max(loss_tau - loss_star, 0.0)
    inner = l_estimate * r_bar * r_bar * gap / (2.0 * eta_bar * (1.0 - eta_bar))
    return np.sqrt(inner) / np.sqrt(steps - tau + 1.0)


def estimate_R_bar(trajectory, y, kind: LossKind,
                   grad_tol: float = 1e-10, max_steps: int = 100_000) -> float:
    """Max over trajectory steps of the distance from the masked parameter
    vector to the nearest minimizer of the Jacobian-linearized problem.

    `trajectory` is a sequence of (Params, J) pairs.  Squared loss solves
    J w = vec(Y^T) nearest the masked anchor exactly and needs J full row
    rank.  Cross-entropy with J of full row rank takes the same closed form
    as the head optimum: exact for soft targets, and inf when a target is
    zero (the infimum is not attained).  Only a rank-deficient J runs convex
    gradient descent on the linearized problem from the anchor until the
    gradient norm drops below grad_tol or max_steps.
    """
    y = check_targets(kind, y)
    target = y.reshape(-1, 1)  # vec(Y^T): sample-major, matching Jacobian rows
    worst = 0.0
    for params, jac in trajectory:
        anchor = (nu_mask(params) * params.flat).reshape(-1, 1)
        if kind.name == "squared":
            omega = min_norm_solve(jac, target, anchor)
        elif numerical_rank(jac) == jac.shape[0]:
            omega = _nearest_softmax_minimizer(jac, y, anchor)
            if omega is None:
                return np.inf
        else:
            omega = _linearized_descent(jac, y, anchor, kind, grad_tol, max_steps)
        worst = max(worst, float(np.linalg.norm(anchor - omega)))
    return worst


def _linearized_descent(jac, y, anchor, kind, grad_tol, max_steps):
    n, m_y = y.shape
    smax = np.linalg.svd(jac, compute_uv=False)[0]
    step = 1.0 / (kind.lipschitz / n * smax * smax)
    omega = anchor.copy()
    for _ in range(max_steps):
        preds = (jac @ omega).reshape(n, m_y)
        g = jac.T @ loss_grad(kind, preds, y).reshape(-1, 1)
        if np.linalg.norm(g) < grad_tol:
            break
        omega = omega - step * g
    return omega


@dataclass
class BoundConstants:
    """Everything check_bounds needs; fields unused by the mode may stay None."""

    mode: str
    r_squared: float | None = None
    loss_star: float = 0.0
    l_h: float | None = None
    g_squared: float | None = None
    sgd_rate_scale: float | None = None
    l_estimate: float | None = None
    r_bar: float | None = None
    eta_bar: float | None = None
    slack_rel: float = 1e-9


@dataclass
class BoundEntry:
    t: int
    bound: float
    measured: float
    slack: float
    violated: bool


@dataclass
class BoundReport:
    entries: list = field(default_factory=list)
    violations: int = 0
    diagnostic: bool = False
    constants: dict = field(default_factory=dict)

    def bound_at(self, t: int) -> float:
        for e in self.entries:
            if e.t == t:
                return e.bound
        raise KeyError(f"no bound entry at t={t}")


def check_bounds(log: TrainLog, constants: BoundConstants) -> BoundReport:
    """Evaluate the mode's bound against measured suboptimality per step.

    One call of the mode's closed form (gd_bound, sgd_bound or lazy_bound)
    gives the ceilings at every phase-2 step; nothing here re-derives them.
    GD compares the per-step loss; SGD and lazy compare the running minimum
    from tau on, which is what their guarantees speak about.  Lazy reports
    are flagged diagnostic because the Lipschitz constant is an empirical
    lower bound.
    """
    if constants.mode != log.phase2_mode:
        raise ValueError(
            f"constants are for mode {constants.mode!r} but the log ran "
            f"{log.phase2_mode!r}"
        )
    phase2 = log.phase2_records()
    report = BoundReport(constants=dict(vars(constants)))
    if not phase2:
        return report
    tau = log.tau
    steps = np.array([rec.t for rec in phase2])
    losses = np.array([rec.loss for rec in phase2])
    running = np.minimum.accumulate(np.minimum(losses, log.loss_at_tau))
    if constants.mode == "last_layer_gd":
        if constants.r_squared is None or constants.l_h is None:
            raise ValueError("GD bound needs r_squared and l_h")
        bounds = gd_bound(constants.r_squared, constants.l_h, steps, tau)
        reached = losses
    elif constants.mode == "last_layer_sgd":
        if constants.r_squared is None or constants.g_squared is None \
                or constants.sgd_rate_scale is None:
            raise ValueError("SGD bound needs r_squared, g_squared, sgd_rate_scale")
        schedule = inv_sqrt_schedule(constants.sgd_rate_scale, tau, int(steps.max()))
        bounds = sgd_bound(constants.r_squared, constants.g_squared, schedule, steps, tau)
        reached = running
    elif constants.mode == "lazy_full":
        needed = (constants.l_estimate, constants.r_bar, constants.eta_bar)
        if any(v is None for v in needed):
            raise ValueError("lazy bound needs l_estimate, r_bar, eta_bar")
        report.diagnostic = True
        bounds = lazy_bound(constants.l_estimate, constants.r_bar, log.loss_at_tau,
                            constants.loss_star, constants.eta_bar, steps, tau)
        reached = running
    else:
        raise ValueError(f"unknown mode {constants.mode!r}")
    measured = reached - constants.loss_star
    violated = measured > bounds + constants.slack_rel * (1.0 + bounds)
    report.entries = [
        BoundEntry(t=t, bound=b, measured=m, slack=b - m, violated=v)
        for t, b, m, v in zip(steps.tolist(), bounds.tolist(), measured.tolist(),
                              violated.tolist())
    ]
    report.violations = int(violated.sum())
    return report
