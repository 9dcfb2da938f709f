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
against the Jacobian-linearized problem.  Both are one closed-form solve on
a linear map ([h, 1] for the head, the Jacobian J for Rbar, because
J (nu o w) = f(w)), and both need that map to have full row rank, else
RankDeficientError: squared loss interpolates Y, and cross-entropy matches
log Y up to one constant per sample, which is exact for soft targets.  A
cross-entropy target with a zero entry (one-hot) has an infimum, the mean
entropy, that no finite point attains, so the distance is inf and a bound
built on it is vacuous.  Nothing here iterates.  The lazy bound uses an
empirical Lipschitz estimate, which is a lower bound on the true constant,
so reports built from it are diagnostics rather than certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RankDeficientError, append_ones, min_norm_solve, numerical_rank
from .losses import LossKind, check_targets, loss_value
from .network import forward_hidden
from .trainer import TrainLog, nu_mask, perturb

__all__ = [
    "LastLayerOptimum",
    "BoundConstants",
    "BoundEntry",
    "BoundReport",
    "loss_infimum",
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
    residual: float           # of the constraints solved; inf if not attained
    steps: int = 0            # always 0: the optimum is never iterated for


def _anchor_matrix(anchor, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(anchor, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(rows, cols, order="F")
    if a.shape != (rows, cols):
        raise ValueError(f"anchor has shape {a.shape}, expected {(rows, cols)}")
    return a


def loss_infimum(kind: LossKind, y) -> float:
    """Infimum of the loss over all predictions: 0 for squared loss, and for
    cross-entropy the mean row entropy of the targets, with 0 log 0 = 0."""
    y = check_targets(kind, y)
    if kind.name == "squared":
        return 0.0
    total = (y * np.log(np.where(y > 0.0, y, 1.0))).sum()
    return float(-total / y.shape[0]) + 0.0  # + 0.0: one-hot gives 0.0, not -0.0


def _nearest_minimizer(kind: LossKind, m, y, anchor):
    """Point nearest `anchor` among the w that minimize the loss of the linear
    predictions M w, or None if no point attains the infimum.

    M has one row per sample ([h, 1] acting on an (m_H + 1) x m_y head) or
    one row per (sample, output) pair, sample-major (a Jacobian acting on a
    column w), and must have full row rank, else RankDeficientError; for
    squared loss min_norm_solve tests that itself.  Squared loss solves
    M w = Y.  Cross-entropy tests the rank before anything else, because only
    with full row rank does a zero target (one-hot) imply that the infimum is
    unattained.  Soft targets are met by the w with M w = log Y plus one
    constant per sample; projecting each sample's m_y rows onto an orthonormal
    basis of the directions orthogonal to the ones vector removes those
    constants and leaves n (m_y - 1) independent rows for one min-norm solve.
    Gradient descent from the anchor converges to the same point, because its
    steps never move the per-sample means of the predictions.
    """
    n, m_y = y.shape
    if kind.name == "squared":
        return min_norm_solve(m, y.reshape(m.shape[0], -1), anchor)
    rank = numerical_rank(m)
    if rank < m.shape[0]:
        raise RankDeficientError(
            f"M has numerical rank {rank} < {m.shape[0]} rows; the nearest "
            "cross-entropy minimizer is not determined"
        )
    if np.any(y <= 0.0):
        return None
    if m_y == 1:  # every w predicts softmax = 1 = y
        return anchor.copy()
    jac = np.kron(m, np.eye(m_y)) if m.shape[0] == n else m
    basis = np.linalg.svd(np.ones((1, m_y)))[2][1:]  # (m_y - 1) x m_y
    rows = np.einsum("cj,ijd->icd", basis, jac.reshape(n, m_y, -1))
    target = np.log(y) @ basis.T
    w = min_norm_solve(rows.reshape(n * (m_y - 1), -1), target.reshape(-1, 1),
                       anchor.reshape(-1, 1))
    return w.reshape(anchor.shape)


def solve_last_layer_optimum(kind: LossKind, h, y, anchor_last) -> LastLayerOptimum:
    """Nearest head minimizer of the frozen-feature problem and its distance,
    in closed form (see _nearest_minimizer).

    [h, 1] must have full row rank, else RankDeficientError.  Squared loss
    interpolates Y; cross-entropy with soft targets reproduces Y through the
    softmax, at loss* = the mean entropy of Y.  A cross-entropy target with
    a zero entry gives r_squared = inf and head = None, because the infimum
    (the mean entropy, 0 for one-hot) is not attained.  `residual` is that of
    the constraints solved: ||[h, 1] Z - Y|| for squared loss, and for
    cross-entropy ||([h, 1] Z - log Y) P|| with P = I - 11^T / m_y.
    """
    h = np.asarray(h, dtype=np.float64)
    y = check_targets(kind, y)
    a = append_ones(h)
    anchor = _anchor_matrix(anchor_last, a.shape[1], y.shape[1])
    z = _nearest_minimizer(kind, a, y, anchor)
    if z is None:
        return LastLayerOptimum(head=None, loss_star=loss_infimum(kind, y),
                                r_squared=np.inf, residual=np.inf)
    pred = a @ z
    if kind.name == "squared":
        loss_star = loss_value(kind, pred, y)
        gap = pred - y
    else:
        loss_star = loss_infimum(kind, y)
        gap = pred - np.log(y)
        gap -= gap.mean(axis=1, keepdims=True)
    return LastLayerOptimum(
        head=z,
        loss_star=loss_star,
        r_squared=float(((z - anchor) ** 2).sum()),
        residual=float(np.linalg.norm(gap)),
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


def estimate_R_bar(trajectory, y, kind: LossKind) -> float:
    """Max over trajectory steps of the distance from the masked parameter
    vector to the nearest minimizer of the Jacobian-linearized problem.

    `trajectory` is a sequence of (Params, J) pairs.  Since J (nu o w) = f(w),
    the linearized predictions at w are J w, and the nearest minimizer comes
    from the same closed form as the head optimum (see _nearest_minimizer):
    J must have full row rank, else RankDeficientError; squared loss solves
    J w = vec(Y^T), soft cross-entropy targets match log Y up to one constant
    per sample, and a zero cross-entropy target gives inf (not attained).
    """
    y = check_targets(kind, y)
    worst = 0.0
    for params, jac in trajectory:
        anchor = (nu_mask(params) * params.flat).reshape(-1, 1)
        omega = _nearest_minimizer(kind, jac, y, anchor)
        if omega is None:
            return np.inf
        worst = max(worst, float(np.linalg.norm(anchor - omega)))
    return worst


# relative slack of the violation test: a step violates its ceiling b when
# the measured suboptimality exceeds b + SLACK_REL (1 + b)
SLACK_REL = 1e-9


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
    violated = measured > bounds + SLACK_REL * (1.0 + bounds)
    report.entries = [
        BoundEntry(t=t, bound=b, measured=m, slack=b - m, violated=v)
        for t, b, m, v in zip(steps.tolist(), bounds.tolist(), measured.tolist(),
                              violated.tolist())
    ]
    report.violations = int(violated.sum())
    return report
