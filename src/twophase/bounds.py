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
head minimizer of the frozen-feature problem, one closed-form solve on [h, 1],
which must have full row rank, else RankDeficientError.  Rbar is the max over
tau and every phase-2 step of the distance from nu o w_t to the nearest
minimizer of the Jacobian-linearized problem; because J (nu o w) = f(w), that
distance comes from the step's kernel K = J J^T and predictions alone, so the
trainer keeps Rbar as a running max and no Jacobian is stored.  Squared loss
interpolates Y, and cross-entropy matches log Y up to one constant per
sample, which is exact for soft targets.  A cross-entropy target with a zero
entry (one-hot) has an infimum, the mean entropy, that no finite point
attains, so the distance is inf and a bound built on it is vacuous.  Nothing
here iterates.  The lazy bound uses an empirical Lipschitz estimate, which is
a lower bound on the true constant, so reports built from it are diagnostics
rather than certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RankDeficientError, append_ones, min_norm_solve, numerical_rank
from .losses import LossKind, check_targets, loss_value

__all__ = [
    "LastLayerOptimum",
    "BoundConstants",
    "BoundEntry",
    "BoundReport",
    "loss_infimum",
    "solve_last_layer_optimum",
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


def loss_infimum(kind: LossKind, y) -> float:
    """Infimum of the loss over all predictions: 0 for squared loss, and for
    cross-entropy the mean row entropy of the targets, with 0 log 0 = 0."""
    y = check_targets(kind, y)
    if kind.name == "squared":
        return 0.0
    total = (y * np.log(np.where(y > 0.0, y, 1.0))).sum()
    return float(-total / y.shape[0]) + 0.0  # + 0.0: one-hot gives 0.0, not -0.0


def solve_last_layer_optimum(kind: LossKind, h, y, anchor_last) -> LastLayerOptimum:
    """Nearest head minimizer of the frozen-feature problem and its distance,
    in closed form.

    [h, 1] must have full row rank, else RankDeficientError; for squared loss
    min_norm_solve tests that itself, and cross-entropy tests it first,
    because only with full row rank does a zero target imply that the
    infimum is unattained.  Squared loss interpolates Y: [h, 1] Z = Y.
    Cross-entropy with soft targets reproduces Y through the softmax, at
    loss* = the mean entropy of Y, for the Z with [h, 1] Z = log Y plus one
    constant per sample; projecting each sample's outputs onto an orthonormal
    basis B of the directions orthogonal to the ones vector removes those
    constants and leaves n (m_y - 1) independent rows for one min-norm solve.
    Gradient descent from the anchor converges to the same head, because its
    steps never move the per-sample means of the predictions.  A
    cross-entropy target with a zero entry gives r_squared = inf and
    head = None, because the infimum (the mean entropy, 0 for one-hot) is not
    attained.  `residual` is that of the constraints solved: ||[h, 1] Z - Y||
    for squared loss, and for cross-entropy ||([h, 1] Z - log Y) P|| with
    P = I - 11^T / m_y.
    """
    h = np.asarray(h, dtype=np.float64)
    y = check_targets(kind, y)
    a = append_ones(h)
    n, m_y = y.shape
    anchor = np.asarray(anchor_last, dtype=np.float64)
    if anchor.ndim == 1:  # the flat head, column-major [W; b]
        anchor = anchor.reshape(a.shape[1], m_y, order="F")
    if anchor.shape != (a.shape[1], m_y):
        raise ValueError(f"anchor has shape {anchor.shape}, expected {(a.shape[1], m_y)}")
    if kind.name == "squared":
        z = min_norm_solve(a, y, anchor)
        pred = a @ z
        loss_star, gap = loss_value(kind, pred, y), pred - y
    else:
        rank = numerical_rank(a)
        if rank < n:
            raise RankDeficientError(
                f"M has numerical rank {rank} < {n} rows; the nearest "
                "cross-entropy minimizer is not determined"
            )
        loss_star = loss_infimum(kind, y)
        if np.any(y <= 0.0):
            return LastLayerOptimum(head=None, loss_star=loss_star,
                                    r_squared=np.inf, residual=np.inf)
        if m_y == 1:  # every head predicts softmax = 1 = y
            z = anchor.copy()
        else:
            basis = np.linalg.svd(np.ones((1, m_y)))[2][1:]  # B, (m_y - 1) x m_y
            z = min_norm_solve(np.kron(a, basis), (np.log(y) @ basis.T).reshape(-1, 1),
                               anchor.reshape(-1, 1)).reshape(anchor.shape)
        gap = a @ z - np.log(y)
        gap -= gap.mean(axis=1, keepdims=True)
    return LastLayerOptimum(
        head=z,
        loss_star=loss_star,
        r_squared=float(((z - anchor) ** 2).sum()),
        residual=float(np.linalg.norm(gap)),
    )


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


def estimate_R_bar(snap, predictions, y, kind: LossKind) -> float:
    """Distance at one step from nu o w to the nearest minimizer of the
    Jacobian-linearized problem, from that step's ntk.NtkSnapshot (kernel
    K = J J^T, rows sample-major) and its predictions f(w); Rbar is the max
    of this over tau and every phase-2 step, which run_two_phase keeps as it
    goes.

    Since J (nu o w) = f(w), the nearest minimizer lies J^+ r away, r the
    residual of the constraints at nu o w, and ||J^+ r||^2 = r^T K^{-1} r is
    one solve of K.  K must have full rank n m_y, as the snapshot measured
    it (by default eigenvalues above rows * eps * the largest), else
    RankDeficientError.  Squared loss has r = vec(Y - f).  Soft cross-entropy
    targets are met up to one constant per sample, so each sample's outputs
    are projected by B as in solve_last_layer_optimum: r = B vec(log Y - f),
    solved against B K B^T.  A zero cross-entropy target gives inf (not
    attained), and a single output gives 0.
    """
    y = check_targets(kind, y)
    n, m_y = y.shape
    rows = n * m_y
    if snap.rows != rows:
        raise ValueError(f"kernel has {snap.rows} rows, targets need {rows}")
    if snap.rank < rows:
        raise RankDeficientError(
            f"kernel has numerical rank {snap.rank} < {rows} rows; the nearest "
            "linearized minimizer is not determined"
        )
    k = snap.kernel
    if kind.name == "squared":
        resid = (y - predictions).reshape(-1)
    elif np.any(y <= 0.0):
        return np.inf
    elif m_y == 1:  # every w predicts softmax = 1 = y
        return 0.0
    else:
        basis = np.linalg.svd(np.ones((1, m_y)))[2][1:]
        resid = ((np.log(y) - predictions) @ basis.T).reshape(-1)
        k = np.einsum("ck,ikjl,dl->icjd", basis, k.reshape(n, m_y, n, m_y), basis)
        k = k.reshape(resid.size, resid.size)
    return float(np.sqrt(max(resid @ np.linalg.solve(k, resid), 0.0)))


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


def check_bounds(log, constants: BoundConstants) -> BoundReport:
    """Evaluate the mode's bound against the measured suboptimality of each
    phase-2 step of `log`, a trainer.TrainLog.

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
