"""Phase-2 rate-bound ceilings, the constants they need, and Certificate.

The three ceilings are pure arithmetic on constants fixed at tau and
quantities that run from tau up to the step; each lives in one function of
one step, which Certificate.check calls on each phase-2 record:

* head gradient descent:   R^2 L_H / (2 (t - tau))
* head SGD:                (R^2 + G^2 sum eta_k^2) / (2 sum eta_k), sums over
                           k = tau..t
* lazy full-parameter:     sqrt(L Rbar^2 (loss_tau - loss_star)
                                / (2 eta_bar (1 - eta_bar))) / sqrt(t - tau + 1)

R^2 is the squared distance from the post-perturbation head to the nearest
head minimizer of the frozen-feature problem, one closed-form solve on [h, 1],
which must have full row rank, else RankDeficientError.  Rbar is the max over
tau and every phase-2 step up to t of the distance from nu o w to the nearest
minimizer of the Jacobian-linearized problem; because J (nu o w) = f(w), that
distance comes from the step's kernel K = J J^T and predictions alone, so a
Certificate keeps Rbar as a running max and no Jacobian is stored.  Under
squared loss each distance comes from the Cholesky factorization that
certified the kernel's rank, bordered by the residual, and is an upper bound
(K shifted down by a multiple of its rank threshold), so Rbar is one too.
Squared loss interpolates Y, and cross-entropy matches log Y up to one
constant per sample, which is exact for soft targets.  A cross-entropy target
with a zero entry (one-hot) has an infimum, the mean entropy, that no finite
point attains, so the distance is inf and a bound built on it is vacuous.
Nothing here iterates.  The lazy bound uses an empirical Lipschitz estimate,
a lower bound on the true constant, so ceilings built from it are diagnostics
rather than certificates; its eta_bar is the rate the step was taken at,
after any halving a rank event made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RankDeficientError, append_ones, min_norm_solve, numerical_rank
from .losses import LossKind, check_targets, loss_value

__all__ = [
    "Certificate",
    "LastLayerOptimum",
    "loss_infimum",
    "solve_last_layer_optimum",
    "gd_bound",
    "sgd_bound",
    "lazy_bound",
]


@dataclass
class LastLayerOptimum:
    head: np.ndarray | None   # (m_H + 1) x m_y stacked [W; b]; None if not attained
    loss_star: float
    r_squared: float
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
    in closed form: the rank of [h, 1] from linalg.certified_rank, and one
    SVD of [h, 1] where a solve needs its pseudo-inverse.

    [h, 1] must have full row rank, else RankDeficientError: only then does
    a zero cross-entropy target imply that the infimum is unattained.
    Squared loss interpolates Y: [h, 1] Z = Y.  Cross-entropy with soft
    targets reproduces Y through the softmax, at loss* = the mean entropy of
    Y, for the Z with [h, 1] Z = log Y plus one constant per sample; since
    pinv([h, 1])^T pinv([h, 1]) acts on the sample index only, the nearest
    such Z centres each row of G = log Y - [h, 1] anchor:
    Z = anchor + pinv([h, 1]) G (I - 11^T / m_y).  Gradient descent from the
    anchor converges to the same head, because its steps never move the
    per-sample means of the predictions.  A cross-entropy target with a zero
    entry gives r_squared = inf and head = None: the infimum (the mean
    entropy, 0 for one-hot) is not attained.
    """
    h = np.asarray(h, dtype=np.float64)
    y = check_targets(kind, y)
    a = append_ones(h)
    n, m_y = y.shape
    anchor = np.asarray(anchor_last, dtype=np.float64)
    if anchor.shape != (a.shape[1], m_y):
        raise ValueError(f"anchor has shape {anchor.shape}, expected {(a.shape[1], m_y)}")
    if kind.name == "squared":
        z = min_norm_solve(a, y, anchor)
        loss_star = loss_value(kind, a @ z, y)
    else:
        loss_star = loss_infimum(kind, y)
        if m_y > 1 and np.all(y > 0.0):
            log_y = np.log(y)
            g = log_y - a @ anchor
            z = min_norm_solve(a, log_y - g.mean(axis=1, keepdims=True), anchor)
        else:
            rank = numerical_rank(a)
            if rank < n:
                raise RankDeficientError(
                    f"M has numerical rank {rank} < {n} rows; the nearest "
                    "cross-entropy minimizer is not determined"
                )
            if m_y > 1:
                return LastLayerOptimum(head=None, loss_star=loss_star, r_squared=np.inf)
            z = anchor.copy()  # every head predicts softmax = 1 = y
    return LastLayerOptimum(head=z, loss_star=loss_star,
                            r_squared=float(((z - anchor) ** 2).sum()))


def gd_bound(r_squared: float, l_h: float, t: int, tau: int) -> float:
    """Suboptimality ceiling at step t for exact head GD at step 1/L_H."""
    if t <= tau:
        raise ValueError(f"bound defined for t > tau, got t={t}, tau={tau}")
    return r_squared * l_h / (2.0 * (t - tau))


def sgd_bound(r_squared: float, g_squared: float, eta_sum: float, eta_sq_sum: float) -> float:
    """Expected-suboptimality ceiling at the running argmin for head SGD, from
    the sums of eta_k and eta_k^2 over k = tau..t."""
    if not eta_sum > 0.0:
        raise ValueError(f"step sizes must sum to a positive value, got {eta_sum}")
    return (r_squared + g_squared * eta_sq_sum) / (2.0 * eta_sum)


def lazy_bound(l_estimate: float, r_bar: float, loss_tau: float, loss_star: float,
               eta_bar: float, t: int, tau: int) -> float:
    """Suboptimality ceiling at the running argmin at step t of the
    uniform-rate phase."""
    if not 0.0 < eta_bar < 1.0:
        raise ValueError(f"eta_bar must lie in (0, 1), got {eta_bar}")
    if t < tau:
        raise ValueError(f"bound defined for t >= tau, got t={t}, tau={tau}")
    gap = max(loss_tau - loss_star, 0.0)
    inner = l_estimate * r_bar * r_bar * gap / (2.0 * eta_bar * (1.0 - eta_bar))
    return math.sqrt(inner) / math.sqrt(t - tau + 1.0)


def _linearized_distance(snap, predictions, y, kind: LossKind, basis) -> float:
    """Distance at one step from nu o w to the nearest minimizer of the
    Jacobian-linearized problem, from the verdict `snap` that
    ntk.compute_ntk made of that step's kernel K = J J^T (rows
    sample-major), its predictions f(w) and the checked targets y, n x m_y;
    Rbar is the max of this over tau and every phase-2 step, which a
    Certificate keeps as it goes.

    Since J (nu o w) = f(w), the nearest minimizer lies J^+ r away, r the
    residual of the constraints at nu o w, and ||J^+ r||^2 = r^T K^{-1} r.
    K must have full rank n m_y, as the verdict measured it (eigenvalues
    above rows * eps * the largest), else RankDeficientError.  Squared loss
    has r = vec(f - Y) (the sign does not matter).  A verdict that
    compute_ntk factored bordered by that r (its `rhs`) gives the distance
    from the factorization that certified its rank: its `rhs_norm`,
    sqrt(r^T (K - c m I)^{-1} r), an upper bound, and so is Rbar, which the
    lazy ceiling grows with; any other verdict takes one exact solve of K,
    as does cross-entropy.  Soft cross-entropy targets are met up to one
    constant per sample, so each sample's outputs are projected by the
    orthonormal basis = _centering_basis(m_y) of the directions orthogonal
    to the ones vector: r = basis vec(log Y - f), solved against
    basis K basis^T (squared loss does not read it, and takes None).  A
    zero cross-entropy target gives inf (not attained), and a single output
    gives 0.
    """
    if snap.rank < snap.size:
        raise RankDeficientError(
            f"kernel has numerical rank {snap.rank} < {snap.size} rows; the "
            "nearest linearized minimizer is not determined"
        )
    n, m_y = y.shape
    k = snap.matrix
    if kind.name == "squared":
        resid = (predictions - y).reshape(-1)
        if snap.rhs is not None and np.array_equal(snap.rhs, resid):
            return snap.rhs_norm
    elif np.any(y <= 0.0):
        return np.inf
    elif m_y == 1:  # every w predicts softmax = 1 = y
        return 0.0
    else:
        resid = ((np.log(y) - predictions) @ basis.T).reshape(-1)
        k = np.einsum("ck,ikjl,dl->icjd", basis, k.reshape(n, m_y, n, m_y), basis)
        k = k.reshape(resid.size, resid.size)
    return float(np.sqrt(max(resid @ np.linalg.solve(k, resid), 0.0)))


def _centering_basis(m_y: int) -> np.ndarray:
    """B, (m_y - 1) x m_y: an orthonormal basis of the directions orthogonal
    to the ones vector."""
    return np.linalg.svd(np.ones((1, m_y)))[2][1:]


# relative slack of the violation test: a step violates its ceiling b when
# the measured suboptimality exceeds b + SLACK_REL (1 + b)
SLACK_REL = 1e-9

# a certificate's status by phase-2 mode, where the optimum is attained
_STATUS = {"last_layer_gd": "exact", "last_layer_sgd": "expectation", "lazy_full": "estimated"}


class Certificate:
    """A run's certificate, made at tau with bounds on: loss*, the head's R^2
    or the lazy phase's running Rbar (the max linearized distance over the
    kernels so far, an upper bound when `bordered`), head SGD's step-size
    sums, the running G^2 and the status: `exact` for head GD, `expectation`
    for head SGD, whose ceiling bounds the expected suboptimality,
    `estimated` for the lazy phase, whose L is an empirical lower bound (its
    eta_bar is the rate of the last step observed), and `vacuous` where R^2
    or Rbar is inf.  violations counts the steps above an exact ceiling.  It
    takes the run's TwoPhaseConfig, its checked targets y of `kind`, and at
    tau [h, 1], the head, L_H, the loss and the lazy phase's L."""

    def __init__(self, cfg, kind: LossKind, y, aug, head, l_h: float, loss_tau: float,
                 lipschitz: float | None):
        self.cfg, self.kind, self.y = cfg, kind, y
        self.l_h, self.loss_tau, self.g_squared = l_h, loss_tau, 0.0
        self.lazy = cfg.phase2_mode == "lazy_full"
        self.bordered = kind.name == "squared"
        if self.lazy:
            self.loss_star = loss_infimum(kind, y)
            self.basis = None if self.bordered else _centering_basis(y.shape[1])
            self.lipschitz, self.r_bar, self.eta_bar = lipschitz, 0.0, cfg.lazy_eta_bar
        else:
            opt = solve_last_layer_optimum(kind, aug[:, :-1], y, head)
            self.r_squared, self.loss_star = opt.r_squared, opt.loss_star
            # sums of the ceiling's schedule eta_k = scale / sqrt(k - tau + 1)
            self.eta_sum = cfg.sgd_rate_scale
            self.eta_sq_sum = cfg.sgd_rate_scale * cfg.sgd_rate_scale
        self.violations = 0 if cfg.phase2_mode == "last_layer_gd" and self.attained else None

    @property
    def attained(self) -> bool:
        return math.isfinite(self.r_bar if self.lazy else self.r_squared)

    def observe(self, snap, predictions, t, eta_bar):
        """Fold the distance at the kernel `snap` of step t's pass, whose
        outputs are `predictions`, into Rbar, and keep `eta_bar`, the rate
        the step was taken at, for the lazy ceilings that follow;
        RankDeficientError naming the step unless its rank is n * m_y,
        which after tau an accepted verdict has if the reference has: its
        rank >= reference.rank."""
        try:
            distance = _linearized_distance(snap, predictions, self.y, self.kind, self.basis)
        except RankDeficientError as exc:
            raise RankDeficientError(f"step {t} (phase 2): {exc}") from None
        self.r_bar, self.eta_bar = max(self.r_bar, distance), eta_bar

    def check(self, rec, best_loss, g_squared):
        """Take g_squared, the largest squared phase-2 gradient norm so far,
        as G^2; then set rec's ceiling and suboptimality if the optimum is
        attained: head GD's at rec.loss, the others' at `best_loss`, the
        running minimum from tau on; count a step above an exact ceiling."""
        self.g_squared = g_squared
        if not self.attained:
            return
        cfg, t, reached = self.cfg, rec.t, best_loss
        if cfg.phase2_mode == "last_layer_gd":
            ceiling, reached = gd_bound(self.r_squared, self.l_h, t, cfg.tau), rec.loss
        elif cfg.phase2_mode == "last_layer_sgd":
            eta = cfg.sgd_rate_scale / math.sqrt(t - cfg.tau + 1)
            self.eta_sum += eta
            self.eta_sq_sum += eta * eta
            ceiling = sgd_bound(self.r_squared, g_squared, self.eta_sum, self.eta_sq_sum)
        else:
            ceiling = lazy_bound(self.lipschitz, self.r_bar, self.loss_tau, self.loss_star,
                                 self.eta_bar, t, cfg.tau)
        rec.bound, rec.suboptimality = ceiling, reached - self.loss_star
        exceeded = rec.suboptimality > ceiling + SLACK_REL * (1.0 + ceiling)
        if exceeded and self.violations is not None:
            self.violations += 1

    @property
    def constants(self) -> dict:
        """The constants and the status, as summary.json reports them."""
        if self.lazy:
            out = {"l_estimate": self.lipschitz, "diagnostic": True,
                   "r_bar": self.r_bar if self.attained else None,
                   "r_bar_kind": "upper_bound" if self.bordered else "exact"}
        else:
            out = {"g_squared": self.g_squared,
                   "r_squared": self.r_squared if self.attained else None}
        out["loss_star"] = self.loss_star
        out["certificate"] = _STATUS[self.cfg.phase2_mode] if self.attained else "vacuous"
        return out
