"""Executable checks for the preconditions behind the training guarantees.

Three entry points:

* check_distinguishability -- the pairwise input margin min ||x_i||^2 - x_i.x_j.
* check_expressivity -- rank of the augmented feature matrix [h, 1] at given
  parameters, which certifies that the last-layer problem can interpolate.
* construct_witness -- explicit hidden parameters that make [h, 1] full row
  rank for any distinguishable dataset, built so the leading n x n feature
  block is strictly diagonally dominant.  expressivity_trials replays the
  same rank check over random Gaussian parameter draws; the fraction that
  pass is the probabilistic check (the CLI's verify reports it).

Every rank here is linalg.certified_rank's, the package's one rank rule: a
full rank proved by one Cholesky factorization of the Gram of [h, 1], or
counted from an SVD when that factorization fails; each report says which.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import append_ones, as_matrix, certified_rank
from .network import NetworkSpec, Params, forward_hidden, params_zero, random_params

__all__ = [
    "DistinguishabilityReport",
    "ExpressivityReport",
    "WitnessConstructionError",
    "check_distinguishability",
    "check_expressivity",
    "construct_witness",
    "expressivity_trials",
]


DISTINGUISHABILITY_TOL = 1e-9  # the least margin of distinguishable inputs, exclusive
WITNESS_MAX_DOUBLINGS = 60  # of construct_witness's scale, from 1


class WitnessConstructionError(RuntimeError):
    """Doubling search for the witness scale hit its cap before dominance."""


@dataclass
class DistinguishabilityReport:
    passed: bool
    margin: float
    violating_pair: tuple | None


@dataclass
class ExpressivityReport:
    rank: int
    n: int
    passed: bool
    proved: bool  # the rank was proved by a factorization, not counted from an SVD


def check_distinguishability(x) -> DistinguishabilityReport:
    """Exact pairwise margin c = min_{i != j} ||x_i||^2 - x_i . x_j; the
    inputs pass when c exceeds DISTINGUISHABILITY_TOL."""
    x = as_matrix(x, "X")
    n = x.shape[0]
    if n < 2:
        raise ValueError("distinguishability needs at least two samples")
    g = x @ x.T
    vals = np.diag(g)[:, None] - g
    np.fill_diagonal(vals, np.inf)
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    margin = float(vals[idx])
    passed = margin > DISTINGUISHABILITY_TOL
    return DistinguishabilityReport(
        passed=passed,
        margin=margin,
        violating_pair=None if passed else (int(idx[0]), int(idx[1])),
    )


def check_expressivity(params: Params, x) -> ExpressivityReport:
    """Rank of [h, 1] against n, by certified_rank; full row rank makes
    interpolation possible."""
    a = append_ones(forward_hidden(params, x).hidden)
    n = a.shape[0]
    verdict = certified_rank(a)
    return ExpressivityReport(rank=verdict.rank, n=n, passed=verdict.rank == n,
                              proved=verdict.proved)


def dominance_margins(h: np.ndarray, n: int) -> np.ndarray:
    """Per-row slack |h_ii| - sum_{k != i} |h_ik| of the leading n x n block."""
    sub = np.abs(h[:n, :n])
    return 2.0 * np.diag(sub) - sub.sum(axis=1)


def _wide_witness(spec: NetworkSpec, x: np.ndarray, alpha: float, c: float) -> Params:
    n = x.shape[0]
    p = params_zero(spec)
    sq = (x * x).sum(axis=1)
    p.weights[0][:, :n] = alpha * x.T
    p.biases[0][0, :n] = alpha * (c / 2.0 - sq)
    for l in range(1, spec.depth):
        w = p.weights[l]
        w[:n, :n] = alpha * np.eye(n)
        p.biases[l][0, :n] = -alpha
    return p


def _narrow_witness(spec: NetworkSpec, x: np.ndarray, alpha: float, c: float) -> Params:
    n, m_x = x.shape
    p = params_zero(spec)
    p.weights[0][:m_x, :m_x] = np.eye(m_x)
    p.biases[0][0, :m_x] = alpha
    for l in range(1, spec.depth - 1):
        p.weights[l][:m_x, :m_x] = np.eye(m_x)
    sq = (x * x).sum(axis=1)
    ones_dot = x.sum(axis=1)
    p.weights[spec.depth - 1][:m_x, :n] = alpha * x.T
    p.biases[spec.depth - 1][0, :n] = -alpha * alpha * ones_dot + alpha * (c / 2.0 - sq)
    return p


def construct_witness(spec: NetworkSpec, x) -> Params:
    """Hidden parameters certifying full row rank of [h, 1] by construction.

    Requires a distinguishable dataset and a pure fully-connected stack (no
    batch normalization).  Two constructions cover the width regimes:

    * every hidden width >= n: the first layer carries scaled copies of the
      inputs, later layers a scaled identity chain;
    * widths >= m_x up to the last hidden layer and m_H >= n (depth >= 2):
      an identity chain shifts the inputs, the last hidden layer carries
      scaled input copies.

    The shared scale doubles from 1 until the leading n x n feature block is
    strictly diagonally dominant, at most WITNESS_MAX_DOUBLINGS times, and
    WitnessConstructionError is raised if it never is.
    """
    x = as_matrix(x, "X")
    n = x.shape[0]
    if any(spec.bn_flags):
        raise ValueError(
            "witness construction applies only without batch normalization; "
            "use expressivity_trials for BN architectures"
        )
    margin = 1.0
    if n >= 2:
        report = check_distinguishability(x)
        if not report.passed:
            raise ValueError(
                "inputs are not distinguishable: pair "
                f"{report.violating_pair} has margin {report.margin:.3e}"
            )
        margin = report.margin
    hidden_widths = spec.widths[1:]
    if spec.feature_dim < n:
        raise ValueError(f"last hidden width {spec.feature_dim} < n = {n}")
    if min(hidden_widths) >= n:
        build = _wide_witness
    elif spec.depth >= 2 and min(hidden_widths[:-1]) >= spec.input_dim:
        build = _narrow_witness
    else:
        raise ValueError(
            "witness needs either every hidden width >= n, or depth >= 2 with "
            f"widths >= m_x = {spec.input_dim} below a last hidden layer >= n"
        )
    alpha = 1.0
    best_margin = -np.inf
    for _ in range(WITNESS_MAX_DOUBLINGS + 1):
        params = build(spec, x, alpha, margin)
        h = forward_hidden(params, x).hidden
        margins = dominance_margins(h, n)
        # dominance alone can hold at a scale where the whole block is
        # denormal-small; insist the rank certificate survives float64 too
        if np.all(margins > 0.0) and certified_rank(append_ones(h)).rank == n:
            return params
        best_margin = max(best_margin, float(margins.min()))
        alpha *= 2.0
    raise WitnessConstructionError(
        f"no numerically certified diagonal dominance within {WITNESS_MAX_DOUBLINGS} "
        f"doublings (best row margin {best_margin:.3e}); the dataset margin "
        "may be too small for float64"
    )


def expressivity_trials(spec: NetworkSpec, x, trials: int, init_scale: float = 1.0,
                        seed: int = 0) -> list:
    """check_expressivity at each of `trials` random Gaussian parameter
    draws, one ExpressivityReport per draw.  Full rank holds with
    probability one whenever any single parameter choice achieves it, so a
    passing fraction below 1 on a qualifying architecture points at a
    tolerance or conditioning problem."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [check_expressivity(random_params(spec, np.random.default_rng(child),
                                             scale=init_scale), x)
            for child in np.random.SeedSequence(seed).spawn(trials)]
