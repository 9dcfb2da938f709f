"""Executable checks for the preconditions behind the training guarantees.

Three entry points:

* check_distinguishability -- the pairwise input margin min ||x_i||^2 - x_i.x_j.
* check_expressivity -- rank of the augmented feature matrix [h, 1] at given
  parameters, which certifies that the last-layer problem can interpolate.
* construct_witness -- explicit hidden parameters that make [h, 1] full row
  rank for any distinguishable dataset, built so the leading n x n feature
  block is strictly diagonally dominant.  probabilistic_expressivity replays
  the same rank check over random Gaussian parameter draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import append_ones, as_matrix, default_rank_tol, gram_det, numerical_rank
from .network import NetworkSpec, Params, forward_hidden, params_zero, random_params

__all__ = [
    "DistinguishabilityReport",
    "ExpressivityReport",
    "WitnessConstructionError",
    "check_distinguishability",
    "check_expressivity",
    "construct_witness",
    "probabilistic_expressivity",
]


class WitnessConstructionError(RuntimeError):
    """Doubling search for the witness scale hit its cap before dominance."""


@dataclass
class DistinguishabilityReport:
    passed: bool
    margin: float
    violating_pair: tuple | None
    tolerance: float


@dataclass
class ExpressivityReport:
    rank: int
    n: int
    passed: bool
    gram_determinant: float
    tolerance: float
    parameter_source: str = "supplied"


def check_distinguishability(x, tol: float = 1e-9) -> DistinguishabilityReport:
    """Exact pairwise margin c = min_{i != j} ||x_i||^2 - x_i . x_j."""
    x = as_matrix(x, "X")
    n = x.shape[0]
    if n < 2:
        raise ValueError("distinguishability needs at least two samples")
    g = x @ x.T
    vals = np.diag(g)[:, None] - g
    np.fill_diagonal(vals, np.inf)
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    margin = float(vals[idx])
    passed = margin > tol
    return DistinguishabilityReport(
        passed=passed,
        margin=margin,
        violating_pair=None if passed else (int(idx[0]), int(idx[1])),
        tolerance=tol,
    )


def check_expressivity(
    spec: NetworkSpec,
    params: Params,
    x,
    tol: float | None = None,
    source: str = "supplied",
) -> ExpressivityReport:
    """Rank of [h, 1] against n; full row rank makes interpolation possible."""
    a = append_ones(forward_hidden(spec, params, x).hidden)
    n = a.shape[0]
    used_tol = default_rank_tol(a) if tol is None else tol
    rank = numerical_rank(a, used_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        gdet = gram_det(a)
    return ExpressivityReport(
        rank=rank,
        n=n,
        passed=rank == n,
        gram_determinant=gdet,
        tolerance=used_tol,
        parameter_source=source,
    )


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


def construct_witness(spec: NetworkSpec, x, max_doublings: int = 60) -> Params:
    """Hidden parameters certifying full row rank of [h, 1] by construction.

    Requires a distinguishable dataset and a pure fully-connected stack (no
    batch normalization).  Two constructions cover the width regimes:

    * every hidden width >= n: the first layer carries scaled copies of the
      inputs, later layers a scaled identity chain;
    * widths >= m_x up to the last hidden layer and m_H >= n (depth >= 2):
      an identity chain shifts the inputs, the last hidden layer carries
      scaled input copies.

    The shared scale doubles from 1 until the leading n x n feature block is
    strictly diagonally dominant.
    """
    x = as_matrix(x, "X")
    n = x.shape[0]
    if any(spec.bn_flags):
        raise ValueError(
            "witness construction applies only without batch normalization; "
            "use probabilistic_expressivity for BN architectures"
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
    for _ in range(max_doublings + 1):
        params = build(spec, x, alpha, margin)
        h = forward_hidden(spec, params, x).hidden
        margins = dominance_margins(h, n)
        # dominance alone can hold at a scale where the whole block is
        # denormal-small; insist the rank certificate survives float64 too
        if np.all(margins > 0.0) and numerical_rank(append_ones(h)) == n:
            return params
        best_margin = max(best_margin, float(margins.min()))
        alpha *= 2.0
    raise WitnessConstructionError(
        f"no numerically certified diagonal dominance within {max_doublings} "
        f"doublings (best row margin {best_margin:.3e}); the dataset margin "
        "may be too small for float64"
    )


def probabilistic_expressivity(
    spec: NetworkSpec,
    x,
    trials: int,
    init_scale: float = 1.0,
    seed: int = 0,
) -> float:
    """Fraction of random Gaussian parameter draws with full-row-rank [h, 1].

    Full rank holds with probability one whenever any single parameter
    choice achieves it, so a fraction below 1.0 on a qualifying
    architecture points at a tolerance or conditioning problem.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    children = np.random.SeedSequence(seed).spawn(trials)
    passed = 0
    for child in children:
        params = random_params(spec, np.random.default_rng(child), scale=init_scale)
        if check_expressivity(spec, params, x, source="random").passed:
            passed += 1
    return passed / trials
