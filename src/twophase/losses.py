"""Convex per-sample loss criteria with smooth, Lipschitz gradients.

Both criteria are convex in the prediction row and have a gradient map that
is Lipschitz with the constant stored on the kind: exactly 2 for the squared
loss, and 1 as a safe upper bound for cross-entropy (the softmax Jacobian
has spectral norm at most 1/2; a larger constant only loosens rate bounds).

The public functions check their inputs: finite matrices, same shapes, and
cross-entropy target rows on the simplex.  The private kernel `_loss` does
not; it serves a caller that checked its data once and calls it every step
(the trainer), and always gives the loss and its gradient, from one
log-softmax of the predictions.  Its pieces are row-wise: `_terms` gives
the per-entry loss terms and the residual rows, `_mean_loss` sums the terms
and `_mean_gradient` scales residual rows, so a caller may take the loss of
all rows and the gradient of a subset from one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = ["LossKind", "SQUARED", "CROSS_ENTROPY", "loss_by_name", "check_targets",
           "loss_value", "loss_grad"]


@dataclass(frozen=True)
class LossKind:
    name: str
    lipschitz: float


SQUARED = LossKind("squared", 2.0)
CROSS_ENTROPY = LossKind("cross_entropy", 1.0)

_BY_NAME = {k.name: k for k in (SQUARED, CROSS_ENTROPY)}


def loss_by_name(name: str) -> LossKind:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(_BY_NAME)}") from None


def check_targets(kind: LossKind, y) -> np.ndarray:
    """`y` as a finite float64 matrix; cross-entropy targets must also be
    nonnegative rows that sum to 1."""
    y = as_matrix(y, "targets")
    if kind.name == "cross_entropy":
        if np.any(y < -1e-12):
            raise ValueError("cross-entropy targets must be nonnegative")
        sums = y.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            raise ValueError(f"cross-entropy target row {bad[0]} sums to {sums[bad[0]]}, not 1")
    return y


def _check_pair(kind: LossKind, f, y):
    f = as_matrix(f, "predictions")
    y = check_targets(kind, y)
    if f.shape != y.shape:
        raise ValueError(f"predictions {f.shape} and targets {y.shape} differ in shape")
    return f, y


def _log_softmax(f: np.ndarray) -> np.ndarray:
    # the row max over a contiguous copy of f.T: a max is exact in any
    # order, and reducing along rows runs ~2.5x faster for narrow f
    shifted = f - np.ascontiguousarray(f.T).max(axis=0)[:, None]
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _terms(kind: LossKind, f: np.ndarray, y: np.ndarray):
    """(per-entry loss terms, the residual whose rows scale to the loss
    gradient), unchecked; row i of each depends on row i of f and y alone."""
    if kind.name == "squared":
        d = f - y
        return d * d, d
    log_p = _log_softmax(f)
    return y * log_p, np.exp(log_p) - y


def _mean_loss(kind: LossKind, terms: np.ndarray) -> float:
    """The mean loss from the per-entry terms of all rows, summed in the
    order given."""
    total = terms.sum()
    return float((total if kind.name == "squared" else -total) / terms.shape[0])


def _mean_gradient(kind: LossKind, residual: np.ndarray) -> np.ndarray:
    """Gradient in f of the mean loss over the rows of `residual`."""
    n = residual.shape[0]
    return (2.0 / n) * residual if kind.name == "squared" else residual / n


def _loss(kind: LossKind, f: np.ndarray, y: np.ndarray):
    """(mean loss, its gradient in f), unchecked."""
    terms, residual = _terms(kind, f, y)
    return _mean_loss(kind, terms), _mean_gradient(kind, residual)


def loss_value(kind: LossKind, f, y) -> float:
    """Mean per-sample loss over the batch."""
    return _loss(kind, *_check_pair(kind, f, y))[0]


def loss_grad(kind: LossKind, f, y) -> np.ndarray:
    """Gradient of loss_value with respect to the prediction matrix."""
    return _loss(kind, *_check_pair(kind, f, y))[1]
