"""Dense matrix primitives: numerical rank and min-norm solves, each from one
SVD, and the augmented feature matrix [h, 1] they are applied to.

Everything here operates on plain float64 ndarrays.  Inputs are validated
once at the boundary (`as_matrix`) so downstream code can assume finite,
two-dimensional, row-major float64 data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DecompositionError",
    "RankDeficientError",
    "as_matrix",
    "append_ones",
    "numerical_rank",
    "min_norm_solve",
]


class DecompositionError(RuntimeError):
    """A matrix factorization failed to converge; never reported as rank 0."""


class RankDeficientError(ValueError):
    """A solve required full row rank and did not get it."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a 2-D float64 C-contiguous array, rejecting NaN/Inf."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def append_ones(h: np.ndarray) -> np.ndarray:
    """[h, 1]: `h` with an all-ones column appended (the augmented features)."""
    return np.hstack([h, np.ones((h.shape[0], 1))])


def _svd(m: np.ndarray, **kwargs):
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {m.shape} matrix: {exc}") from exc


def _count_above(svals: np.ndarray, shape) -> int:
    tol = max(shape) * np.finfo(np.float64).eps * float(svals[0])
    return int(np.count_nonzero(svals > tol))


def numerical_rank(m) -> int:
    """Number of singular values strictly above max(rows, cols) * eps *
    sigma_max, the stock library threshold.

    Raises DecompositionError if the SVD fails; a failure is never silently
    reported as rank 0.
    """
    m = as_matrix(m)
    return _count_above(_svd(m, compute_uv=False), m.shape)


def min_norm_solve(m, b, anchor) -> np.ndarray:
    """Solve M Z = B for the Z nearest `anchor` in Frobenius norm.

    Requires M to have full row rank at numerical_rank's threshold;
    the minimizer is then anchor + pinv(M) (B - M anchor).  One thin SVD
    M = U S V^T gives both the rank and pinv(M) = V S^-1 U^T.
    """
    m = as_matrix(m, "M")
    b = as_matrix(b, "B")
    anchor = as_matrix(anchor, "anchor")
    if b.shape[0] != m.shape[0]:
        raise ValueError(f"B has {b.shape[0]} rows, expected {m.shape[0]}")
    if anchor.shape != (m.shape[1], b.shape[1]):
        raise ValueError(
            f"anchor has shape {anchor.shape}, expected {(m.shape[1], b.shape[1])}"
        )
    u, s, vt = _svd(m, full_matrices=False)
    rank = _count_above(s, m.shape)
    if rank < m.shape[0]:
        raise RankDeficientError(
            f"M has numerical rank {rank} < {m.shape[0]} rows; "
            "the constraint M Z = B may be infeasible"
        )
    return anchor + vt.T @ ((u.T @ (b - m @ anchor)) / s[:, None])
