"""Dense matrix primitives: numerical rank, Gram determinants, min-norm solves,
and the augmented feature matrix [h, 1] they are applied to.

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
    "default_rank_tol",
    "numerical_rank",
    "gram_det",
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


def _singular_values(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {m.shape} matrix: {exc}") from exc


def default_rank_tol(m: np.ndarray, svals: np.ndarray | None = None) -> float:
    """Threshold max(rows, cols) * eps * sigma_max, the stock library default."""
    if svals is None:
        svals = _singular_values(m)
    smax = float(svals[0]) if svals.size else 0.0
    return max(m.shape) * np.finfo(np.float64).eps * smax


def numerical_rank(m, tol: float | None = None) -> int:
    """Number of singular values strictly above `tol`.

    With `tol=None` the threshold is max(rows, cols) * eps * sigma_max.
    Raises DecompositionError if the SVD fails; a failure is never
    silently reported as rank 0.
    """
    m = as_matrix(m)
    svals = _singular_values(m)
    if tol is None:
        tol = default_rank_tol(m, svals)
    elif tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return int(np.count_nonzero(svals > tol))


def gram_det(m) -> float:
    """det(M M^T).  Nonnegative up to round-off; 0 when rows are dependent."""
    m = as_matrix(m)
    return float(np.linalg.det(m @ m.T))


def min_norm_solve(m, b, anchor) -> np.ndarray:
    """Solve M Z = B for the Z nearest `anchor` in Frobenius norm.

    Requires M to have full row rank at the default tolerance; the feasible
    set is then the affine subspace anchor-independent of conditioning, and
    the minimizer is anchor + pinv(M) (B - M anchor).
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
    rank = numerical_rank(m)
    if rank < m.shape[0]:
        raise RankDeficientError(
            f"M has numerical rank {rank} < {m.shape[0]} rows; "
            "the constraint M Z = B may be infeasible"
        )
    residual = b - m @ anchor
    correction, *_ = np.linalg.lstsq(m, residual, rcond=None)
    return anchor + correction
